// Test oracle for the p-distance frame codec.
//
// The per-element reference encoder for GetPDistancesResp and
// GetExternalViewResp frames: every field, and every double, is written
// one byte at a time by shifting, exactly as the wire format reads
// (messages.h). It is the straightforward reading of the layout and is kept
// only to check the production bulk codec (Writer::f64_vec,
// EncodeExternalViewFrame, SpliceRowFrame) byte for byte. Nothing in the
// program links it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "proto/messages.h"

namespace p4p::testsupport {

/// The frame `u8 version | u8 type | i32 id | u64 version | u32 count |
/// count big-endian doubles`, for type kGetPDistancesResp (id = from) or
/// kGetExternalViewResp (id = num_pids).
std::vector<std::uint8_t> ReferenceDistanceFrame(proto::MsgType type, std::int32_t id,
                                                 std::uint64_t version,
                                                 std::span<const double> distances);

}  // namespace p4p::testsupport
