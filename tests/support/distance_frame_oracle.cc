#include "support/distance_frame_oracle.h"

#include <bit>

namespace p4p::testsupport {

namespace {

void PushBigEndian(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int shift = 8 * (bytes - 1); shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

}  // namespace

std::vector<std::uint8_t> ReferenceDistanceFrame(proto::MsgType type, std::int32_t id,
                                                 std::uint64_t version,
                                                 std::span<const double> distances) {
  std::vector<std::uint8_t> out;
  out.push_back(proto::kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  PushBigEndian(out, static_cast<std::uint32_t>(id), 4);
  PushBigEndian(out, version, 8);
  PushBigEndian(out, distances.size(), 4);
  for (const double d : distances) PushBigEndian(out, std::bit_cast<std::uint64_t>(d), 8);
  return out;
}

}  // namespace p4p::testsupport
