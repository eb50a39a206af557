// The benchmark's workloads. Each builds its own system from the program's
// public API, runs only its own layers, and checks its answers.
//
// Untraced (options.trace == false): measures for options.seconds and
// returns the end-to-end metrics. Traced: measures options.seconds / 2
// untraced and options.seconds / 2 traced on the same system, returns the
// per-layer metrics from the traced half and reports the tracing overhead.
#pragma once

#include "workload_common.h"

namespace perfbench {

WorkloadResult RunPortalMix(const RunOptions& options);
WorkloadResult RunAnnounceChurn(const RunOptions& options);
WorkloadResult RunClosedLoop(const RunOptions& options);

/// Digest of prices and swarm results of one short closed-loop simulation
/// built from scratch with `seed` (the same-seed replay check).
std::uint64_t ClosedLoopReplayDigest(std::uint64_t seed);

}  // namespace perfbench
