// Sharded multi-swarm execution with deterministic merge.
//
// The locality-limit experiment shape ("Pushing BitTorrent Locality to the
// Limit") runs many swarms — heavy-tailed sizes, shared topology — against
// one selection policy. Swarms never exchange peers, so the natural unit of
// parallelism is the swarm: each job gets its own simulator instance, its
// own selector (selection policies carry sampling state), and its own RNG
// stream seeded from the job's config. Worker threads claim jobs from an
// atomic counter; results land in a slot indexed by job order. Because no
// state crosses job boundaries, the merged MultiSwarmResult is bit-identical
// for a fixed set of job seeds regardless of thread count or claim order
// (wall-clock instrumentation fields aside — see BitTorrentResult).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sim/bittorrent.h"

namespace p4p::sim {

/// One swarm: its population and its full simulator config (rng_seed gives
/// the swarm its private RNG stream; vary it per job).
struct SwarmJob {
  std::vector<PeerSpec> peers;
  BitTorrentConfig config;
};

struct MultiSwarmResult {
  /// Per-swarm results, indexed identically to the jobs span.
  std::vector<BitTorrentResult> swarms;
  double wall_seconds = 0.0;

  /// Aggregates across swarms.
  double total_bytes() const;
  int total_rounds() const;
};

/// Builds the selector for job `i`. Called once per job, possibly from a
/// worker thread; the factory itself must be thread-safe (selectors it
/// returns are used by exactly one job).
using SelectorFactory = std::function<std::unique_ptr<PeerSelector>(std::size_t)>;

/// Runs every job and merges results deterministically. `background`, when
/// set, is shared across all swarms and must be pure/thread-safe (a function
/// of link and time). `num_threads` <= 1 runs inline on the caller's thread.
/// Each job's max-min solve runs on the thread that simulates the swarm.
MultiSwarmResult RunSwarms(const net::Graph& graph, const net::RoutingTable& routing,
                           std::span<const SwarmJob> jobs,
                           const SelectorFactory& make_selector, int num_threads,
                           const BitTorrentSimulator::BackgroundFn& background = nullptr);

}  // namespace p4p::sim
