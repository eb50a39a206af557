// Max-min fair bandwidth allocation (progressive filling).
//
// The paper simulates TCP at session level, "assuming that TCP capacity
// sharing achieves maxmin fairness in steady state" (Section 7.1, following
// Bindal et al.). This allocator is the realization of that model: given
// link capacities and flows (each a list of links it traverses, plus an
// optional per-flow rate cap), it computes the unique max-min fair rate
// vector using progressive filling with a lazy priority queue. Each live
// link holds exactly one heap entry, refreshed on pop when stale (fair
// shares are monotone non-decreasing), so saturated links are never
// rescanned through piles of outdated entries.
//
// The simulators recompute rates every fluid step over mostly-unchanged
// flow sets, so the hot entry point is MaxMinWorkspace::Compute, which
// takes non-owning FlowSpec views (link lists may alias RoutingTable
// path_view spans or per-stream route buffers) and reuses all scratch
// storage — adjacency, heap, rate buffers — across rounds. The vector-based
// MaxMinFairRates wrapper remains for one-shot callers.
#pragma once

#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace p4p::sim {

struct Flow {
  /// Indices into the capacity vector of every link the flow traverses.
  std::vector<int> links;
  /// Intrinsic rate limit (e.g., application pacing); +inf when absent.
  double rate_cap = std::numeric_limits<double>::infinity();
};

/// Non-owning flow description for the zero-allocation fast path. The links
/// span must stay valid for the duration of the Compute() call.
struct FlowSpec {
  std::span<const int> links;
  double rate_cap = std::numeric_limits<double>::infinity();
};

/// Reusable scratch state for progressive filling. One workspace serves one
/// caller at a time; reusing it across rounds avoids reallocating the
/// link-flow adjacency, heap, and rate buffers each recomputation. Results
/// are bit-identical to MaxMinFairRates on the same input.
class MaxMinWorkspace {
 public:
  /// Computes max-min fair rates (one per flow) into an internal buffer
  /// that stays valid until the next Compute() call. Capacities must be
  /// non-negative; a flow with no links and no finite cap is unbounded and
  /// throws std::invalid_argument, as does a flow referencing an unknown
  /// link or carrying a negative cap.
  std::span<const double> Compute(std::span<const double> capacities,
                                  std::span<const FlowSpec> flows);

 private:
  std::vector<double> remaining_;      // residual capacity per (real+virtual) link
  std::vector<int> cap_link_of_flow_;  // virtual link id per capped flow, or -1
  std::vector<std::size_t> adj_offsets_;  // CSR offsets: flows on each link
  std::vector<std::size_t> adj_fill_;
  std::vector<int> adj_flows_;
  std::vector<int> active_count_;
  std::vector<double> rate_;
  std::vector<char> frozen_;
  std::vector<std::pair<double, int>> heap_;  // (fair share, link) min-heap
};

/// One-shot convenience wrapper over MaxMinWorkspace. Returns one rate per
/// flow; same validation rules as Compute().
std::vector<double> MaxMinFairRates(std::span<const double> capacities,
                                    std::span<const Flow> flows);

}  // namespace p4p::sim
