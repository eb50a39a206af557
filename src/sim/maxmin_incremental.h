// Incremental max-min fair allocator: O(dirty-component) recomputation,
// with a regime-adaptive dense cutover.
//
// MaxMinWorkspace::Compute rebuilds the link-flow adjacency and re-runs
// progressive filling from scratch every call. The fluid simulators call it
// every step over flow sets that barely change: a stream keeps its flow
// (same route, same cap) across every block it transfers, so between
// rechoke bursts most steps change nothing at all. This class keeps the
// flows registered across steps and exploits two exact properties of
// max-min fairness:
//
//   1. If nothing changed since the last solve, the old rates are the
//      answer (Rates() is O(1) on clean calls).
//   2. The link-flow incidence graph decomposes into connected components
//      that share no links, and the max-min allocation of a disjoint union
//      is the union of the per-component allocations. Only components
//      containing a changed link or flow need re-solving; untouched
//      components keep their cached rates.
//
// Rates() picks among three solve paths, all bit-identical to a full
// progressive-filling solve over all live flows (and to the
// MaxMinFairRates oracle when flows are enumerated in slot order):
//
//   - Clean: nothing dirty, return cached rates.
//   - Incremental: BFS-gather each dirty component over the persistent
//     adjacency and re-solve only those, one after another. Each
//     component's solve is self-contained and writes only its own flows'
//     rate slots.
//   - Dense: when the gathered dirty set exceeds a tunable fraction of
//     the live flows (SetDenseCutover), the gather is abandoned and all
//     live flows are re-solved directly from the persistent slot state —
//     identity link numbering, no BFS, no canonical-order pass. This is
//     the saturated-swarm regime where churn dirties nearly everything
//     each step and the gather/remap constant factor costs more than the
//     component restriction saves.
//
// Parity holds by construction on every path: within a component the
// sequence of freeze operations — pop order of the (fair share, link id)
// min-heap restricted to the component, and the flow iteration order of
// each freeze — depends only on that component's links and flows, never
// on what else is in the network. Heap ties break on a global link id
// (rate-cap virtual links ordered after real links, among themselves by
// flow slot), which is order-isomorphic to the oracle's numbering, so
// even exact floating-point share ties resolve identically. The dense
// path is the degenerate case where the "component" is the whole network.
//
// Storage is pooled and hash-free on the hot mutators: flow link lists
// live in one arena recycled through exact-length free lists, per-link
// flow membership is a swap-and-pop slab (power-of-two chunks recycled by
// size class) with back-pointers, traversal marks are epoch stamps (no
// per-pass clearing), and all recompute scratch is reused across calls.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace p4p::sim {

class IncrementalMaxMin {
 public:
  explicit IncrementalMaxMin(std::vector<double> capacities);

  IncrementalMaxMin(const IncrementalMaxMin&) = delete;
  IncrementalMaxMin& operator=(const IncrementalMaxMin&) = delete;

  /// Registers a flow traversing `links` (indices into the capacity
  /// vector) with an optional finite rate cap. Returns the flow's slot id,
  /// stable until RemoveFlow. Validation matches MaxMinFairRates: throws
  /// std::invalid_argument on unknown links, a negative/NaN cap, or a flow
  /// with no links and no finite cap.
  int AddFlow(std::span<const int> links,
              double rate_cap = std::numeric_limits<double>::infinity());

  /// Unregisters a flow; its slot may be reused by a later AddFlow.
  void RemoveFlow(int slot);

  /// Updates a link capacity (>= 0, non-NaN); dirties the link's component.
  /// Throws std::invalid_argument on an unknown link, like every other
  /// mutator.
  void SetCapacity(int link, double capacity_bps);

  /// Updates a flow's rate cap; dirties the flow's component.
  void SetRateCap(int slot, double rate_cap);

  /// Rates indexed by slot (freed slots read 0). Recomputes only dirty
  /// components; the span stays valid until the next mutating call.
  std::span<const double> Rates();

  /// Dense cutover: when a recompute gathers more than `fraction` of the
  /// live flows, it abandons the gather and re-solves all live flows
  /// directly (no BFS, identity link ids). 0 forces the dense path on any
  /// dirty solve; >= 1 disables it. Throws std::invalid_argument on a
  /// negative or NaN fraction. Results are bit-identical either way.
  void SetDenseCutover(double fraction);
  double dense_cutover() const { return dense_cutover_; }

  double capacity(int link) const {
    return capacities_.at(static_cast<std::size_t>(link));
  }
  std::span<const double> capacities() const { return capacities_; }
  std::size_t num_links() const { return capacities_.size(); }
  std::size_t num_flows() const { return num_flows_; }

  /// Introspection for tests and benches: flows re-solved by the last
  /// Rates() call, and cumulative counts across the allocator's lifetime.
  std::size_t last_recomputed_flows() const { return last_recomputed_flows_; }
  std::uint64_t total_recomputed_flows() const { return total_recomputed_flows_; }
  std::uint64_t recompute_passes() const { return recompute_passes_; }

  /// Which path the last Rates() call took.
  enum class SolvePath { kClean, kIncremental, kDense };
  SolvePath last_path() const { return last_path_; }
  /// Dirty components re-solved by the last recompute pass (1 on dense).
  std::size_t last_components() const { return last_components_; }
  std::uint64_t dense_solves() const { return dense_solves_; }
  std::uint64_t incremental_solves() const { return incremental_solves_; }

  /// Time attribution (wall clock, excluded from determinism contracts):
  /// the gather phase is dirty-set discovery + canonical ordering (or the
  /// dense live-flow scan), the solve phase is progressive filling. Only
  /// updated by recompute passes; clean calls leave them untouched.
  std::int64_t last_gather_ns() const { return last_gather_ns_; }
  std::int64_t last_solve_ns() const { return last_solve_ns_; }
  std::int64_t total_gather_ns() const { return total_gather_ns_; }
  std::int64_t total_solve_ns() const { return total_solve_ns_; }

 private:
  struct LinkEntry {
    int slot;          // flow occupying this entry
    std::uint32_t li;  // index of this link within the flow's link list
  };
  /// Heap entries are (share, local link id) exactly like the oracle's.
  /// Local ids are assigned in ascending global order (real links) followed
  /// by ascending slot order (virtual cap links), which is strictly
  /// monotone in the oracle's global numbering — so tie-breaking on the
  /// local id makes byte-identical pop decisions to tie-breaking on the
  /// global id, without carrying it.
  using HeapEntry = std::pair<double, int>;
  /// Progressive-filling scratch, reused across solves.
  struct SolveScratch {
    std::vector<int> flow_local_cap_;  // comp flow idx -> local cap link or -1
    std::vector<double> local_remaining_;
    std::vector<int> local_active_;
    std::vector<std::size_t> adj_offsets_;
    std::vector<std::size_t> adj_fill_;
    std::vector<int> adj_flows_;
    std::vector<char> local_frozen_;
    std::vector<HeapEntry> heap_;
  };
  /// One gathered dirty component: half-open ranges into the shared
  /// comp_flows_ / comp_links_ arrays (canonical ascending order).
  struct CompRange {
    std::size_t flows_begin, flows_end;
    std::size_t links_begin, links_end;
  };
  struct DenseMap;  // identity link numbering (all live flows)
  struct CompMap;   // component-local numbering via link_local_

  void MarkLinkDirty(int link);
  void MarkFlowDirty(int slot);
  void GrowLinkMembers(std::size_t link);
  /// BFS-gathers every dirty component into components_; returns false if
  /// the gathered flow total exceeded `dense_threshold` (cutover: caller
  /// abandons the partial gather and runs the dense path instead).
  bool GatherComponents(std::size_t dense_threshold);
  void BuildDenseFlowList();
  template <class Map>
  void SolveSpan(std::span<const int> flows, std::size_t num_real,
                 const Map& map);
  void SolveOneComponent(const CompRange& c);

  // --- network state ---
  std::vector<double> capacities_;

  // --- per-link flow membership: swap-and-pop chunks in one slab ---
  std::vector<std::uint32_t> lf_off_;    // chunk offset into lf_slab_
  std::vector<std::uint32_t> lf_count_;  // live entries
  std::vector<std::uint32_t> lf_cap_;    // chunk capacity (power of two or 0)
  std::vector<LinkEntry> lf_slab_;
  std::vector<std::vector<std::uint32_t>> lf_free_;  // by log2 size class

  // --- per-flow state (slot-indexed SoA) ---
  std::vector<std::uint32_t> flow_off_;    // offset into links_pool_
  std::vector<std::uint32_t> flow_len_;    // links on this flow
  std::vector<double> flow_cap_;
  std::vector<char> flow_live_;
  std::vector<double> rate_;
  std::vector<int> free_slots_;
  std::size_t num_flows_ = 0;

  // --- pooled link-list storage (exact-length free lists, no hashing) ---
  std::vector<int> links_pool_;            // flow link ids
  std::vector<std::uint32_t> pos_pool_;    // back-pointer into the link's chunk
  std::vector<std::vector<std::uint32_t>> pool_free_;  // [len] -> offsets

  // --- dirty tracking ---
  std::vector<int> dirty_links_;
  std::vector<char> link_dirty_;
  std::vector<int> dirty_flows_;
  std::vector<char> flow_dirty_;
  std::uint32_t max_flow_len_ = 1;  // high-water mark, for gather lower bounds

  // --- gather state (epoch stamps: no per-pass clearing) ---
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> link_stamp_, flow_stamp_;
  std::vector<std::uint32_t> link_comp_, flow_comp_;
  std::vector<int> comp_flows_;  // per-component ascending slot ranges
  std::vector<int> comp_links_;  // per-component ascending global link ids
  std::vector<int> bfs_stack_;   // links pending member expansion
  std::vector<CompRange> components_;
  std::vector<int> link_local_;  // global link -> local index (comp solves)

  // --- solver configuration + scratch ---
  double dense_cutover_ = 0.5;
  SolveScratch scratch_;

  // --- introspection ---
  std::size_t last_recomputed_flows_ = 0;
  std::uint64_t total_recomputed_flows_ = 0;
  std::uint64_t recompute_passes_ = 0;
  SolvePath last_path_ = SolvePath::kClean;
  std::size_t last_components_ = 0;
  std::uint64_t dense_solves_ = 0;
  std::uint64_t incremental_solves_ = 0;
  std::int64_t last_gather_ns_ = 0;
  std::int64_t last_solve_ns_ = 0;
  std::int64_t total_gather_ns_ = 0;
  std::int64_t total_solve_ns_ = 0;
};

}  // namespace p4p::sim
