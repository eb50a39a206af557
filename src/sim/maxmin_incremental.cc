#include "sim/maxmin_incremental.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace p4p::sim {

namespace {
using Clock = std::chrono::steady_clock;

std::int64_t NsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

/// A canonical-order pass prefers a counting scan over [min_id, max_id] to a
/// comparison sort whenever the id range is within this factor of the
/// element count: O(range) beats O(n log n) for the dense-ish components
/// that dominate recompute cost, while scattered tiny components keep the
/// sort's size-bound worst case.
constexpr std::size_t kCountingSlack = 8;
}  // namespace

// Identity link numbering: the dense path solves over every live flow with
// local link ids equal to the global ids, so no per-component remap exists.
struct IncrementalMaxMin::DenseMap {
  const IncrementalMaxMin* self;
  int local_of(int global) const { return global; }
  double cap(std::size_t local) const { return self->capacities_[local]; }
  // Every live flow participates in a dense solve, so the persistent
  // membership count IS the link's adjacency degree — no counting pass.
  std::uint32_t count(std::size_t local) const { return self->lf_count_[local]; }
};

// Component-local numbering through link_local_, filled for exactly this
// component's links just before its solve.
struct IncrementalMaxMin::CompMap {
  const IncrementalMaxMin* self;
  const int* links;  // component's global link ids, ascending
  int local_of(int global) const {
    return self->link_local_[static_cast<std::size_t>(global)];
  }
  double cap(std::size_t local) const {
    return self->capacities_[static_cast<std::size_t>(links[local])];
  }
  // A component is a closure: every flow on one of its links is in the
  // component, so the link's full membership count is its degree here too.
  std::uint32_t count(std::size_t local) const {
    return self->lf_count_[static_cast<std::size_t>(links[local])];
  }
};

IncrementalMaxMin::IncrementalMaxMin(std::vector<double> capacities)
    : capacities_(std::move(capacities)) {
  for (double c : capacities_) {
    if (c < 0.0 || std::isnan(c)) {
      throw std::invalid_argument("IncrementalMaxMin: negative or NaN capacity");
    }
  }
  lf_off_.assign(capacities_.size(), 0);
  lf_count_.assign(capacities_.size(), 0);
  lf_cap_.assign(capacities_.size(), 0);
  lf_free_.resize(32);
  link_dirty_.assign(capacities_.size(), 0);
  link_stamp_.assign(capacities_.size(), 0);
  link_comp_.assign(capacities_.size(), 0);
  link_local_.assign(capacities_.size(), -1);
}

void IncrementalMaxMin::MarkLinkDirty(int link) {
  const auto lu = static_cast<std::size_t>(link);
  if (link_dirty_[lu] == 0) {
    link_dirty_[lu] = 1;
    dirty_links_.push_back(link);
  }
}

void IncrementalMaxMin::MarkFlowDirty(int slot) {
  const auto su = static_cast<std::size_t>(slot);
  if (flow_dirty_[su] == 0) {
    flow_dirty_[su] = 1;
    dirty_flows_.push_back(slot);
  }
}

void IncrementalMaxMin::GrowLinkMembers(std::size_t link) {
  const std::uint32_t old_cap = lf_cap_[link];
  const std::uint32_t new_cap = old_cap != 0 ? old_cap * 2 : 4u;
  const auto cls = static_cast<std::size_t>(std::countr_zero(new_cap));
  std::uint32_t off;
  if (cls < lf_free_.size() && !lf_free_[cls].empty()) {
    off = lf_free_[cls].back();
    lf_free_[cls].pop_back();
  } else {
    off = static_cast<std::uint32_t>(lf_slab_.size());
    lf_slab_.resize(lf_slab_.size() + new_cap);
  }
  if (old_cap != 0) {
    std::copy_n(lf_slab_.begin() + lf_off_[link], lf_count_[link],
                lf_slab_.begin() + off);
    lf_free_[static_cast<std::size_t>(std::countr_zero(old_cap))].push_back(
        lf_off_[link]);
  }
  lf_off_[link] = off;
  lf_cap_[link] = new_cap;
}

int IncrementalMaxMin::AddFlow(std::span<const int> links, double rate_cap) {
  if (std::isnan(rate_cap) || rate_cap < 0.0) {
    throw std::invalid_argument("IncrementalMaxMin: negative or NaN rate cap");
  }
  if (links.empty() && !std::isfinite(rate_cap)) {
    throw std::invalid_argument(
        "IncrementalMaxMin: flow with no links and no rate cap is unbounded");
  }
  for (int l : links) {
    if (l < 0 || static_cast<std::size_t>(l) >= capacities_.size()) {
      throw std::invalid_argument("IncrementalMaxMin: flow references unknown link");
    }
  }

  // Slot allocation.
  int slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<int>(flow_off_.size());
    flow_off_.push_back(0);
    flow_len_.push_back(0);
    flow_cap_.push_back(0.0);
    flow_live_.push_back(0);
    rate_.push_back(0.0);
    flow_dirty_.push_back(0);
    flow_stamp_.push_back(0);
    flow_comp_.push_back(0);
  }
  const auto su = static_cast<std::size_t>(slot);

  // Pooled chunk for the link list (exact-length recycling, no hashing).
  const auto len = static_cast<std::uint32_t>(links.size());
  std::uint32_t off = 0;
  if (len > 0 && len < pool_free_.size() && !pool_free_[len].empty()) {
    off = pool_free_[len].back();
    pool_free_[len].pop_back();
  } else if (len > 0) {
    off = static_cast<std::uint32_t>(links_pool_.size());
    links_pool_.resize(links_pool_.size() + len);
    pos_pool_.resize(pos_pool_.size() + len);
  }
  flow_off_[su] = off;
  flow_len_[su] = len;
  flow_cap_[su] = rate_cap;
  flow_live_[su] = 1;
  rate_[su] = 0.0;
  ++num_flows_;
  max_flow_len_ = std::max(max_flow_len_, std::max(len, 1u));

  for (std::uint32_t i = 0; i < len; ++i) {
    const int l = links[i];
    const auto lu = static_cast<std::size_t>(l);
    links_pool_[off + i] = l;
    if (lf_count_[lu] == lf_cap_[lu]) GrowLinkMembers(lu);
    pos_pool_[off + i] = lf_count_[lu];
    lf_slab_[lf_off_[lu] + lf_count_[lu]] = LinkEntry{slot, i};
    ++lf_count_[lu];
    MarkLinkDirty(l);
  }
  MarkFlowDirty(slot);
  return slot;
}

void IncrementalMaxMin::RemoveFlow(int slot) {
  const auto su = static_cast<std::size_t>(slot);
  if (slot < 0 || su >= flow_live_.size() || flow_live_[su] == 0) {
    throw std::invalid_argument("IncrementalMaxMin: RemoveFlow on dead slot");
  }
  const std::uint32_t off = flow_off_[su];
  const std::uint32_t len = flow_len_[su];
  for (std::uint32_t i = 0; i < len; ++i) {
    const auto lu = static_cast<std::size_t>(links_pool_[off + i]);
    LinkEntry* members = lf_slab_.data() + lf_off_[lu];
    const std::uint32_t p = pos_pool_[off + i];
    const std::uint32_t last = lf_count_[lu] - 1;
    const LinkEntry moved = members[last];
    members[p] = moved;
    lf_count_[lu] = last;
    if (moved.slot != slot) {
      pos_pool_[flow_off_[static_cast<std::size_t>(moved.slot)] + moved.li] = p;
    }
    MarkLinkDirty(links_pool_[off + i]);
  }
  if (len > 0) {
    if (len >= pool_free_.size()) pool_free_.resize(static_cast<std::size_t>(len) + 1);
    pool_free_[len].push_back(off);
  }
  flow_live_[su] = 0;
  rate_[su] = 0.0;
  --num_flows_;
  free_slots_.push_back(slot);
}

void IncrementalMaxMin::SetCapacity(int link, double capacity_bps) {
  if (link < 0 || static_cast<std::size_t>(link) >= capacities_.size()) {
    throw std::invalid_argument("IncrementalMaxMin: SetCapacity on unknown link");
  }
  if (std::isnan(capacity_bps) || capacity_bps < 0.0) {
    throw std::invalid_argument("IncrementalMaxMin: negative or NaN capacity");
  }
  auto& slot = capacities_[static_cast<std::size_t>(link)];
  if (slot == capacity_bps) return;
  slot = capacity_bps;
  MarkLinkDirty(link);
}

void IncrementalMaxMin::SetRateCap(int slot, double rate_cap) {
  const auto su = static_cast<std::size_t>(slot);
  if (slot < 0 || su >= flow_live_.size() || flow_live_[su] == 0) {
    throw std::invalid_argument("IncrementalMaxMin: SetRateCap on dead slot");
  }
  if (std::isnan(rate_cap) || rate_cap < 0.0) {
    throw std::invalid_argument("IncrementalMaxMin: negative or NaN rate cap");
  }
  if (flow_len_[su] == 0 && !std::isfinite(rate_cap)) {
    throw std::invalid_argument(
        "IncrementalMaxMin: flow with no links and no rate cap is unbounded");
  }
  if (flow_cap_[su] == rate_cap) return;
  flow_cap_[su] = rate_cap;
  MarkFlowDirty(slot);
}

void IncrementalMaxMin::SetDenseCutover(double fraction) {
  if (std::isnan(fraction) || fraction < 0.0) {
    throw std::invalid_argument("IncrementalMaxMin: negative or NaN cutover");
  }
  dense_cutover_ = fraction;
}

bool IncrementalMaxMin::GatherComponents(std::size_t dense_threshold) {
  comp_flows_.clear();
  comp_links_.clear();
  components_.clear();
  bfs_stack_.clear();
  if (++epoch_ == 0) {
    // Stamp wrap (once per 2^32 recomputes): re-zero so stale stamps can
    // never alias the new epoch.
    std::fill(link_stamp_.begin(), link_stamp_.end(), 0u);
    std::fill(flow_stamp_.begin(), flow_stamp_.end(), 0u);
    epoch_ = 1;
  }
  const std::uint32_t epoch = epoch_;
  std::uint32_t comp_id = 0;

  int min_flow = 0, max_flow = 0, min_link = 0, max_link = 0;
  auto visit_link = [&](int l) {
    const auto lu = static_cast<std::size_t>(l);
    if (link_stamp_[lu] == epoch) return;
    link_stamp_[lu] = epoch;
    link_comp_[lu] = comp_id;
    min_link = std::min(min_link, l);
    max_link = std::max(max_link, l);
    comp_links_.push_back(l);
    bfs_stack_.push_back(l);
  };
  // visit_flow expands the flow's links immediately; links queue for later
  // member expansion, so the traversal alternates link->flows->links.
  auto visit_flow = [&](int slot) {
    const auto su = static_cast<std::size_t>(slot);
    if (flow_stamp_[su] == epoch) return;
    flow_stamp_[su] = epoch;
    flow_comp_[su] = comp_id;
    min_flow = std::min(min_flow, slot);
    max_flow = std::max(max_flow, slot);
    comp_flows_.push_back(slot);
    const std::uint32_t off = flow_off_[su];
    for (std::uint32_t i = 0; i < flow_len_[su]; ++i) visit_link(links_pool_[off + i]);
  };

  // One BFS per connected dirty component; canonicalize its ranges as soon
  // as it closes so min/max tracking stays per-component. The cutover is
  // checked inside the traversal — a saturated component must not be fully
  // walked before the gather admits defeat, or the abort costs as much as
  // the gather it is skipping.
  auto gather_from = [&](int seed_link, int seed_flow) -> bool {
    const std::size_t fb = comp_flows_.size();
    const std::size_t lb = comp_links_.size();
    min_flow = min_link = std::numeric_limits<int>::max();
    max_flow = max_link = std::numeric_limits<int>::min();
    if (seed_link >= 0) visit_link(seed_link);
    if (seed_flow >= 0) visit_flow(seed_flow);
    while (!bfs_stack_.empty()) {
      if (comp_flows_.size() > dense_threshold) return false;  // dense cutover
      const int l = bfs_stack_.back();
      bfs_stack_.pop_back();
      const auto lu = static_cast<std::size_t>(l);
      const LinkEntry* members = lf_slab_.data() + lf_off_[lu];
      const std::uint32_t n = lf_count_[lu];
      for (std::uint32_t m = 0; m < n; ++m) {
        visit_flow(members[m].slot);
        // Heavy links hold tens of thousands of members; re-check inside
        // the expansion so one hub link can't blow past the threshold.
        if (((m + 1) & 1023u) == 0 && comp_flows_.size() > dense_threshold) {
          return false;
        }
      }
    }
    if (comp_flows_.size() > dense_threshold) return false;  // dense cutover

    // Canonical orders: flows by slot (the oracle's flow enumeration
    // order), links ascending for a deterministic local layout. Epoch
    // stamps make membership a O(1) test, so a counting scan over the id
    // range replaces the comparison sort whenever the range is tight.
    const std::size_t nf = comp_flows_.size() - fb;
    if (nf > 1) {
      const auto range = static_cast<std::size_t>(max_flow - min_flow) + 1;
      if (range <= nf * kCountingSlack) {
        comp_flows_.resize(fb);
        for (int s = min_flow; s <= max_flow; ++s) {
          const auto su = static_cast<std::size_t>(s);
          if (flow_stamp_[su] == epoch && flow_comp_[su] == comp_id) {
            comp_flows_.push_back(s);
          }
        }
      } else {
        std::sort(comp_flows_.begin() + static_cast<std::ptrdiff_t>(fb),
                  comp_flows_.end());
      }
    }
    const std::size_t nl = comp_links_.size() - lb;
    if (nl > 1) {
      const auto range = static_cast<std::size_t>(max_link - min_link) + 1;
      if (range <= nl * kCountingSlack) {
        comp_links_.resize(lb);
        for (int l = min_link; l <= max_link; ++l) {
          const auto lu = static_cast<std::size_t>(l);
          if (link_stamp_[lu] == epoch && link_comp_[lu] == comp_id) {
            comp_links_.push_back(l);
          }
        }
      } else {
        std::sort(comp_links_.begin() + static_cast<std::ptrdiff_t>(lb),
                  comp_links_.end());
      }
    }
    // A dirty link with no live flows gathers an empty component; nothing
    // to solve, so drop it (its rates are vacuously unchanged).
    if (comp_flows_.size() > fb) {
      components_.push_back(CompRange{fb, comp_flows_.size(), lb, comp_links_.size()});
    } else {
      comp_links_.resize(lb);
    }
    ++comp_id;
    return true;
  };

  for (int l : dirty_links_) {
    if (link_stamp_[static_cast<std::size_t>(l)] == epoch) continue;
    if (!gather_from(l, -1)) return false;
  }
  for (int f : dirty_flows_) {
    const auto su = static_cast<std::size_t>(f);
    if (flow_live_[su] == 0 || flow_stamp_[su] == epoch) continue;
    if (!gather_from(-1, f)) return false;
  }
  return true;
}

void IncrementalMaxMin::BuildDenseFlowList() {
  comp_flows_.clear();
  for (std::size_t s = 0; s < flow_live_.size(); ++s) {
    if (flow_live_[s] != 0) comp_flows_.push_back(static_cast<int>(s));
  }
}

template <class Map>
void IncrementalMaxMin::SolveSpan(std::span<const int> flows,
                                  std::size_t num_real, const Map& map) {
  SolveScratch& s = scratch_;
  const std::size_t num_comp_flows = flows.size();

  // Virtual links for rate caps, ordered after the solve's real links and
  // among themselves in flow (slot) order — order-isomorphic to
  // MaxMinWorkspace's compacted numbering, so local-id tie-breaks decide
  // exactly as the oracle's global-id tie-breaks do.
  s.flow_local_cap_.assign(num_comp_flows, -1);
  std::size_t num_links = num_real;
  for (std::size_t j = 0; j < num_comp_flows; ++j) {
    if (std::isfinite(flow_cap_[static_cast<std::size_t>(flows[j])])) {
      s.flow_local_cap_[j] = static_cast<int>(num_links++);
    }
  }

  s.local_remaining_.resize(num_links);
  for (std::size_t l = 0; l < num_real; ++l) s.local_remaining_[l] = map.cap(l);
  for (std::size_t j = 0; j < num_comp_flows; ++j) {
    if (s.flow_local_cap_[j] >= 0) {
      s.local_remaining_[static_cast<std::size_t>(s.flow_local_cap_[j])] =
          flow_cap_[static_cast<std::size_t>(flows[j])];
    }
  }

  // CSR adjacency, flows appended per link in slot order (matches the
  // oracle's flow-major construction). The counting pass is free: the
  // persistent membership counts already hold every real link's degree
  // (see the map's count()), and each virtual cap link has exactly one.
  s.adj_offsets_.resize(num_links + 1);
  s.adj_offsets_[0] = 0;
  for (std::size_t l = 0; l < num_real; ++l) {
    s.adj_offsets_[l + 1] = s.adj_offsets_[l] + map.count(l);
  }
  for (std::size_t l = num_real; l < num_links; ++l) {
    s.adj_offsets_[l + 1] = s.adj_offsets_[l] + 1;
  }
  s.adj_flows_.resize(s.adj_offsets_[num_links]);
  s.adj_fill_.assign(s.adj_offsets_.begin(), s.adj_offsets_.end() - 1);
  for (std::size_t j = 0; j < num_comp_flows; ++j) {
    const auto su = static_cast<std::size_t>(flows[j]);
    const std::uint32_t off = flow_off_[su];
    for (std::uint32_t i = 0; i < flow_len_[su]; ++i) {
      const int local = map.local_of(links_pool_[off + i]);
      s.adj_flows_[s.adj_fill_[static_cast<std::size_t>(local)]++] = static_cast<int>(j);
    }
    if (s.flow_local_cap_[j] >= 0) {
      s.adj_flows_[s.adj_fill_[static_cast<std::size_t>(s.flow_local_cap_[j])]++] =
          static_cast<int>(j);
    }
  }

  s.local_active_.resize(num_links);
  for (std::size_t l = 0; l < num_links; ++l) {
    s.local_active_[l] = static_cast<int>(s.adj_offsets_[l + 1] - s.adj_offsets_[l]);
  }
  s.local_frozen_.assign(num_comp_flows, 0);

  // Min-heap of (fair share, local link id) — the oracle's exact layout
  // and comparator; local-id ties resolve identically to global-id ties
  // because the local numbering is monotone in the global one.
  s.heap_.clear();
  s.heap_.reserve(num_links);
  for (std::size_t l = 0; l < num_links; ++l) {
    if (s.local_active_[l] > 0) {
      s.heap_.emplace_back(std::max(0.0, s.local_remaining_[l]) / s.local_active_[l],
                           static_cast<int>(l));
    }
  }
  std::make_heap(s.heap_.begin(), s.heap_.end(), std::greater<>{});

  while (!s.heap_.empty()) {
    const auto [share, local] = s.heap_.front();
    std::pop_heap(s.heap_.begin(), s.heap_.end(), std::greater<>{});
    s.heap_.pop_back();
    const auto lu = static_cast<std::size_t>(local);
    if (s.local_active_[lu] == 0) continue;  // fully frozen via other links
    const double current = std::max(0.0, s.local_remaining_[lu]) / s.local_active_[lu];
    if (share < current - 1e-12 * std::max(1.0, current)) {
      s.heap_.emplace_back(current, local);
      std::push_heap(s.heap_.begin(), s.heap_.end(), std::greater<>{});
      continue;
    }
    for (std::size_t a = s.adj_offsets_[lu]; a < s.adj_offsets_[lu + 1]; ++a) {
      const auto j = static_cast<std::size_t>(s.adj_flows_[a]);
      if (s.local_frozen_[j] != 0) continue;
      s.local_frozen_[j] = 1;
      const auto su = static_cast<std::size_t>(flows[j]);
      rate_[su] = current;
      const std::uint32_t off = flow_off_[su];
      for (std::uint32_t i = 0; i < flow_len_[su]; ++i) {
        const auto l2 = static_cast<std::size_t>(map.local_of(links_pool_[off + i]));
        if (l2 == lu) continue;
        s.local_remaining_[l2] -= current;
        --s.local_active_[l2];
      }
      const int cl = s.flow_local_cap_[j];
      if (cl >= 0 && static_cast<std::size_t>(cl) != lu) {
        s.local_remaining_[static_cast<std::size_t>(cl)] -= current;
        --s.local_active_[static_cast<std::size_t>(cl)];
      }
    }
    s.local_remaining_[lu] = 0.0;
    s.local_active_[lu] = 0;
  }
}

void IncrementalMaxMin::SolveOneComponent(const CompRange& c) {
  const int* links = comp_links_.data() + c.links_begin;
  const std::size_t num_comp_links = c.links_end - c.links_begin;
  for (std::size_t i = 0; i < num_comp_links; ++i) {
    link_local_[static_cast<std::size_t>(links[i])] = static_cast<int>(i);
  }
  const CompMap map{this, links};
  SolveSpan(std::span<const int>(comp_flows_.data() + c.flows_begin,
                                 c.flows_end - c.flows_begin),
            num_comp_links, map);
}

std::span<const double> IncrementalMaxMin::Rates() {
  if (dirty_links_.empty() && dirty_flows_.empty()) {
    last_path_ = SolvePath::kClean;
    return rate_;
  }

  const auto t0 = Clock::now();
  // Regime-adaptive cutover: abandon the gather once it exceeds the
  // configured fraction of live flows and re-solve everything densely.
  const double scaled = dense_cutover_ * static_cast<double>(num_flows_);
  const std::size_t dense_threshold =
      scaled >= static_cast<double>(num_flows_)
          ? std::numeric_limits<std::size_t>::max()
          : static_cast<std::size_t>(scaled);
  bool incremental = true;
  if (dense_threshold != std::numeric_limits<std::size_t>::max()) {
    // Exact lower bounds on what a gather would collect, computable from
    // the dirty seeds alone: every flow on a dirty link is gathered (the
    // largest single dirty link bounds from below, as does the summed
    // membership divided by the worst-case links-per-flow), and so is
    // every live dirty flow. When any bound already clears the threshold
    // the BFS is pointless — skip straight to the dense solve.
    std::size_t max_link = 0, sum_links = 0;
    for (int l : dirty_links_) {
      const std::uint32_t n = lf_count_[static_cast<std::size_t>(l)];
      max_link = std::max<std::size_t>(max_link, n);
      sum_links += n;
    }
    std::size_t bound = std::max(max_link, sum_links / max_flow_len_);
    if (bound <= dense_threshold) {
      std::size_t live_dirty = 0;
      for (int f : dirty_flows_) {
        live_dirty += flow_live_[static_cast<std::size_t>(f)];
      }
      bound = std::max(bound, live_dirty);
    }
    if (bound > dense_threshold) incremental = false;
  }
  if (incremental) incremental = GatherComponents(dense_threshold);
  if (!incremental) BuildDenseFlowList();
  const auto gather_ns = NsSince(t0);

  const auto t1 = Clock::now();
  if (!incremental) {
    last_path_ = SolvePath::kDense;
    ++dense_solves_;
    last_components_ = comp_flows_.empty() ? 0 : 1;
    if (!comp_flows_.empty()) {
      const DenseMap map{this};
      SolveSpan(std::span<const int>(comp_flows_), capacities_.size(), map);
    }
  } else {
    last_path_ = SolvePath::kIncremental;
    ++incremental_solves_;
    last_components_ = components_.size();
    for (const CompRange& c : components_) SolveOneComponent(c);
  }
  const auto solve_ns = NsSince(t1);

  // Reset dirty state (epoch stamps need no clearing).
  for (int l : dirty_links_) link_dirty_[static_cast<std::size_t>(l)] = 0;
  for (int f : dirty_flows_) flow_dirty_[static_cast<std::size_t>(f)] = 0;
  dirty_links_.clear();
  dirty_flows_.clear();

  last_recomputed_flows_ = comp_flows_.size();
  total_recomputed_flows_ += comp_flows_.size();
  ++recompute_passes_;
  last_gather_ns_ = gather_ns;
  last_solve_ns_ = solve_ns;
  total_gather_ns_ += gather_ns;
  total_solve_ns_ += solve_ns;
  return rate_;
}

}  // namespace p4p::sim
