#include "support/span_p4p_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>

namespace p4p::testsupport {

namespace {

using core::Pid;

/// Uniform sample of up to `m` indices from `pool` (without replacement,
/// order randomized). Consumes entries from `pool`.
std::vector<sim::PeerId> TakeRandom(std::vector<sim::PeerId>& pool, int m,
                                    std::mt19937_64& rng) {
  std::shuffle(pool.begin(), pool.end(), rng);
  const auto take = std::min<std::size_t>(pool.size(), static_cast<std::size_t>(std::max(0, m)));
  std::vector<sim::PeerId> out(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(take));
  pool.erase(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(take));
  return out;
}

}  // namespace

std::vector<sim::PeerId> SpanP4POracle(const core::P4PSelectorConfig& config,
                                       const core::ITracker* tracker_or_null,
                                       const std::vector<std::vector<double>>* matching,
                                       const sim::PeerInfo& client,
                                       std::span<const sim::PeerInfo> candidates,
                                       int m, std::mt19937_64& rng) {
  if (tracker_or_null == nullptr) {
    // No view for this AS: degrade gracefully to random selection.
    std::vector<sim::PeerId> pool;
    pool.reserve(candidates.size());
    for (const auto& c : candidates) {
      if (c.id != client.id) pool.push_back(c.id);
    }
    return TakeRandom(pool, m, rng);
  }
  const core::ITracker& tracker = *tracker_or_null;
  const Pid my_pid = client.node;  // PoP-level aggregation: PID == node id

  // Partition candidates.
  std::vector<sim::PeerId> same_pid;
  std::unordered_map<Pid, std::vector<sim::PeerId>> same_as_by_pid;
  std::unordered_map<Pid, std::vector<sim::PeerId>> other_as_by_pid;
  for (const auto& c : candidates) {
    if (c.id == client.id) continue;
    if (c.as_number == client.as_number) {
      if (c.node == client.node) {
        same_pid.push_back(c.id);
      } else {
        same_as_by_pid[c.node].push_back(c.id);
      }
    } else {
      other_as_by_pid[c.node].push_back(c.id);
    }
  }

  std::vector<sim::PeerId> selected;
  selected.reserve(static_cast<std::size_t>(m));

  // --- Stage 1: intra-PID ---
  double intra_bound = config.upper_bound_intra_pid;
  {
    // "The bound will be set to a lower value if the network p-distance
    // within PID-i is relatively higher than outside the PID."
    double min_outside = std::numeric_limits<double>::infinity();
    for (const auto& [pid, ids] : same_as_by_pid) {
      (void)ids;
      min_outside = std::min(min_outside, tracker.pdistance(my_pid, pid));
    }
    if (std::isfinite(min_outside) && tracker.pdistance(my_pid, my_pid) > min_outside) {
      intra_bound *= 0.5;
    }
  }
  const int intra_quota = static_cast<int>(std::floor(intra_bound * m));
  for (sim::PeerId id : TakeRandom(same_pid, intra_quota, rng)) {
    selected.push_back(id);
  }

  // Weighted PID sampling shared by stages 2 and 3: weight per PID, then a
  // uniform pick inside the PID.
  auto weighted_fill = [&](std::unordered_map<Pid, std::vector<sim::PeerId>>& by_pid,
                           const std::vector<std::vector<double>>* match_w, int quota) {
    if (quota <= 0 || by_pid.empty()) return;
    // Zero-distance PIDs are weighted relative to the smallest positive
    // distance so they always dominate, regardless of the dual price scale.
    double min_positive = std::numeric_limits<double>::infinity();
    for (const auto& [pid, ids] : by_pid) {
      if (ids.empty()) continue;
      const double p = tracker.pdistance(my_pid, pid);
      if (p > 0) min_positive = std::min(min_positive, p);
    }
    const double zero_weight = std::isfinite(min_positive)
                                   ? config.zero_distance_factor / min_positive
                                   : 1.0;
    std::vector<Pid> pids;
    std::vector<double> weights;
    // First pass honors the matching weights when present; if the matched
    // PIDs have no available candidates (LP solutions are sparse), fall back
    // to plain 1/p weighting so the quota can still be met inside the AS.
    for (const bool use_match : {match_w != nullptr, false}) {
      pids.clear();
      weights.clear();
      for (auto& [pid, ids] : by_pid) {
        if (ids.empty()) continue;
        double w = 0.0;
        if (use_match && my_pid < static_cast<Pid>(match_w->size()) &&
            pid < static_cast<Pid>((*match_w)[static_cast<std::size_t>(my_pid)].size())) {
          w = (*match_w)[static_cast<std::size_t>(my_pid)][static_cast<std::size_t>(pid)];
        } else {
          const double p = tracker.pdistance(my_pid, pid);
          w = p > 0 ? 1.0 / p : zero_weight;
        }
        if (w <= 0) continue;
        pids.push_back(pid);
        weights.push_back(w);
      }
      if (!pids.empty()) break;
    }
    if (pids.empty()) return;
    // Normalize and apply the concave robustness transform.
    const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
    for (double& w : weights) w = std::pow(w / sum, config.concave_gamma);

    int taken = 0;
    while (taken < quota) {
      std::discrete_distribution<std::size_t> pick(weights.begin(), weights.end());
      const std::size_t k = pick(rng);
      auto& ids = by_pid[pids[k]];
      std::uniform_int_distribution<std::size_t> which(0, ids.size() - 1);
      const std::size_t w = which(rng);
      selected.push_back(ids[w]);
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(w));
      ++taken;
      if (ids.empty()) {
        weights[k] = 0.0;
        if (std::accumulate(weights.begin(), weights.end(), 0.0) <= 0.0) break;
      }
    }
  };

  // --- Stage 2: inter-PID within the AS ---
  const int inter_total =
      static_cast<int>(std::floor(config.upper_bound_inter_pid * m));
  weighted_fill(same_as_by_pid, matching, inter_total - static_cast<int>(selected.size()));

  // --- Stage 3: inter-AS ---
  weighted_fill(other_as_by_pid, nullptr, m - static_cast<int>(selected.size()));

  // If still short (single-AS swarms, tiny swarms), backfill — but keep
  // honoring the p-distance weights within the AS before falling back to
  // uniform picks from whatever remains.
  if (static_cast<int>(selected.size()) < m) {
    weighted_fill(same_as_by_pid, matching, m - static_cast<int>(selected.size()));
  }
  if (static_cast<int>(selected.size()) < m) {
    std::vector<sim::PeerId> leftovers = std::move(same_pid);
    for (auto& [pid, ids] : other_as_by_pid) {
      (void)pid;
      leftovers.insert(leftovers.end(), ids.begin(), ids.end());
    }
    for (sim::PeerId id :
         TakeRandom(leftovers, m - static_cast<int>(selected.size()), rng)) {
      selected.push_back(id);
    }
  }
  return selected;
}

}  // namespace p4p::testsupport
