#include "core/selectors.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace p4p::core {

namespace {

/// The per-thread workspace behind the bucket-aware selector entry points.
/// Scratch only — no state survives a call, so sharing one instance across
/// selector objects on the same thread is safe.
SelectionWorkspace& ThreadWorkspace() {
  thread_local SelectionWorkspace ws;
  return ws;
}

/// Floyd's algorithm: appends `k` distinct values drawn uniformly from
/// [0, n) to `picks` (cleared first). O(k^2) with k = peers wanted, which is
/// tiny; never touches storage proportional to n.
void FloydSample(std::uint64_t n, int k, std::mt19937_64& rng,
                 std::vector<std::uint64_t>& picks) {
  picks.clear();
  if (k <= 0 || n == 0) return;
  const std::uint64_t take = std::min<std::uint64_t>(static_cast<std::uint64_t>(k), n);
  for (std::uint64_t i = n - take; i < n; ++i) {
    std::uniform_int_distribution<std::uint64_t> dist(0, i);
    const std::uint64_t t = dist(rng);
    if (std::find(picks.begin(), picks.end(), t) != picks.end()) {
      picks.push_back(i);
    } else {
      picks.push_back(t);
    }
  }
}

/// Backs the span entry points of the bucket-aware policies: indexes the
/// candidates into a local bucket store and runs the policy's one selection
/// algorithm, SelectFromBuckets. Candidate ids must be unique
/// (PeerBuckets::Insert throws on a duplicate).
std::vector<sim::PeerId> SelectFromSpan(sim::PeerSelector& selector,
                                        const sim::PeerInfo& client,
                                        std::span<const sim::PeerInfo> candidates,
                                        int m, std::mt19937_64& rng) {
  sim::PeerBuckets swarm;
  for (const auto& c : candidates) swarm.Insert(c);
  return selector.SelectFromBuckets(client, swarm, m, rng);
}

}  // namespace

std::vector<sim::PeerId> NativeRandomSelector::SelectPeers(
    const sim::PeerInfo& client, std::span<const sim::PeerInfo> candidates, int m,
    std::mt19937_64& rng) {
  return SelectFromSpan(*this, client, candidates, m, rng);
}

std::vector<sim::PeerId> NativeRandomSelector::SelectFromBuckets(
    const sim::PeerInfo& client, const sim::PeerBuckets& swarm, int m,
    std::mt19937_64& rng) {
  std::vector<sim::PeerId> out;
  if (m <= 0 || swarm.empty()) return out;
  SelectionWorkspace& ws = ThreadWorkspace();
  const auto& buckets = swarm.buckets();

  // Global-rank sampling: prefix sums over bucket sizes map a rank in
  // [0, swarm size) to a (bucket, slot) pair; the client's own rank (when a
  // member) is excised by index arithmetic.
  ws.prefix_.assign(buckets.size() + 1, 0);
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    ws.prefix_[b + 1] = ws.prefix_[b] + buckets[b].peers.size();
  }
  const auto client_slot = swarm.SlotOf(client.id);
  const std::uint64_t total = swarm.size();
  const std::uint64_t population = total - (client_slot ? 1 : 0);
  const std::uint64_t client_rank =
      client_slot ? ws.prefix_[client_slot->bucket] + client_slot->index : 0;
  const int take = static_cast<int>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(m), population));
  if (take <= 0) return out;

  FloydSample(population, take, rng, ws.picks_);
  out.reserve(static_cast<std::size_t>(take));
  for (std::uint64_t rank : ws.picks_) {
    if (client_slot && rank >= client_rank) ++rank;
    const auto it = std::upper_bound(ws.prefix_.begin(), ws.prefix_.end(), rank);
    const std::size_t b = static_cast<std::size_t>(it - ws.prefix_.begin()) - 1;
    out.push_back(buckets[b].peers[rank - ws.prefix_[b]].id);
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

std::vector<sim::PeerId> DelayLocalizedSelector::SelectPeers(
    const sim::PeerInfo& client, std::span<const sim::PeerInfo> candidates, int m,
    std::mt19937_64& rng) {
  struct Entry {
    sim::PeerId id;
    double rtt;
  };
  std::uniform_real_distribution<double> noise(1.0 - jitter_, 1.0 + jitter_);
  // The tracker only reveals a random subset of the swarm; the client
  // localizes within it.
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (subset_size_ > 0 && candidates.size() > static_cast<std::size_t>(subset_size_)) {
    std::shuffle(order.begin(), order.end(), rng);
    order.resize(static_cast<std::size_t>(subset_size_));
  }
  std::vector<Entry> entries;
  entries.reserve(order.size());
  for (std::size_t idx : order) {
    const auto& c = candidates[idx];
    if (c.id == client.id) continue;
    // Measured RTT: propagation between PoPs plus both endpoints' access
    // (last-mile) delay, with multiplicative measurement noise.
    const double rtt =
        (routing_.latency_ms(client.node, c.node) + 2.0 * access_ms_) * noise(rng);
    entries.push_back({c.id, rtt});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.rtt != b.rtt) return a.rtt < b.rtt;
    return a.id < b.id;
  });
  const int by_latency =
      m - static_cast<int>(std::floor(random_fraction_ * m));
  std::vector<sim::PeerId> out;
  for (const auto& e : entries) {
    if (static_cast<int>(out.size()) >= by_latency) break;
    out.push_back(e.id);
  }
  // Random remainder for piece diversity.
  std::vector<sim::PeerId> rest;
  for (std::size_t i = out.size(); i < entries.size(); ++i) rest.push_back(entries[i].id);
  std::shuffle(rest.begin(), rest.end(), rng);
  for (sim::PeerId id : rest) {
    if (static_cast<int>(out.size()) >= m) break;
    out.push_back(id);
  }
  return out;
}

void P4PSelector::RegisterITracker(std::int32_t as_number, const ITracker* tracker) {
  if (tracker == nullptr) {
    throw std::invalid_argument("P4PSelector: null tracker");
  }
  trackers_[as_number] = tracker;
}

void P4PSelector::SetMatchingWeights(std::int32_t as_number,
                                     std::vector<std::vector<double>> weights) {
  matching_weights_[as_number] = std::move(weights);
}

void P4PSelector::ClearMatchingWeights(std::int32_t as_number) {
  matching_weights_.erase(as_number);
}

std::vector<sim::PeerId> P4PSelector::SelectPeers(
    const sim::PeerInfo& client, std::span<const sim::PeerInfo> candidates, int m,
    std::mt19937_64& rng) {
  return SelectFromSpan(*this, client, candidates, m, rng);
}

std::vector<sim::PeerId> P4PSelector::SelectFromBuckets(
    const sim::PeerInfo& client, const sim::PeerBuckets& swarm, int m,
    std::mt19937_64& rng) {
  return SelectWithWorkspace(client, swarm, m, rng, ThreadWorkspace());
}

std::vector<sim::PeerId> P4PSelector::SelectWithWorkspace(
    const sim::PeerInfo& client, const sim::PeerBuckets& swarm, int m,
    std::mt19937_64& rng, SelectionWorkspace& ws) {
  std::vector<sim::PeerId> out;
  if (m <= 0 || swarm.empty()) return out;
  const auto tracker_it = trackers_.find(client.as_number);
  if (tracker_it == trackers_.end()) {
    // No view for this AS: degrade gracefully to random selection.
    NativeRandomSelector fallback;
    return fallback.SelectFromBuckets(client, swarm, m, rng);
  }
  const ITracker& tracker = *tracker_it->second;
  const Pid my_pid = client.node;  // PoP-level aggregation: PID == node id

  // One snapshot load per selection: every stage reads the client's row of
  // the same price version instead of paying a load per pdistance() call.
  const auto snap = tracker.snapshot();
  std::span<const double> my_row;
  if (my_pid >= 0 && my_pid < snap->view.size()) my_row = snap->view.row(my_pid);
  // ITracker::pdistance(my_pid, j), read from the row. Invalid PIDs and +inf
  // entries go through pdistance() itself, so the errors stay exactly its
  // own (std::out_of_range; std::runtime_error for an unreachable pair);
  // when it does not throw, the row's +inf is the answer.
  const auto pdist = [&](Pid j) {
    const auto col = static_cast<std::size_t>(j);
    if (j >= 0 && col < my_row.size() && std::isfinite(my_row[col])) return my_row[col];
    (void)tracker.pdistance(my_pid, j);
    return my_row[col];
  };

  const auto& buckets = swarm.buckets();
  const auto client_slot = swarm.SlotOf(client.id);
  const std::uint32_t client_bucket =
      client_slot ? client_slot->bucket : sim::PeerBuckets::npos;
  const std::uint32_t my_bucket = swarm.BucketOf(client.as_number, my_pid);
  const auto same_as = swarm.AsGroup(client.as_number);

  // Stages only record how many peers each bucket contributes; concrete
  // slots are materialized once at the end. Choosing counts first and then
  // sampling that many distinct slots per bucket is distributionally
  // identical to the removal-based span path, without mutating or copying
  // any candidate state.
  ws.take_.assign(buckets.size(), 0);
  const auto avail = [&](std::uint32_t b) {
    return static_cast<int>(buckets[b].peers.size()) -
           (b == client_bucket ? 1 : 0) - ws.take_[b];
  };

  int selected = 0;

  // --- Stage 1: intra-PID ---
  double intra_bound = config_.upper_bound_intra_pid;
  {
    // "The bound will be set to a lower value if the network p-distance
    // within PID-i is relatively higher than outside the PID."
    double min_outside = std::numeric_limits<double>::infinity();
    for (std::uint32_t b : same_as) {
      if (b == my_bucket || avail(b) <= 0) continue;
      min_outside = std::min(min_outside, pdist(buckets[b].pid));
    }
    if (std::isfinite(min_outside) && pdist(my_pid) > min_outside) {
      intra_bound *= 0.5;
    }
  }
  const int intra_quota = static_cast<int>(std::floor(intra_bound * m));
  if (my_bucket != sim::PeerBuckets::npos) {
    const int take = std::min(intra_quota, avail(my_bucket));
    if (take > 0) {
      ws.take_[my_bucket] += take;
      selected += take;
    }
  }

  // Weighted PID sampling shared by stages 2 and 3: weight per bucket, then
  // uniform picks inside the bucket. `same_as_stage` walks the client-AS
  // group (minus the client's own bucket); otherwise every other-AS bucket.
  const auto weighted_fill = [&](bool same_as_stage,
                                 const std::vector<std::vector<double>>* match_w,
                                 int quota) {
    if (quota <= 0) return;
    ws.entry_bucket_.clear();
    ws.entry_avail_.clear();
    const auto consider = [&](std::uint32_t b) {
      const int a = avail(b);
      if (a <= 0) return;
      ws.entry_bucket_.push_back(b);
      ws.entry_avail_.push_back(a);
    };
    if (same_as_stage) {
      for (std::uint32_t b : same_as) {
        if (b != my_bucket) consider(b);
      }
    } else {
      for (std::uint32_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b].as_number != client.as_number) consider(b);
      }
    }
    if (ws.entry_bucket_.empty()) return;
    // Zero-distance PIDs are weighted relative to the smallest positive
    // distance so they always dominate, regardless of the dual price scale.
    // Each entry's distance is read once, here, and reused by the weights.
    ws.entry_pdist_.clear();
    double min_positive = std::numeric_limits<double>::infinity();
    for (std::uint32_t b : ws.entry_bucket_) {
      const double p = pdist(buckets[b].pid);
      ws.entry_pdist_.push_back(p);
      if (p > 0) min_positive = std::min(min_positive, p);
    }
    const double zero_weight = std::isfinite(min_positive)
                                   ? config_.zero_distance_factor / min_positive
                                   : 1.0;
    // First pass honors the matching weights when present; if the matched
    // PIDs have no available candidates (LP solutions are sparse), fall back
    // to plain 1/p weighting so the quota can still be met inside the AS.
    ws.entry_weight_.assign(ws.entry_bucket_.size(), 0.0);
    bool any = false;
    for (const bool use_match : {match_w != nullptr, false}) {
      any = false;
      for (std::size_t i = 0; i < ws.entry_bucket_.size(); ++i) {
        const Pid pid = buckets[ws.entry_bucket_[i]].pid;
        double w = 0.0;
        if (use_match && my_pid < static_cast<Pid>(match_w->size()) &&
            pid < static_cast<Pid>((*match_w)[static_cast<std::size_t>(my_pid)].size())) {
          w = (*match_w)[static_cast<std::size_t>(my_pid)][static_cast<std::size_t>(pid)];
        } else {
          const double p = ws.entry_pdist_[i];
          w = p > 0 ? 1.0 / p : zero_weight;
        }
        ws.entry_weight_[i] = w > 0 ? w : 0.0;
        any = any || w > 0;
      }
      if (any) break;
    }
    if (!any) return;
    // Normalize and apply the concave robustness transform.
    double sum = std::accumulate(ws.entry_weight_.begin(), ws.entry_weight_.end(), 0.0);
    for (double& w : ws.entry_weight_) {
      if (w > 0) w = std::pow(w / sum, config_.concave_gamma);
    }
    double wsum = std::accumulate(ws.entry_weight_.begin(), ws.entry_weight_.end(), 0.0);

    int taken = 0;
    while (taken < quota && wsum > 0) {
      std::uniform_real_distribution<double> pick(0.0, wsum);
      double r = pick(rng);
      std::size_t k = ws.entry_bucket_.size();
      for (std::size_t i = 0; i < ws.entry_weight_.size(); ++i) {
        if (ws.entry_weight_[i] <= 0) continue;
        k = i;  // last positive entry wins if accumulation drifts past wsum
        r -= ws.entry_weight_[i];
        if (r <= 0) break;
      }
      if (k == ws.entry_bucket_.size()) break;
      ++ws.take_[ws.entry_bucket_[k]];
      ++taken;
      ++selected;
      if (--ws.entry_avail_[k] == 0) {
        wsum -= ws.entry_weight_[k];
        ws.entry_weight_[k] = 0.0;
      }
    }
  };

  // --- Stage 2: inter-PID within the AS ---
  const int inter_total =
      static_cast<int>(std::floor(config_.upper_bound_inter_pid * m));
  const auto mw_it = matching_weights_.find(client.as_number);
  const std::vector<std::vector<double>>* match_w =
      mw_it == matching_weights_.end() ? nullptr : &mw_it->second;
  weighted_fill(/*same_as_stage=*/true, match_w, inter_total - selected);

  // --- Stage 3: inter-AS ---
  weighted_fill(/*same_as_stage=*/false, nullptr, m - selected);

  // If still short (single-AS swarms, tiny swarms), backfill — but keep
  // honoring the p-distance weights within the AS before falling back to
  // uniform picks from whatever remains (intra-PID + other-AS leftovers).
  if (selected < m) {
    weighted_fill(/*same_as_stage=*/true, match_w, m - selected);
  }
  if (selected < m) {
    ws.entry_bucket_.clear();
    ws.entry_avail_.clear();
    if (my_bucket != sim::PeerBuckets::npos && avail(my_bucket) > 0) {
      ws.entry_bucket_.push_back(my_bucket);
      ws.entry_avail_.push_back(avail(my_bucket));
    }
    for (std::uint32_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b].as_number == client.as_number) continue;
      const int a = avail(b);
      if (a > 0) {
        ws.entry_bucket_.push_back(b);
        ws.entry_avail_.push_back(a);
      }
    }
    ws.prefix_.assign(ws.entry_bucket_.size() + 1, 0);
    for (std::size_t i = 0; i < ws.entry_bucket_.size(); ++i) {
      ws.prefix_[i + 1] = ws.prefix_[i] + static_cast<std::size_t>(ws.entry_avail_[i]);
    }
    const std::uint64_t leftover = ws.prefix_.back();
    const int want = static_cast<int>(std::min<std::uint64_t>(
        leftover, static_cast<std::uint64_t>(m - selected)));
    FloydSample(leftover, want, rng, ws.picks_);
    for (std::uint64_t rank : ws.picks_) {
      const auto it = std::upper_bound(ws.prefix_.begin(), ws.prefix_.end(), rank);
      const std::size_t i = static_cast<std::size_t>(it - ws.prefix_.begin()) - 1;
      ++ws.take_[ws.entry_bucket_[i]];
      ++selected;
    }
  }

  // Materialize: sample the recorded number of distinct slots per bucket,
  // skipping the client's own slot.
  out.reserve(static_cast<std::size_t>(selected));
  for (std::uint32_t b = 0; b < buckets.size(); ++b) {
    const int k = ws.take_[b];
    if (k <= 0) continue;
    const auto& peers = buckets[b].peers;
    const bool has_client = b == client_bucket;
    const std::uint64_t skip = has_client ? client_slot->index : 0;
    FloydSample(peers.size() - (has_client ? 1 : 0), k, rng, ws.picks_);
    for (std::uint64_t rank : ws.picks_) {
      if (has_client && rank >= skip) ++rank;
      out.push_back(peers[rank].id);
    }
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

}  // namespace p4p::core
