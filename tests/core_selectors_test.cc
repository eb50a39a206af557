#include "core/selectors.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <tuple>

#include "net/topology.h"
#include "support/span_p4p_oracle.h"

namespace p4p::core {
namespace {

std::vector<sim::PeerInfo> MakeCandidates(
    const std::vector<std::pair<net::NodeId, std::int32_t>>& placements) {
  std::vector<sim::PeerInfo> out;
  for (std::size_t i = 0; i < placements.size(); ++i) {
    sim::PeerInfo p;
    p.id = static_cast<sim::PeerId>(i);
    p.node = placements[i].first;
    p.as_number = placements[i].second;
    p.up_bps = 1e6;
    p.down_bps = 1e6;
    out.push_back(p);
  }
  return out;
}

class SelectorsTest : public ::testing::Test {
 protected:
  SelectorsTest() : graph_(net::MakeAbilene()), routing_(graph_), rng_(1234) {}

  net::Graph graph_;
  net::RoutingTable routing_;
  std::mt19937_64 rng_;
};

TEST_F(SelectorsTest, NativeReturnsDistinctPeersWithoutSelf) {
  NativeRandomSelector sel;
  auto candidates =
      MakeCandidates({{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}});
  const auto client = candidates[0];
  const auto chosen = sel.SelectPeers(client, candidates, 4, rng_);
  EXPECT_EQ(chosen.size(), 4u);
  std::set<sim::PeerId> unique(chosen.begin(), chosen.end());
  EXPECT_EQ(unique.size(), chosen.size());
  EXPECT_EQ(unique.count(client.id), 0u);
}

TEST_F(SelectorsTest, NativeHandlesSmallPools) {
  NativeRandomSelector sel;
  auto candidates = MakeCandidates({{0, 1}, {1, 1}});
  const auto chosen = sel.SelectPeers(candidates[0], candidates, 10, rng_);
  EXPECT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0], 1);
}

TEST_F(SelectorsTest, NativeIsApproximatelyUniform) {
  NativeRandomSelector sel;
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  for (int i = 0; i < 11; ++i) placements.push_back({i % 11, 1});
  auto candidates = MakeCandidates(placements);
  std::vector<int> counts(11, 0);
  for (int trial = 0; trial < 3000; ++trial) {
    for (sim::PeerId id : sel.SelectPeers(candidates[0], candidates, 3, rng_)) {
      ++counts[static_cast<std::size_t>(id)];
    }
  }
  EXPECT_EQ(counts[0], 0);  // never self
  for (int i = 1; i < 11; ++i) {
    EXPECT_GT(counts[static_cast<std::size_t>(i)], 600);
    EXPECT_LT(counts[static_cast<std::size_t>(i)], 1200);
  }
}

TEST_F(SelectorsTest, LocalizedPrefersNearby) {
  DelayLocalizedSelector sel(routing_, /*jitter=*/0.0);
  // Client in NY; candidates in NY, DC (close) and Seattle, LA (far).
  auto candidates = MakeCandidates({{net::kNewYork, 1},
                                    {net::kNewYork, 1},
                                    {net::kWashingtonDC, 1},
                                    {net::kSeattle, 1},
                                    {net::kLosAngeles, 1}});
  const auto chosen = sel.SelectPeers(candidates[0], candidates, 2, rng_);
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_EQ(chosen[0], 1);  // co-located peer first
  EXPECT_EQ(chosen[1], 2);  // then DC
}

TEST_F(SelectorsTest, LocalizedJitterStillFavorsLocalOverCoastToCoast) {
  DelayLocalizedSelector sel(routing_, /*jitter=*/0.1);
  auto candidates = MakeCandidates(
      {{net::kNewYork, 1}, {net::kWashingtonDC, 1}, {net::kSeattle, 1}});
  int dc_first = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const auto chosen = sel.SelectPeers(candidates[0], candidates, 1, rng_);
    ASSERT_EQ(chosen.size(), 1u);
    if (chosen[0] == 1) ++dc_first;
  }
  EXPECT_EQ(dc_first, 100);  // 10% jitter can't flip a 10x latency gap
}

TEST_F(SelectorsTest, P4PFallsBackToRandomWithoutTracker) {
  P4PSelector sel;
  auto candidates = MakeCandidates({{0, 1}, {1, 1}, {2, 1}});
  const auto chosen = sel.SelectPeers(candidates[0], candidates, 2, rng_);
  EXPECT_EQ(chosen.size(), 2u);
}

TEST_F(SelectorsTest, P4PRegisterRejectsNull) {
  P4PSelector sel;
  EXPECT_THROW(sel.RegisterITracker(1, nullptr), std::invalid_argument);
}

TEST_F(SelectorsTest, P4PRespectsIntraPidBound) {
  ITracker tracker(graph_, routing_);
  P4PSelectorConfig cfg;
  cfg.upper_bound_intra_pid = 0.5;
  P4PSelector sel(cfg);
  sel.RegisterITracker(1, &tracker);
  // 30 co-located candidates + 30 at another PoP.
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  for (int i = 0; i < 30; ++i) placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 30; ++i) placements.push_back({net::kChicago, 1});
  auto candidates = MakeCandidates(placements);
  for (int trial = 0; trial < 20; ++trial) {
    const auto chosen = sel.SelectPeers(candidates[0], candidates, 10, rng_);
    int local = 0;
    for (sim::PeerId id : chosen) {
      if (candidates[static_cast<std::size_t>(id)].node == net::kNewYork) ++local;
    }
    // Intra-PID quota is floor(0.5 * 10) = 5; the uniform backfill that tops
    // the set up to m (no second AS here) may add at most 2 more locals.
    EXPECT_LE(local, 7);
    EXPECT_EQ(chosen.size(), 10u);
  }
}

TEST_F(SelectorsTest, P4PPrefersLowDistancePids) {
  // Static prices: path through a specific link is expensive.
  ITrackerConfig tcfg;
  tcfg.mode = PriceMode::kStatic;
  ITracker tracker(graph_, routing_, tcfg);
  std::vector<double> prices(graph_.link_count(), 0.01);
  // Make everything toward Seattle very expensive from NY.
  for (net::LinkId e : routing_.path(net::kNewYork, net::kSeattle)) {
    prices[static_cast<std::size_t>(e)] = 10.0;
  }
  tracker.SetStaticPrices(prices);

  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  placements.push_back({net::kNewYork, 1});  // client
  for (int i = 0; i < 20; ++i) placements.push_back({net::kWashingtonDC, 1});
  for (int i = 0; i < 20; ++i) placements.push_back({net::kSeattle, 1});
  auto candidates = MakeCandidates(placements);

  int dc_total = 0;
  int sea_total = 0;
  for (int trial = 0; trial < 50; ++trial) {
    for (sim::PeerId id : sel.SelectPeers(candidates[0], candidates, 10, rng_)) {
      const auto node = candidates[static_cast<std::size_t>(id)].node;
      if (node == net::kWashingtonDC) ++dc_total;
      if (node == net::kSeattle) ++sea_total;
    }
  }
  EXPECT_GT(dc_total, 2 * sea_total);
}

TEST_F(SelectorsTest, P4PInterAsStageFillsRemainder) {
  ITracker tracker(graph_, routing_);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  // Client AS 1 has only 2 candidates; AS 2 supplies the rest.
  std::vector<std::pair<net::NodeId, std::int32_t>> placements = {
      {net::kNewYork, 1}, {net::kNewYork, 1}, {net::kChicago, 1}};
  for (int i = 0; i < 20; ++i) placements.push_back({net::kAtlanta, 2});
  auto candidates = MakeCandidates(placements);
  const auto chosen = sel.SelectPeers(candidates[0], candidates, 10, rng_);
  EXPECT_EQ(chosen.size(), 10u);
  int external = 0;
  for (sim::PeerId id : chosen) {
    if (candidates[static_cast<std::size_t>(id)].as_number == 2) ++external;
  }
  EXPECT_GE(external, 7);  // most must come from AS 2
}

TEST_F(SelectorsTest, P4PUsesMatchingWeights) {
  ITracker tracker(graph_, routing_);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  // Matching says: NY should peer only with Chicago, never Atlanta.
  std::vector<std::vector<double>> weights(
      graph_.node_count(), std::vector<double>(graph_.node_count(), 0.0));
  weights[net::kNewYork][net::kChicago] = 1.0;
  sel.SetMatchingWeights(1, weights);

  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 15; ++i) placements.push_back({net::kChicago, 1});
  for (int i = 0; i < 15; ++i) placements.push_back({net::kAtlanta, 1});
  auto candidates = MakeCandidates(placements);
  const auto chosen = sel.SelectPeers(candidates[0], candidates, 8, rng_);
  for (sim::PeerId id : chosen) {
    EXPECT_EQ(candidates[static_cast<std::size_t>(id)].node, net::kChicago);
  }
  sel.ClearMatchingWeights(1);
  // After clearing, Atlanta becomes reachable again (eventually).
  int atlanta = 0;
  for (int trial = 0; trial < 30; ++trial) {
    for (sim::PeerId id : sel.SelectPeers(candidates[0], candidates, 8, rng_)) {
      if (candidates[static_cast<std::size_t>(id)].node == net::kAtlanta) ++atlanta;
    }
  }
  EXPECT_GT(atlanta, 0);
}

TEST_F(SelectorsTest, P4PNeverReturnsSelfOrDuplicates) {
  ITracker tracker(graph_, routing_);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  for (int i = 0; i < 40; ++i) {
    placements.push_back({static_cast<net::NodeId>(i % 11), i % 3 == 0 ? 2 : 1});
  }
  auto candidates = MakeCandidates(placements);
  for (int trial = 0; trial < 30; ++trial) {
    const auto client = candidates[static_cast<std::size_t>(trial % 40)];
    const auto chosen = sel.SelectPeers(client, candidates, 12, rng_);
    std::set<sim::PeerId> unique(chosen.begin(), chosen.end());
    EXPECT_EQ(unique.size(), chosen.size());
    EXPECT_EQ(unique.count(client.id), 0u);
    EXPECT_LE(chosen.size(), 12u);
  }
}

TEST_F(SelectorsTest, SelectorNames) {
  EXPECT_EQ(NativeRandomSelector().name(), "Native");
  EXPECT_EQ(DelayLocalizedSelector(routing_).name(), "Localized");
  EXPECT_EQ(P4PSelector().name(), "P4P");
}

TEST_F(SelectorsTest, LocalizedSubsetLimitsVisibility) {
  // With a tracker-revealed subset much smaller than the swarm, even a
  // latency-ranking client must take peers beyond its own PoP.
  DelayLocalizedSelector sel(routing_, 0.0, 5.0, 0.0, /*subset=*/10);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  placements.push_back({net::kNewYork, 1});  // client
  for (int i = 0; i < 100; ++i) placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 100; ++i) placements.push_back({net::kWashingtonDC, 1});
  auto candidates = MakeCandidates(placements);
  int dc = 0;
  for (int trial = 0; trial < 50; ++trial) {
    for (sim::PeerId id : sel.SelectPeers(candidates[0], candidates, 8, rng_)) {
      if (candidates[static_cast<std::size_t>(id)].node == net::kWashingtonDC) ++dc;
    }
  }
  // A 10-peer subset of a 50/50 swarm averages ~5 NY peers; the other ~3-5
  // picks must come from DC.
  EXPECT_GT(dc, 50);
}

TEST_F(SelectorsTest, LocalizedSubsetZeroRanksEveryone) {
  DelayLocalizedSelector sel(routing_, 0.0, 5.0, 0.0, /*subset=*/0);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 30; ++i) placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 30; ++i) placements.push_back({net::kSeattle, 1});
  auto candidates = MakeCandidates(placements);
  const auto chosen = sel.SelectPeers(candidates[0], candidates, 10, rng_);
  for (sim::PeerId id : chosen) {
    EXPECT_EQ(candidates[static_cast<std::size_t>(id)].node, net::kNewYork);
  }
}

TEST_F(SelectorsTest, P4PZeroDistanceWeightScalesWithPriceMagnitude) {
  // Regression: with dual prices at ~1e-12 scale, a penalized PID must not
  // out-weigh free PIDs (1/p can exceed any fixed "large value").
  ITrackerConfig tcfg;
  tcfg.mode = PriceMode::kStatic;
  ITracker tracker(graph_, routing_, tcfg);
  std::vector<double> prices(graph_.link_count(), 0.0);
  for (net::LinkId e : routing_.path(net::kNewYork, net::kWashingtonDC)) {
    prices[static_cast<std::size_t>(e)] = 1e-12;  // tiny but positive
  }
  tracker.SetStaticPrices(prices);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);

  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 20; ++i) placements.push_back({net::kWashingtonDC, 1});
  for (int i = 0; i < 20; ++i) placements.push_back({net::kChicago, 1});
  auto candidates = MakeCandidates(placements);
  int dc = 0;
  int chi = 0;
  for (int trial = 0; trial < 60; ++trial) {
    for (sim::PeerId id : sel.SelectPeers(candidates[0], candidates, 8, rng_)) {
      const auto node = candidates[static_cast<std::size_t>(id)].node;
      if (node == net::kWashingtonDC) ++dc;
      if (node == net::kChicago) ++chi;
    }
  }
  // Chicago has p = 0 toward NY in this setup? No: Chicago path has no
  // priced link, so its distance is 0 and must dominate the penalized DC.
  EXPECT_GT(chi, dc);
}

// --- bucket-aware selection (SelectFromBuckets) ------------------------------
//
// SelectFromBuckets is the one selection algorithm of Native and P4P; the
// span entry points above run it through a bucket store built from the
// span. These tests pin its invariants (distinctness, never the client,
// full sets when the swarm allows) and stage quotas directly, and its
// locality preferences against the removal-based span oracle in
// tests/support.

sim::PeerBuckets MakeStore(std::span<const sim::PeerInfo> candidates) {
  sim::PeerBuckets store;
  for (const auto& c : candidates) store.Insert(c);
  return store;
}

TEST_F(SelectorsTest, BucketNativeMatchesSpanInvariants) {
  NativeRandomSelector sel;
  auto candidates =
      MakeCandidates({{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}});
  const auto store = MakeStore(candidates);
  // Client is a member of the store: must be excluded by slot.
  const auto chosen = sel.SelectFromBuckets(candidates[0], store, 4, rng_);
  EXPECT_EQ(chosen.size(), 4u);
  std::set<sim::PeerId> unique(chosen.begin(), chosen.end());
  EXPECT_EQ(unique.size(), chosen.size());
  EXPECT_EQ(unique.count(candidates[0].id), 0u);
  // Asking for more than available returns everyone else.
  const auto all = sel.SelectFromBuckets(candidates[0], store, 50, rng_);
  EXPECT_EQ(all.size(), 5u);
  // m <= 0 and empty swarms are no-ops.
  EXPECT_TRUE(sel.SelectFromBuckets(candidates[0], store, 0, rng_).empty());
  sim::PeerBuckets empty;
  EXPECT_TRUE(sel.SelectFromBuckets(candidates[0], empty, 4, rng_).empty());
}

TEST_F(SelectorsTest, BucketNativeIsApproximatelyUniform) {
  NativeRandomSelector sel;
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  for (int i = 0; i < 11; ++i) placements.push_back({i % 11, 1 + i % 2});
  auto candidates = MakeCandidates(placements);
  const auto store = MakeStore(candidates);
  std::vector<int> counts(11, 0);
  for (int trial = 0; trial < 3000; ++trial) {
    for (sim::PeerId id : sel.SelectFromBuckets(candidates[0], store, 3, rng_)) {
      ++counts[static_cast<std::size_t>(id)];
    }
  }
  EXPECT_EQ(counts[0], 0);  // never self
  for (int i = 1; i < 11; ++i) {
    EXPECT_GT(counts[static_cast<std::size_t>(i)], 600);
    EXPECT_LT(counts[static_cast<std::size_t>(i)], 1200);
  }
}

TEST_F(SelectorsTest, BucketP4PRespectsIntraPidBound) {
  ITracker tracker(graph_, routing_);
  P4PSelectorConfig cfg;
  cfg.upper_bound_intra_pid = 0.5;
  P4PSelector sel(cfg);
  sel.RegisterITracker(1, &tracker);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  for (int i = 0; i < 30; ++i) placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 30; ++i) placements.push_back({net::kChicago, 1});
  auto candidates = MakeCandidates(placements);
  const auto store = MakeStore(candidates);
  for (int trial = 0; trial < 20; ++trial) {
    const auto chosen = sel.SelectFromBuckets(candidates[0], store, 10, rng_);
    int local = 0;
    for (sim::PeerId id : chosen) {
      if (candidates[static_cast<std::size_t>(id)].node == net::kNewYork) ++local;
    }
    // Same bound as the span path: quota floor(0.5 * 10) = 5, plus at most
    // 2 locals from the uniform backfill.
    EXPECT_LE(local, 7);
    EXPECT_EQ(chosen.size(), 10u);
  }
}

// One parity case: a static price vector (links on `expensive_path` cost
// `expensive_price`, every other link `base_price`), optional matching
// weights, a candidate layout and the wanted set size. Candidate 0 is the
// client.
struct ParityCase {
  const char* name;
  P4PSelectorConfig config;
  double base_price;
  std::pair<net::NodeId, net::NodeId> expensive_path;
  double expensive_price;
  std::vector<std::pair<net::NodeId, net::NodeId>> matching;  // (i, j) -> 1.0
  std::vector<std::tuple<net::NodeId, std::int32_t, int>> groups;  // node, AS, count
  int m;
};

TEST_F(SelectorsTest, BucketP4PMatchesSpanPathPreferences) {
  // The production selector must draw from the same distribution as the
  // removal-based span oracle: per (AS, PID) group, the share of picks
  // agrees within 0.02 over 2000 selections per path (observed gaps are
  // below 0.005). Each PoP hosts at most one other AS: the oracle pools
  // other-AS peers by PID, while the selector weights each (AS, PID)
  // bucket, so the two differ when several other ASes share a PoP.
  P4PSelectorConfig streaming;
  streaming.concave_gamma = 1.0;
  const std::vector<ParityCase> cases = {
      // 1/p_ij weighting: everything toward Seattle is expensive.
      {"PreferLowDistance", {}, 0.01, {net::kNewYork, net::kSeattle}, 10.0, {},
       {{net::kNewYork, 1, 1}, {net::kWashingtonDC, 1, 20}, {net::kSeattle, 1, 20}},
       10},
      // Matching weights name only Chicago, which runs dry: the backfill must
      // fall back to 1/p weighting over the rest of the AS.
      {"MatchingWeightsWithFallback", {}, 0.01, {net::kNewYork, net::kDenver}, 5.0,
       {{net::kNewYork, net::kChicago}},
       {{net::kNewYork, 1, 4},
        {net::kChicago, 1, 2},
        {net::kAtlanta, 1, 15},
        {net::kDenver, 1, 10}},
       10},
      // The client AS is nearly empty: stage 3 fills the set from AS 2.
      {"InterAsFill", streaming, 0.01, {net::kNewYork, net::kHouston}, 2.0, {},
       {{net::kNewYork, 1, 2},
        {net::kChicago, 1, 1},
        {net::kAtlanta, 2, 10},
        {net::kSeattle, 2, 10},
        {net::kHouston, 2, 10}},
       10},
      // Only the path to DC is priced (at 1e-12): zero-distance Chicago must
      // be weighted relative to that price, not by a fixed constant.
      {"ZeroDistanceWeighting", {}, 0.0, {net::kNewYork, net::kWashingtonDC}, 1e-12, {},
       {{net::kNewYork, 1, 1}, {net::kWashingtonDC, 1, 20}, {net::kChicago, 1, 20}},
       8},
  };
  constexpr int kTrials = 2000;

  for (const ParityCase& pc : cases) {
    SCOPED_TRACE(pc.name);
    ITrackerConfig tcfg;
    tcfg.mode = PriceMode::kStatic;
    ITracker tracker(graph_, routing_, tcfg);
    std::vector<double> prices(graph_.link_count(), pc.base_price);
    for (net::LinkId e : routing_.path(pc.expensive_path.first, pc.expensive_path.second)) {
      prices[static_cast<std::size_t>(e)] = pc.expensive_price;
    }
    tracker.SetStaticPrices(prices);

    P4PSelector sel(pc.config);
    sel.RegisterITracker(1, &tracker);
    std::vector<std::vector<double>> weights;
    if (!pc.matching.empty()) {
      weights.assign(graph_.node_count(), std::vector<double>(graph_.node_count(), 0.0));
      for (const auto& [i, j] : pc.matching) {
        weights[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 1.0;
      }
      sel.SetMatchingWeights(1, weights);
    }

    std::vector<std::pair<net::NodeId, std::int32_t>> placements;
    for (const auto& [node, as, count] : pc.groups) {
      for (int i = 0; i < count; ++i) placements.push_back({node, as});
    }
    auto candidates = MakeCandidates(placements);
    const auto store = MakeStore(candidates);

    // Picks per (AS, PID) group, indexed like pc.groups.
    const auto group_of = [&](sim::PeerId id) {
      const auto& c = candidates[static_cast<std::size_t>(id)];
      for (std::size_t g = 0; g < pc.groups.size(); ++g) {
        if (std::get<0>(pc.groups[g]) == c.node && std::get<1>(pc.groups[g]) == c.as_number) {
          return g;
        }
      }
      ADD_FAILURE() << "candidate outside every group";
      return std::size_t{0};
    };
    std::vector<double> oracle_picks(pc.groups.size(), 0.0);
    std::vector<double> bucket_picks(pc.groups.size(), 0.0);
    double oracle_total = 0.0;
    double bucket_total = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      for (sim::PeerId id : testsupport::SpanP4POracle(
               pc.config, &tracker, weights.empty() ? nullptr : &weights, candidates[0],
               candidates, pc.m, rng_)) {
        ++oracle_picks[group_of(id)];
        ++oracle_total;
      }
      for (sim::PeerId id : sel.SelectFromBuckets(candidates[0], store, pc.m, rng_)) {
        ++bucket_picks[group_of(id)];
        ++bucket_total;
      }
    }
    EXPECT_EQ(bucket_total, oracle_total);  // both always fill the set
    for (std::size_t g = 0; g < pc.groups.size(); ++g) {
      SCOPED_TRACE(::testing::Message() << "group " << g);
      EXPECT_NEAR(bucket_picks[g] / bucket_total, oracle_picks[g] / oracle_total, 0.02);
    }
  }
}

TEST_F(SelectorsTest, BucketP4PInterAsStageFillsRemainder) {
  ITracker tracker(graph_, routing_);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements = {
      {net::kNewYork, 1}, {net::kNewYork, 1}, {net::kChicago, 1}};
  for (int i = 0; i < 20; ++i) placements.push_back({net::kAtlanta, 2});
  auto candidates = MakeCandidates(placements);
  const auto store = MakeStore(candidates);
  const auto chosen = sel.SelectFromBuckets(candidates[0], store, 10, rng_);
  EXPECT_EQ(chosen.size(), 10u);
  int external = 0;
  for (sim::PeerId id : chosen) {
    if (candidates[static_cast<std::size_t>(id)].as_number == 2) ++external;
  }
  EXPECT_GE(external, 7);
}

TEST_F(SelectorsTest, BucketP4PUsesMatchingWeights) {
  ITracker tracker(graph_, routing_);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  std::vector<std::vector<double>> weights(
      graph_.node_count(), std::vector<double>(graph_.node_count(), 0.0));
  weights[net::kNewYork][net::kChicago] = 1.0;
  sel.SetMatchingWeights(1, weights);

  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 15; ++i) placements.push_back({net::kChicago, 1});
  for (int i = 0; i < 15; ++i) placements.push_back({net::kAtlanta, 1});
  auto candidates = MakeCandidates(placements);
  const auto store = MakeStore(candidates);
  const auto chosen = sel.SelectFromBuckets(candidates[0], store, 8, rng_);
  for (sim::PeerId id : chosen) {
    EXPECT_EQ(candidates[static_cast<std::size_t>(id)].node, net::kChicago);
  }
}

TEST_F(SelectorsTest, BucketP4PFallsBackToRandomWithoutTracker) {
  P4PSelector sel;
  auto candidates = MakeCandidates({{0, 1}, {1, 1}, {2, 1}});
  const auto store = MakeStore(candidates);
  const auto chosen = sel.SelectFromBuckets(candidates[0], store, 2, rng_);
  EXPECT_EQ(chosen.size(), 2u);
}

TEST_F(SelectorsTest, BucketP4PNeverReturnsSelfOrDuplicates) {
  ITracker tracker(graph_, routing_);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  sel.RegisterITracker(2, &tracker);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  for (int i = 0; i < 40; ++i) {
    placements.push_back({static_cast<net::NodeId>(i % 11), i % 3 == 0 ? 2 : 1});
  }
  auto candidates = MakeCandidates(placements);
  const auto store = MakeStore(candidates);
  for (int trial = 0; trial < 30; ++trial) {
    const auto client = candidates[static_cast<std::size_t>(trial % 40)];
    const auto chosen = sel.SelectFromBuckets(client, store, 12, rng_);
    std::set<sim::PeerId> unique(chosen.begin(), chosen.end());
    EXPECT_EQ(unique.size(), chosen.size());
    EXPECT_EQ(unique.count(client.id), 0u);
    EXPECT_EQ(chosen.size(), 12u);  // 39 other members: always a full set
  }
}

TEST_F(SelectorsTest, BucketP4PHandlesNonMemberClient) {
  // The announce plane selects before inserting the client: the client is
  // not in the store and every member is fair game.
  ITracker tracker(graph_, routing_);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  auto candidates = MakeCandidates({{0, 1}, {0, 1}, {1, 1}});
  const auto store = MakeStore(candidates);
  sim::PeerInfo joiner;
  joiner.id = 999;
  joiner.node = 0;
  joiner.as_number = 1;
  const auto chosen = sel.SelectFromBuckets(joiner, store, 3, rng_);
  EXPECT_EQ(chosen.size(), 3u);
}

TEST_F(SelectorsTest, SpanEntryRunsBucketPath) {
  // One algorithm per policy: under equal seeds, the span entry point and
  // SelectFromBuckets on a store built in span order return the same ids.
  ITracker tracker(graph_, routing_);
  P4PSelector p4p;
  p4p.RegisterITracker(1, &tracker);
  NativeRandomSelector native;
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  for (int i = 0; i < 40; ++i) {
    placements.push_back({static_cast<net::NodeId>(i % 11), i % 3 == 0 ? 2 : 1});
  }
  auto candidates = MakeCandidates(placements);
  const auto store = MakeStore(candidates);
  for (sim::PeerSelector* sel : {static_cast<sim::PeerSelector*>(&p4p),
                                 static_cast<sim::PeerSelector*>(&native)}) {
    SCOPED_TRACE(sel->name());
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const auto& client = candidates[seed % candidates.size()];
      std::mt19937_64 span_rng(seed);
      std::mt19937_64 bucket_rng(seed);
      EXPECT_EQ(sel->SelectPeers(client, candidates, 12, span_rng),
                sel->SelectFromBuckets(client, store, 12, bucket_rng));
    }
  }
}

// Known-answer case: a fixed three-AS swarm under fixed prices and seeds.
struct KnownAnswerCase {
  const char* name;
  P4PSelectorConfig config;
  double base_price;  // every link; the NY->DC path costs 0.5 on top
  bool matching;      // AS 1 matching weights name only NY->Chicago
  std::vector<std::tuple<net::NodeId, std::int32_t, int>> groups;  // node, AS, count
  sim::PeerInfo client;
  int m;
  std::uint64_t seed;
  std::vector<sim::PeerId> expected;
};

sim::PeerInfo Joiner(sim::PeerId id, net::NodeId node, std::int32_t as) {
  sim::PeerInfo p;
  p.id = id;
  p.node = node;
  p.as_number = as;
  return p;
}

TEST_F(SelectorsTest, BucketP4PKnownAnswer) {
  // Pins the exact ids the selection draws, so a change to how it reads
  // prices must keep every RNG draw and every floating-point step. Peer ids
  // follow `groups` in order, so id 0 is the first NY peer of AS 1.
  const std::vector<std::tuple<net::NodeId, std::int32_t, int>> three_as = {
      {net::kNewYork, 1, 5},  {net::kChicago, 1, 4},    {net::kWashingtonDC, 1, 3},
      {net::kSeattle, 1, 3},  {net::kNewYork, 2, 3},    {net::kDenver, 2, 4},
      {net::kLosAngeles, 2, 3}, {net::kHouston, 3, 4},  {net::kAtlanta, 3, 3},
      {net::kKansasCity, 3, 2}};
  P4PSelectorConfig linear;
  linear.concave_gamma = 1.0;
  const std::vector<KnownAnswerCase> cases = {
      // The client's own bucket holds four other peers.
      {"MemberClient", {}, 0.01, false, three_as, Joiner(0, net::kNewYork, 1), 12, 7,
       {12, 32, 1, 4, 3, 2, 6, 8, 13, 14, 33, 17}},
      {"MemberClientOtherSeed", {}, 0.01, false, three_as, Joiner(0, net::kNewYork, 1),
       12, 8, {16, 6, 2, 12, 15, 1, 4, 7, 14, 21, 3, 13}},
      // Not yet a member: the announce plane selects before inserting.
      {"NonMemberClient", {}, 0.01, false, three_as, Joiner(999, net::kHouston, 3), 12, 7,
       {28, 32, 1, 25, 24, 23, 26, 27, 29, 30, 33, 31}},
      // Zero-distance PIDs, linear weights and matching weights with fallback.
      {"ZeroPricesWithMatching", linear, 0.0, true, three_as,
       Joiner(0, net::kNewYork, 1), 15, 7,
       {18, 15, 21, 32, 6, 16, 2, 4, 5, 8, 7, 33, 3, 1, 17}},
      // Mostly the client's own PID: the uniform backfill runs.
      {"UniformBackfill", {}, 0.01, false, {{net::kNewYork, 1, 10}, {net::kChicago, 2, 1}},
       Joiner(0, net::kNewYork, 1), 8, 7, {6, 7, 1, 8, 5, 9, 10, 3}},
  };
  for (const KnownAnswerCase& kc : cases) {
    SCOPED_TRACE(kc.name);
    ITrackerConfig tcfg;
    tcfg.mode = PriceMode::kStatic;
    ITracker tracker(graph_, routing_, tcfg);
    std::vector<double> prices(graph_.link_count(), kc.base_price);
    for (net::LinkId e : routing_.path(net::kNewYork, net::kWashingtonDC)) {
      prices[static_cast<std::size_t>(e)] += 0.5;
    }
    tracker.SetStaticPrices(prices);
    P4PSelector sel(kc.config);
    for (std::int32_t as : {1, 2, 3}) sel.RegisterITracker(as, &tracker);
    if (kc.matching) {
      std::vector<std::vector<double>> weights(
          graph_.node_count(), std::vector<double>(graph_.node_count(), 0.0));
      weights[net::kNewYork][net::kChicago] = 1.0;
      sel.SetMatchingWeights(1, weights);
    }
    std::vector<std::pair<net::NodeId, std::int32_t>> placements;
    for (const auto& [node, as, count] : kc.groups) {
      for (int i = 0; i < count; ++i) placements.push_back({node, as});
    }
    const auto candidates = MakeCandidates(placements);
    const auto store = MakeStore(candidates);
    std::mt19937_64 rng(kc.seed);
    const auto got = sel.SelectFromBuckets(kc.client, store, kc.m, rng);
    EXPECT_EQ(got, kc.expected) << ::testing::PrintToString(got);
  }
}

TEST_F(SelectorsTest, BucketP4PRejectsOutOfRangePids) {
  ITracker tracker(graph_, routing_);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  const auto candidates = MakeCandidates({{net::kNewYork, 1}, {net::kChicago, 1}});
  const auto store = MakeStore(candidates);
  // Client PID beyond the tracker's 11 PIDs.
  EXPECT_THROW(sel.SelectFromBuckets(Joiner(99, 50, 1), store, 2, rng_),
               std::out_of_range);
  // A candidate bucket at a PID beyond the tracker's range.
  const auto stray = MakeCandidates({{net::kNewYork, 1}, {50, 1}});
  EXPECT_THROW(sel.SelectFromBuckets(stray[0], MakeStore(stray), 1, rng_),
               std::out_of_range);
}

TEST_F(SelectorsTest, BucketP4PRejectsUnreachableCandidatePid) {
  // PIDs 0 and 1 are linked; PID 2 is an island. The view stores +inf for
  // 0 -> 2, and selection must raise the tracker's unreachable error.
  net::Graph graph("split");
  for (int i = 0; i < 3; ++i) graph.add_node("n" + std::to_string(i));
  graph.add_duplex_link(0, 1, 1e9);
  const net::RoutingTable routing(graph);
  ITracker tracker(graph, routing);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  const auto candidates = MakeCandidates({{0, 1}, {1, 1}, {2, 1}});
  const auto store = MakeStore(candidates);
  try {
    (void)sel.SelectFromBuckets(candidates[0], store, 2, rng_);
    ADD_FAILURE() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "ITracker: PID 2 unreachable from 0");
  }
}

TEST_F(SelectorsTest, BucketP4PInfinitelyPricedPidIsNotUnreachable) {
  // Both PIDs are reachable from PID 0, but the path to PID 2 is priced at
  // +inf: that is a zero weight, not an error.
  net::Graph graph("star");
  for (int i = 0; i < 3; ++i) graph.add_node("n" + std::to_string(i));
  const net::LinkId to_1 = graph.add_duplex_link(0, 1, 1e9);
  const net::LinkId to_2 = graph.add_duplex_link(0, 2, 1e9);
  const net::RoutingTable routing(graph);
  ITrackerConfig tcfg;
  tcfg.mode = PriceMode::kStatic;
  ITracker tracker(graph, routing, tcfg);
  std::vector<double> prices(graph.link_count(), 1.0);
  prices[static_cast<std::size_t>(to_2)] = std::numeric_limits<double>::infinity();
  tracker.SetStaticPrices(prices);
  ASSERT_EQ(tracker.pdistance(0, 2), std::numeric_limits<double>::infinity());
  ASSERT_EQ(tracker.pdistance(0, 1), prices[static_cast<std::size_t>(to_1)]);
  P4PSelector sel;
  sel.RegisterITracker(1, &tracker);
  const auto candidates = MakeCandidates({{0, 1}, {1, 1}, {1, 1}, {2, 1}, {2, 1}});
  const auto chosen = sel.SelectFromBuckets(candidates[0], MakeStore(candidates), 4, rng_);
  EXPECT_EQ(chosen.size(), 2u);
  for (sim::PeerId id : chosen) {
    EXPECT_EQ(candidates[static_cast<std::size_t>(id)].node, 1);
  }
}

TEST_F(SelectorsTest, DefaultBucketShimDelegatesToSpanPath) {
  // Selectors without a bucket-aware override (e.g. delay-localized) run
  // through the flatten shim and keep their semantics.
  DelayLocalizedSelector sel(routing_, 0.0, 5.0, 0.0, /*subset=*/0);
  std::vector<std::pair<net::NodeId, std::int32_t>> placements;
  placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 30; ++i) placements.push_back({net::kNewYork, 1});
  for (int i = 0; i < 30; ++i) placements.push_back({net::kSeattle, 1});
  auto candidates = MakeCandidates(placements);
  const auto store = MakeStore(candidates);
  const auto chosen = sel.SelectFromBuckets(candidates[0], store, 10, rng_);
  ASSERT_EQ(chosen.size(), 10u);
  for (sim::PeerId id : chosen) {
    EXPECT_EQ(candidates[static_cast<std::size_t>(id)].node, net::kNewYork);
  }
}

}  // namespace
}  // namespace p4p::core
