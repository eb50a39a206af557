#include "core/itracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <tuple>

#include "net/synth.h"
#include "net/topology.h"
#include "support/path_sum_view_oracle.h"

namespace p4p::core {
namespace {

class ITrackerTest : public ::testing::Test {
 protected:
  ITrackerTest() : graph_(net::MakeAbilene()), routing_(graph_) {}

  double SimplexSum(const ITracker& tracker) const {
    double s = 0.0;
    for (std::size_t e = 0; e < graph_.link_count(); ++e) {
      s += tracker.link_price(static_cast<net::LinkId>(e)) *
           graph_.link(static_cast<net::LinkId>(e)).capacity_bps;
    }
    return s;
  }

  std::vector<double> ZeroTraffic() const {
    return std::vector<double>(graph_.link_count(), 0.0);
  }

  net::Graph graph_;
  net::RoutingTable routing_;
};

TEST_F(ITrackerTest, SuperGradientInitializesOnSimplex) {
  ITracker tracker(graph_, routing_);
  EXPECT_NEAR(SimplexSum(tracker), 1.0, 1e-9);
  for (std::size_t e = 0; e < graph_.link_count(); ++e) {
    EXPECT_GE(tracker.link_price(static_cast<net::LinkId>(e)), 0.0);
  }
}

TEST_F(ITrackerTest, RejectsBadConfig) {
  ITrackerConfig cfg;
  cfg.step_size = -1.0;
  EXPECT_THROW(ITracker(graph_, routing_, cfg), std::invalid_argument);
  cfg = ITrackerConfig{};
  cfg.privacy_noise = 1.5;
  EXPECT_THROW(ITracker(graph_, routing_, cfg), std::invalid_argument);
}

TEST_F(ITrackerTest, PDistanceSumsLinkPricesOnPath) {
  ITracker tracker(graph_, routing_);
  std::vector<double> prices(graph_.link_count(), 0.0);
  // Price only the links on the NY -> DC path.
  double expected = 0.0;
  int idx = 1;
  for (net::LinkId e : routing_.path(net::kNewYork, net::kWashingtonDC)) {
    prices[static_cast<std::size_t>(e)] = idx * 0.5;
    expected += idx * 0.5;
    ++idx;
  }
  ITrackerConfig cfg;
  cfg.mode = PriceMode::kStatic;
  ITracker stat(graph_, routing_, cfg);
  stat.SetStaticPrices(prices);
  EXPECT_NEAR(stat.pdistance(net::kNewYork, net::kWashingtonDC), expected, 1e-12);
}

TEST_F(ITrackerTest, IntraPidDistanceConfigurable) {
  ITrackerConfig cfg;
  cfg.intra_pid_distance = 0.25;
  ITracker tracker(graph_, routing_, cfg);
  EXPECT_DOUBLE_EQ(tracker.pdistance(3, 3), 0.25);
}

TEST_F(ITrackerTest, PDistanceRangeChecked) {
  ITracker tracker(graph_, routing_);
  EXPECT_THROW(tracker.pdistance(-1, 0), std::out_of_range);
  EXPECT_THROW(tracker.pdistance(0, 99), std::out_of_range);
}

TEST_F(ITrackerTest, UpdateRaisesPriceOfHotLink) {
  ITracker tracker(graph_, routing_);
  const auto hot = static_cast<std::size_t>(
      graph_.find_link(net::kNewYork, net::kWashingtonDC));
  std::vector<double> traffic(graph_.link_count(), 1e8);
  traffic[hot] = 9e9;  // near saturation
  const double before = tracker.link_price(static_cast<net::LinkId>(hot));
  for (int i = 0; i < 10; ++i) tracker.Update(traffic);
  const double after = tracker.link_price(static_cast<net::LinkId>(hot));
  EXPECT_GT(after, before);
  // Prices remain on the dual simplex after updates.
  EXPECT_NEAR(SimplexSum(tracker), 1.0, 1e-6);
  // The hot link must now be the most expensive.
  for (std::size_t e = 0; e < graph_.link_count(); ++e) {
    EXPECT_LE(tracker.link_price(static_cast<net::LinkId>(e)), after + 1e-18);
  }
}

TEST_F(ITrackerTest, UpdateDrivesPDistanceSteering) {
  ITracker tracker(graph_, routing_);
  const auto hot_link = graph_.find_link(net::kNewYork, net::kWashingtonDC);
  std::vector<double> traffic(graph_.link_count(), 0.0);
  traffic[static_cast<std::size_t>(hot_link)] = 9.5e9;
  for (int i = 0; i < 20; ++i) tracker.Update(traffic);
  // NY->DC (via the hot link) must now cost more than NY->Chicago.
  EXPECT_GT(tracker.pdistance(net::kNewYork, net::kWashingtonDC),
            tracker.pdistance(net::kNewYork, net::kChicago));
}

TEST_F(ITrackerTest, StaticModeIgnoresUpdates) {
  ITrackerConfig cfg;
  cfg.mode = PriceMode::kStatic;
  ITracker tracker(graph_, routing_, cfg);
  std::vector<double> prices(graph_.link_count(), 0.5);
  tracker.SetStaticPrices(prices);
  std::vector<double> traffic(graph_.link_count(), 9e9);
  tracker.Update(traffic);
  for (std::size_t e = 0; e < graph_.link_count(); ++e) {
    EXPECT_DOUBLE_EQ(tracker.link_price(static_cast<net::LinkId>(e)), 0.5);
  }
}

TEST_F(ITrackerTest, OspfPricesProportionalToWeights) {
  ITrackerConfig cfg;
  cfg.mode = PriceMode::kStatic;
  ITracker tracker(graph_, routing_, cfg);
  tracker.SetPricesFromOspf();
  EXPECT_NEAR(SimplexSum(tracker), 1.0, 1e-9);
  // Longer (higher-weight) links cost more.
  const auto short_link = graph_.find_link(net::kNewYork, net::kWashingtonDC);
  const auto long_link = graph_.find_link(net::kSeattle, net::kDenver);
  EXPECT_GT(tracker.link_price(long_link), tracker.link_price(short_link));
}

TEST_F(ITrackerTest, ProtectedLinkModeOnlyMovesProtectedPrices) {
  ITrackerConfig cfg;
  cfg.mode = PriceMode::kProtectedLink;
  ITracker tracker(graph_, routing_, cfg);
  const auto protected_link = graph_.find_link(net::kWashingtonDC, net::kNewYork);
  tracker.ProtectLink(protected_link, ProtectedLinkRule{0.5, 1.0, 0.1});

  std::vector<double> traffic(graph_.link_count(), 8e9);  // util 0.8 everywhere
  tracker.Update(traffic);
  EXPECT_GT(tracker.link_price(protected_link), 0.0);
  for (std::size_t e = 0; e < graph_.link_count(); ++e) {
    if (static_cast<net::LinkId>(e) == protected_link) continue;
    EXPECT_DOUBLE_EQ(tracker.link_price(static_cast<net::LinkId>(e)), 0.0);
  }
}

TEST_F(ITrackerTest, ProtectedLinkPriceDecaysWhenClear) {
  ITrackerConfig cfg;
  cfg.mode = PriceMode::kProtectedLink;
  ITracker tracker(graph_, routing_, cfg);
  const auto link = graph_.find_link(net::kWashingtonDC, net::kNewYork);
  tracker.ProtectLink(link, ProtectedLinkRule{0.5, 1.0, 0.5});
  std::vector<double> hot(graph_.link_count(), 0.0);
  hot[static_cast<std::size_t>(link)] = 9e9;
  tracker.Update(hot);
  const double peak = tracker.link_price(link);
  ASSERT_GT(peak, 0.0);
  tracker.Update(ZeroTraffic());
  EXPECT_LT(tracker.link_price(link), peak);
}

TEST_F(ITrackerTest, BdpObjectiveIncludesLinkDistances) {
  ITrackerConfig cfg;
  cfg.objective = IspObjective::kBandwidthDistanceProduct;
  ITracker tracker(graph_, routing_, cfg);
  // With zero congestion prices, the p-distance equals the geographic route
  // distance.
  const double d = tracker.pdistance(net::kSeattle, net::kNewYork);
  EXPECT_NEAR(d, routing_.route_distance(net::kSeattle, net::kNewYork), 1.0);
}

TEST_F(ITrackerTest, BdpPricesStayNonNegativeAndReactToOverload) {
  ITrackerConfig cfg;
  cfg.objective = IspObjective::kBandwidthDistanceProduct;
  ITracker tracker(graph_, routing_, cfg);
  std::vector<double> traffic(graph_.link_count(), 0.0);
  const auto hot = graph_.find_link(net::kChicago, net::kNewYork);
  traffic[static_cast<std::size_t>(hot)] = 20e9;  // 2x overload
  const double base = tracker.pdistance(net::kChicago, net::kNewYork);
  for (int i = 0; i < 5; ++i) tracker.Update(traffic);
  EXPECT_GT(tracker.pdistance(net::kChicago, net::kNewYork), base);
  for (std::size_t e = 0; e < graph_.link_count(); ++e) {
    EXPECT_GE(tracker.link_price(static_cast<net::LinkId>(e)), 0.0);
  }
}

TEST_F(ITrackerTest, PeakBandwidthUsesRunningPeak) {
  ITrackerConfig cfg;
  cfg.objective = IspObjective::kPeakBandwidth;
  ITracker tracker(graph_, routing_, cfg);
  // Feed a peak background, then drop it; the peak must persist.
  std::vector<double> bg(graph_.link_count(), 0.0);
  const auto hot = static_cast<std::size_t>(graph_.find_link(net::kDenver, net::kKansasCity));
  bg[hot] = 9e9;
  tracker.set_background_bps(bg);
  bg[hot] = 0.0;
  tracker.set_background_bps(bg);
  // Updating with zero P4P traffic: the hot link still gets the highest
  // price because its peak background dominates.
  for (int i = 0; i < 10; ++i) tracker.Update(ZeroTraffic());
  for (std::size_t e = 0; e < graph_.link_count(); ++e) {
    EXPECT_LE(tracker.link_price(static_cast<net::LinkId>(e)),
              tracker.link_price(static_cast<net::LinkId>(hot)) + 1e-18);
  }
}

TEST_F(ITrackerTest, MluComputation) {
  ITracker tracker(graph_, routing_);
  std::vector<double> traffic(graph_.link_count(), 0.0);
  traffic[0] = 5e9;
  EXPECT_NEAR(tracker.Mlu(traffic), 0.5, 1e-12);
  std::vector<double> bg(graph_.link_count(), 0.0);
  bg[1] = 8e9;
  tracker.set_background_bps(bg);
  EXPECT_NEAR(tracker.Mlu(traffic), 0.8, 1e-12);
}

TEST_F(ITrackerTest, InterdomainPriceRisesOnViolation) {
  ITracker tracker(graph_, routing_);
  const auto inter = graph_.find_link(net::kChicago, net::kKansasCity);
  tracker.DeclareInterdomainLink(inter, 1e9);
  std::vector<double> traffic(graph_.link_count(), 0.0);
  traffic[static_cast<std::size_t>(inter)] = 3e9;  // 3x the virtual capacity
  tracker.Update(traffic);
  const double q1 = tracker.interdomain_price(inter);
  EXPECT_GT(q1, 0.0);
  tracker.Update(traffic);
  EXPECT_GT(tracker.interdomain_price(inter), q1);
}

TEST_F(ITrackerTest, InterdomainPriceDecaysWhenWithinCapacity) {
  ITracker tracker(graph_, routing_);
  const auto inter = graph_.find_link(net::kChicago, net::kKansasCity);
  tracker.DeclareInterdomainLink(inter, 1e9);
  std::vector<double> heavy(graph_.link_count(), 0.0);
  heavy[static_cast<std::size_t>(inter)] = 3e9;
  tracker.Update(heavy);
  const double peak = tracker.interdomain_price(inter);
  std::vector<double> light(graph_.link_count(), 0.0);
  light[static_cast<std::size_t>(inter)] = 1e8;
  tracker.Update(light);
  EXPECT_LT(tracker.interdomain_price(inter), peak);
  EXPECT_GE(tracker.interdomain_price(inter), 0.0);
}

TEST_F(ITrackerTest, InterdomainPriceAffectsPDistanceAcrossLink) {
  ITracker tracker(graph_, routing_);
  const auto inter = graph_.find_link(net::kChicago, net::kKansasCity);
  tracker.DeclareInterdomainLink(inter, 1e9);
  const double before = tracker.pdistance(net::kChicago, net::kKansasCity);
  std::vector<double> heavy(graph_.link_count(), 0.0);
  heavy[static_cast<std::size_t>(inter)] = 5e9;
  for (int i = 0; i < 5; ++i) tracker.Update(heavy);
  EXPECT_GT(tracker.pdistance(net::kChicago, net::kKansasCity), before);
}

TEST_F(ITrackerTest, VirtualCapacityAccessors) {
  ITracker tracker(graph_, routing_);
  const auto inter = graph_.find_link(net::kAtlanta, net::kHouston);
  EXPECT_DOUBLE_EQ(tracker.virtual_capacity(inter), 0.0);
  tracker.DeclareInterdomainLink(inter, 2e9);
  EXPECT_DOUBLE_EQ(tracker.virtual_capacity(inter), 2e9);
  tracker.set_virtual_capacity(inter, 3e9);
  EXPECT_DOUBLE_EQ(tracker.virtual_capacity(inter), 3e9);
  EXPECT_THROW(tracker.set_virtual_capacity(0, 1e9), std::invalid_argument);
  EXPECT_THROW(tracker.DeclareInterdomainLink(inter, -1.0), std::invalid_argument);
}

TEST_F(ITrackerTest, PrivacyNoiseIsDeterministicAndBounded) {
  ITrackerConfig cfg;
  cfg.privacy_noise = 0.1;
  ITracker noisy(graph_, routing_, cfg);
  ITracker clean(graph_, routing_);
  for (Pid i = 0; i < noisy.num_pids(); ++i) {
    for (Pid j = 0; j < noisy.num_pids(); ++j) {
      const double a = noisy.pdistance(i, j);
      const double b = noisy.pdistance(i, j);
      EXPECT_DOUBLE_EQ(a, b);  // consistent across queries
      const double truth = clean.pdistance(i, j);
      EXPECT_LE(std::abs(a - truth), 0.1 * truth + 1e-15);
    }
  }
}

TEST_F(ITrackerTest, ExternalViewMatchesPDistances) {
  ITracker tracker(graph_, routing_);
  const auto view = tracker.external_view();
  ASSERT_EQ(view.size(), tracker.num_pids());
  for (Pid i = 0; i < view.size(); ++i) {
    for (Pid j = 0; j < view.size(); ++j) {
      EXPECT_DOUBLE_EQ(view.at(i, j), tracker.pdistance(i, j));
    }
  }
}

TEST_F(ITrackerTest, GetPDistancesRow) {
  ITracker tracker(graph_, routing_);
  const auto row = tracker.GetPDistances(net::kChicago);
  ASSERT_EQ(row.size(), graph_.node_count());
  for (Pid j = 0; j < tracker.num_pids(); ++j) {
    EXPECT_DOUBLE_EQ(row[static_cast<std::size_t>(j)],
                     tracker.pdistance(net::kChicago, j));
  }
}

TEST_F(ITrackerTest, VersionBumpsOnMutation) {
  ITracker tracker(graph_, routing_);
  const auto v0 = tracker.version();
  tracker.Update(ZeroTraffic());
  EXPECT_GT(tracker.version(), v0);
  const auto v1 = tracker.version();
  std::vector<double> bg(graph_.link_count(), 1.0);
  tracker.set_background_bps(bg);
  EXPECT_GT(tracker.version(), v1);
}

TEST_F(ITrackerTest, UpdateRejectsWrongSize) {
  ITracker tracker(graph_, routing_);
  std::vector<double> wrong(3, 0.0);
  EXPECT_THROW(tracker.Update(wrong), std::invalid_argument);
  EXPECT_THROW(tracker.Mlu(wrong), std::invalid_argument);
  EXPECT_THROW(tracker.set_background_bps(wrong), std::invalid_argument);
}

TEST_F(ITrackerTest, MemoizedViewIsStableAcrossRepeatedQueries) {
  ITracker tracker(graph_, routing_);
  const auto first = tracker.external_view();
  // Hammer the read path; nothing mutates, so every later read must be
  // bit-identical to the first (the memo may not drift).
  for (int round = 0; round < 3; ++round) {
    const auto again = tracker.external_view();
    for (Pid i = 0; i < first.size(); ++i) {
      const auto row = tracker.GetPDistances(i);
      for (Pid j = 0; j < first.size(); ++j) {
        EXPECT_DOUBLE_EQ(again.at(i, j), first.at(i, j));
        EXPECT_DOUBLE_EQ(row[static_cast<std::size_t>(j)], first.at(i, j));
        EXPECT_DOUBLE_EQ(tracker.pdistance(i, j), first.at(i, j));
      }
    }
  }
}

TEST_F(ITrackerTest, MemoInvalidatesOnUpdate) {
  ITracker tracker(graph_, routing_);
  (void)tracker.external_view();  // warm the memo
  const auto hot = static_cast<std::size_t>(
      graph_.find_link(net::kNewYork, net::kWashingtonDC));
  std::vector<double> traffic(graph_.link_count(), 1e8);
  traffic[hot] = 9e9;
  for (int i = 0; i < 10; ++i) tracker.Update(traffic);
  // Post-update distances must equal a from-scratch sum of the new prices
  // over the routed path, i.e. the memo was rebuilt, not reused.
  for (Pid i = 0; i < tracker.num_pids(); ++i) {
    for (Pid j = 0; j < tracker.num_pids(); ++j) {
      if (i == j) continue;
      double expected = 0.0;
      for (net::LinkId e : routing_.path(i, j)) expected += tracker.link_price(e);
      EXPECT_NEAR(tracker.pdistance(i, j), expected, 1e-15);
    }
  }
}

TEST_F(ITrackerTest, MemoInvalidatesOnSetStaticPrices) {
  ITrackerConfig cfg;
  cfg.mode = PriceMode::kStatic;
  ITracker tracker(graph_, routing_, cfg);
  std::vector<double> prices(graph_.link_count(), 0.25);
  tracker.SetStaticPrices(prices);
  const double before = tracker.pdistance(net::kNewYork, net::kChicago);
  std::fill(prices.begin(), prices.end(), 0.5);
  tracker.SetStaticPrices(prices);
  EXPECT_DOUBLE_EQ(tracker.pdistance(net::kNewYork, net::kChicago), 2.0 * before);
}

TEST_F(ITrackerTest, MemoizedViewMatchesUnmemoizedRecompute) {
  // Two identical trackers driven through the same mutations must agree
  // whether queried continuously (memo reads) or only at the end (fresh
  // rebuild), for every objective.
  for (const auto objective :
       {IspObjective::kMinMlu, IspObjective::kBandwidthDistanceProduct,
        IspObjective::kPeakBandwidth}) {
    ITrackerConfig cfg;
    cfg.objective = objective;
    ITracker queried(graph_, routing_, cfg);
    ITracker quiet(graph_, routing_, cfg);
    std::vector<double> traffic(graph_.link_count(), 2e9);
    traffic[0] = 9e9;
    for (int i = 0; i < 5; ++i) {
      queried.Update(traffic);
      (void)queried.external_view();  // touch the memo between updates
      quiet.Update(traffic);
    }
    const auto a = queried.external_view();
    const auto b = quiet.external_view();
    for (Pid i = 0; i < a.size(); ++i) {
      for (Pid j = 0; j < a.size(); ++j) {
        EXPECT_DOUBLE_EQ(a.at(i, j), b.at(i, j));
      }
    }
  }
}

TEST_F(ITrackerTest, SuperGradientConvergesTowardBalancedPrices) {
  // Drive with a fixed traffic pattern; the price mass should concentrate
  // on the unique max-utilization link and stop oscillating wildly.
  ITracker tracker(graph_, routing_);
  std::vector<double> traffic(graph_.link_count(), 1e9);
  const auto hot = static_cast<std::size_t>(graph_.find_link(net::kNewYork, net::kWashingtonDC));
  traffic[hot] = 8e9;
  for (int i = 0; i < 200; ++i) tracker.Update(traffic);
  double hot_price = tracker.link_price(static_cast<net::LinkId>(hot));
  double others = 0.0;
  for (std::size_t e = 0; e < graph_.link_count(); ++e) {
    if (e != hot) others += tracker.link_price(static_cast<net::LinkId>(e));
  }
  EXPECT_GT(hot_price, others);  // dominant dual on the bottleneck
}

// The O(n^2) tree-order view build against the per-path-sum oracle: the
// totals must be bit-identical (memcmp), not merely close, because the
// serving cache diffs raw row bytes and the bench figures are pinned.

void ExpectViewMatchesPathSums(const ITracker& tracker, const net::RoutingTable& routing,
                               const std::string& label) {
  const auto view = tracker.external_view();
  const auto oracle = testsupport::PathSumView(tracker, routing);
  ASSERT_EQ(view.size(), oracle.size()) << label;
  const auto a = view.values();
  const auto b = oracle.values();
  if (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0) return;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (std::memcmp(&a[k], &b[k], sizeof(double)) != 0) {
      ADD_FAILURE() << label << ": first difference at (" << k / view.size() << ", "
                    << k % view.size() << "): " << a[k] << " vs oracle " << b[k];
      return;
    }
  }
}

/// Drives `tracker` through a few super-gradient steps under random loads
/// (every link's price moves, so every path sum is non-trivial).
void Reprice(ITracker& tracker, const net::Graph& graph, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> util(0.05, 1.2);
  std::vector<double> bg(graph.link_count());
  std::vector<double> load(graph.link_count());
  for (std::size_t e = 0; e < bg.size(); ++e) {
    const double cap = graph.link(static_cast<net::LinkId>(e)).capacity_bps;
    bg[e] = 0.3 * util(rng) * cap;
    load[e] = util(rng) * cap;
  }
  tracker.set_background_bps(bg);
  for (int k = 0; k < 3; ++k) tracker.Update(load);
}

TEST(ITrackerViewOracle, IspBMatchesPathSumsUnderEveryObjectiveAndNoise) {
  const net::Graph graph = net::MakeIspB();
  const net::RoutingTable routing(graph);
  for (const auto objective :
       {IspObjective::kMinMlu, IspObjective::kBandwidthDistanceProduct,
        IspObjective::kPeakBandwidth}) {
    for (const double noise : {0.0, 0.05}) {
      ITrackerConfig cfg;
      cfg.objective = objective;
      cfg.privacy_noise = noise;
      cfg.intra_pid_distance = 0.125;
      ITracker tracker(graph, routing, cfg);
      const std::string label = "objective " + std::to_string(static_cast<int>(objective)) +
                                " noise " + std::to_string(noise);
      ExpectViewMatchesPathSums(tracker, routing, label + " (initial)");
      Reprice(tracker, graph, 7);
      ExpectViewMatchesPathSums(tracker, routing, label);
    }
  }
}

TEST(ITrackerViewOracle, DeclaredInterdomainLinkMatchesPathSums) {
  const net::Graph graph = net::MakeIspB();
  const net::RoutingTable routing(graph);
  for (const auto objective :
       {IspObjective::kMinMlu, IspObjective::kBandwidthDistanceProduct}) {
    ITrackerConfig cfg;
    cfg.objective = objective;
    ITracker tracker(graph, routing, cfg);
    tracker.DeclareInterdomainLink(3, 1e8);
    tracker.DeclareInterdomainLink(10, 5e8);
    Reprice(tracker, graph, 11);
    ASSERT_GT(tracker.interdomain_price(3), 0.0);
    ExpectViewMatchesPathSums(tracker, routing,
                              "objective " + std::to_string(static_cast<int>(objective)));
  }
}

TEST(ITrackerViewOracle, SyntheticTopologiesMatchPathSums) {
  for (const auto& [pops, metros, international] :
       {std::tuple{20, 8, false}, std::tuple{37, 9, true}, std::tuple{144, 12, false}}) {
    net::SynthConfig synth;
    synth.num_pops = pops;
    synth.num_metros = metros;
    synth.international = international;
    synth.seed = static_cast<std::uint64_t>(pops);
    const net::Graph graph = net::MakeSynthTopology(synth);
    const net::RoutingTable routing(graph);
    ITrackerConfig cfg;
    cfg.privacy_noise = 0.02;
    ITracker tracker(graph, routing, cfg);
    Reprice(tracker, graph, static_cast<std::uint64_t>(pops));
    ExpectViewMatchesPathSums(tracker, routing, std::to_string(pops) + " PoPs");
  }
}

TEST(ITrackerViewOracle, UnreachablePairsAndEqualCostTiesMatchPathSums) {
  // a-b-c-d square with two equal-cost a->c routes (the lower link id
  // wins), a one-way e->a spur (a cannot reach e), and an isolated island.
  net::Graph g;
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  const auto c = g.add_node("c");
  const auto d = g.add_node("d");
  const auto e = g.add_node("e");
  const auto island = g.add_node("island");
  g.add_duplex_link(a, b, 1e9, 1.0, 3.0);
  g.add_duplex_link(b, c, 2e9, 1.0, 5.0);
  g.add_duplex_link(a, d, 1e9, 1.0, 7.0);
  g.add_duplex_link(d, c, 4e9, 1.0, 11.0);
  g.add_link(e, a, 1e9, 2.0, 13.0);
  const net::RoutingTable routing(g);
  ASSERT_FALSE(routing.reachable(a, e));
  ASSERT_FALSE(routing.reachable(a, island));
  ASSERT_TRUE(routing.reachable(e, c));
  for (const double noise : {0.0, 0.1}) {
    ITrackerConfig cfg;
    cfg.objective = IspObjective::kBandwidthDistanceProduct;
    cfg.privacy_noise = noise;
    ITracker tracker(g, routing, cfg);
    Reprice(tracker, g, 5);
    ExpectViewMatchesPathSums(tracker, routing, "noise " + std::to_string(noise));
    const auto view = tracker.external_view();
    EXPECT_TRUE(std::isinf(view.at(a, e)));
    EXPECT_TRUE(std::isinf(view.at(island, a)));
    EXPECT_EQ(view.at(island, island), 0.0);
  }
}

}  // namespace
}  // namespace p4p::core
