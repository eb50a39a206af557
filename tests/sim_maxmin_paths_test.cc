// Solve-path coverage for IncrementalMaxMin: the dense cutover and the
// incremental component path must both be bit-identical to the
// MaxMinFairRates oracle and to each other. Every rate comparison here is
// EXPECT_EQ on doubles — the contract is exact arithmetic replay, not
// tolerance.
#include "sim/maxmin_incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <random>

#include "sim/maxmin.h"

namespace p4p::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ChurnModel {
  std::vector<double> capacities;
  std::map<int, Flow> flows;  // slot -> flow
};

/// One churn step against `inc`, mirrored into `model`. Biased toward
/// many small disjoint-ish components: flows pick links from a random
/// narrow window so the incidence graph fragments.
void ChurnStep(IncrementalMaxMin& inc, ChurnModel& model, std::mt19937_64& rng) {
  const int num_links = static_cast<int>(model.capacities.size());
  std::uniform_int_distribution<int> op_dist(0, 99);
  std::uniform_real_distribution<double> cap_dist(0.5, 50.0);
  std::uniform_int_distribution<int> link_dist(0, num_links - 1);
  const int op = op_dist(rng);
  if (op < 45 || model.flows.empty()) {
    const int base = link_dist(rng);
    std::uniform_int_distribution<int> len_dist(1, 4);
    const int len = len_dist(rng);
    std::vector<int> links;
    for (int i = 0; i < len; ++i) {
      const int l = (base + i * 3) % num_links;
      if (std::find(links.begin(), links.end(), l) == links.end()) {
        links.push_back(l);
      }
    }
    double cap = kInf;
    if (op_dist(rng) < 35) cap = cap_dist(rng) * 0.2;
    const int slot = inc.AddFlow(links, cap);
    ASSERT_TRUE(model.flows.emplace(slot, Flow{links, cap}).second);
  } else if (op < 70) {
    auto it = model.flows.begin();
    std::advance(it, static_cast<long>(rng() % model.flows.size()));
    inc.RemoveFlow(it->first);
    model.flows.erase(it);
  } else if (op < 85) {
    auto it = model.flows.begin();
    std::advance(it, static_cast<long>(rng() % model.flows.size()));
    double cap = kInf;
    if (it->second.links.empty() || op_dist(rng) < 70) cap = cap_dist(rng) * 0.2;
    inc.SetRateCap(it->first, cap);
    it->second.rate_cap = cap;
  } else {
    const int l = link_dist(rng);
    const double c = cap_dist(rng);
    inc.SetCapacity(l, c);
    model.capacities[static_cast<std::size_t>(l)] = c;
  }
}

void ExpectMatchesOracle(IncrementalMaxMin& inc, const ChurnModel& model) {
  std::vector<Flow> flows;
  flows.reserve(model.flows.size());
  for (const auto& [slot, flow] : model.flows) flows.push_back(flow);
  const auto expect = MaxMinFairRates(model.capacities, flows);
  const auto rates = inc.Rates();
  std::size_t i = 0;
  for (const auto& [slot, flow] : model.flows) {
    EXPECT_EQ(rates[static_cast<std::size_t>(slot)], expect[i])
        << "slot " << slot << " diverged from oracle";
    ++i;
  }
}

/// Runs the shared churn script under one allocator configuration and
/// returns the dense rate vector snapshot after every oracle checkpoint.
std::vector<std::vector<double>> RunChurnScript(double cutover, std::uint32_t seed,
                                                bool check_oracle) {
  std::mt19937_64 rng(seed);
  ChurnModel model;
  model.capacities.assign(32, 0.0);
  std::uniform_real_distribution<double> cap_dist(0.5, 50.0);
  for (double& c : model.capacities) c = cap_dist(rng);

  IncrementalMaxMin inc(model.capacities);
  inc.SetDenseCutover(cutover);

  std::vector<std::vector<double>> snapshots;
  for (int step = 0; step < 300; ++step) {
    ChurnStep(inc, model, rng);
    if (step % 4 == 0 || step > 290) {
      if (check_oracle) {
        ExpectMatchesOracle(inc, model);
      }
      const auto rates = inc.Rates();
      snapshots.emplace_back(rates.begin(), rates.end());
    }
  }
  return snapshots;
}

TEST(MaxMinIncrementalPaths, DenseForcedBitIdenticalToOracle) {
  // Cutover 0 forces the dense path on every dirty solve.
  std::mt19937_64 rng(11);
  ChurnModel model;
  model.capacities.assign(24, 0.0);
  std::uniform_real_distribution<double> cap_dist(0.5, 50.0);
  for (double& c : model.capacities) c = cap_dist(rng);
  IncrementalMaxMin inc(model.capacities);
  inc.SetDenseCutover(0.0);
  for (int step = 0; step < 250; ++step) {
    ChurnStep(inc, model, rng);
    if (step % 3 == 0) {
      ExpectMatchesOracle(inc, model);
      // Cutover 0 forces dense whenever any live flow is dirty; the only
      // recomputes allowed to stay incremental are vacuous ones (a dirty
      // link or removed flow whose component has no live flows left).
      if (inc.last_path() == IncrementalMaxMin::SolvePath::kIncremental) {
        EXPECT_EQ(inc.last_recomputed_flows(), 0u);
      }
    }
  }
  EXPECT_GT(inc.dense_solves(), 0u);
}

TEST(MaxMinIncrementalPaths, IncrementalForcedBitIdenticalToOracle) {
  // Cutover >= 1 disables the dense path entirely.
  std::mt19937_64 rng(12);
  ChurnModel model;
  model.capacities.assign(24, 0.0);
  std::uniform_real_distribution<double> cap_dist(0.5, 50.0);
  for (double& c : model.capacities) c = cap_dist(rng);
  IncrementalMaxMin inc(model.capacities);
  inc.SetDenseCutover(2.0);
  for (int step = 0; step < 250; ++step) {
    ChurnStep(inc, model, rng);
    if (step % 3 == 0) ExpectMatchesOracle(inc, model);
  }
  EXPECT_GT(inc.incremental_solves(), 0u);
  EXPECT_EQ(inc.dense_solves(), 0u);
}

TEST(MaxMinIncrementalPaths, AdaptivePathSwitchingStaysExact) {
  // Default cutover: heavy churn bursts go dense, single-flow touches stay
  // incremental, and every switch direction lands on oracle-exact rates.
  std::mt19937_64 rng(13);
  ChurnModel model;
  model.capacities.assign(40, 0.0);
  std::uniform_real_distribution<double> cap_dist(0.5, 50.0);
  for (double& c : model.capacities) c = cap_dist(rng);
  IncrementalMaxMin inc(model.capacities);
  inc.SetDenseCutover(0.5);
  for (int round = 0; round < 40; ++round) {
    // Burst: many mutations at once (dirties a large fraction -> dense).
    for (int i = 0; i < 12; ++i) ChurnStep(inc, model, rng);
    ExpectMatchesOracle(inc, model);
    // Trickle: single mutations (small dirty set -> incremental).
    for (int i = 0; i < 3; ++i) {
      ChurnStep(inc, model, rng);
      ExpectMatchesOracle(inc, model);
    }
  }
  EXPECT_GT(inc.dense_solves(), 0u) << "burst churn never triggered cutover";
  EXPECT_GT(inc.incremental_solves(), 0u) << "trickle churn never stayed incremental";
}

TEST(MaxMinIncrementalPaths, CrossConfigBitIdentical) {
  // The same churn script under forced-dense, adaptive and
  // forced-incremental configurations must produce byte-for-byte equal
  // snapshots.
  for (std::uint32_t seed : {21u, 22u, 23u}) {
    const auto base = RunChurnScript(0.5, seed, /*check_oracle=*/true);
    const auto dense = RunChurnScript(0.0, seed, false);
    const auto incr = RunChurnScript(2.0, seed, false);
    ASSERT_EQ(base.size(), dense.size());
    ASSERT_EQ(base.size(), incr.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i], dense[i]) << "dense diverged at checkpoint " << i;
      EXPECT_EQ(base[i], incr[i]) << "incremental diverged at checkpoint " << i;
    }
  }
}

TEST(MaxMinIncrementalPaths, SetCapacityUnknownLinkThrowsInvalidArgument) {
  IncrementalMaxMin inc({1.0, 2.0});
  EXPECT_THROW(inc.SetCapacity(2, 1.0), std::invalid_argument);
  EXPECT_THROW(inc.SetCapacity(-1, 1.0), std::invalid_argument);
  EXPECT_THROW(inc.SetDenseCutover(-0.1), std::invalid_argument);
}

TEST(MaxMinIncrementalPaths, AttributionCountersAdvanceOnRecompute) {
  IncrementalMaxMin inc({10.0, 5.0});
  const std::vector<int> a = {0}, b = {1};
  inc.AddFlow(a);
  inc.AddFlow(b);
  (void)inc.Rates();
  EXPECT_GE(inc.last_gather_ns(), 0);
  EXPECT_GE(inc.last_solve_ns(), 0);
  const auto g1 = inc.total_gather_ns();
  const auto s1 = inc.total_solve_ns();
  // Clean call: attribution untouched.
  (void)inc.Rates();
  EXPECT_EQ(inc.total_gather_ns(), g1);
  EXPECT_EQ(inc.total_solve_ns(), s1);
  // Dirty call: cumulative totals only grow.
  inc.SetCapacity(0, 8.0);
  (void)inc.Rates();
  EXPECT_GE(inc.total_gather_ns(), g1);
  EXPECT_GE(inc.total_solve_ns(), s1);
  EXPECT_EQ(inc.recompute_passes(), 2u);
}

TEST(MaxMinIncrementalPaths, ManyDisjointComponentsMatchOracle) {
  // Many disjoint components (one per link pair), all re-dirtied at once:
  // the component path solves each one separately and the union must
  // equal the oracle's whole-network solve exactly.
  constexpr int kPairs = 64;
  ChurnModel model;
  for (int p = 0; p < kPairs; ++p) {
    model.capacities.push_back(10.0 + p);
    model.capacities.push_back(4.0 + 0.25 * p);
  }
  IncrementalMaxMin inc(model.capacities);
  inc.SetDenseCutover(2.0);  // keep it on the component path
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> cap_dist(0.2, 6.0);
  for (int p = 0; p < kPairs; ++p) {
    const std::vector<int> wide = {2 * p, 2 * p + 1}, narrow = {2 * p};
    const double cap = cap_dist(rng);
    model.flows.emplace(inc.AddFlow(wide), Flow{wide, kInf});
    model.flows.emplace(inc.AddFlow(narrow), Flow{narrow, kInf});
    model.flows.emplace(inc.AddFlow(wide, cap), Flow{wide, cap});
  }
  ExpectMatchesOracle(inc, model);
  for (int p = 0; p < kPairs; ++p) {
    const auto l = static_cast<std::size_t>(2 * p + 1);
    model.capacities[l] = cap_dist(rng);
    inc.SetCapacity(2 * p + 1, model.capacities[l]);
  }
  ExpectMatchesOracle(inc, model);
  EXPECT_EQ(inc.last_path(), IncrementalMaxMin::SolvePath::kIncremental);
  EXPECT_EQ(inc.last_components(), static_cast<std::size_t>(kPairs));
}

TEST(MaxMinIncrementalPaths, FragmentedChurnMatchesOracle) {
  // Forced-incremental churn over a wider, more fragmented network than
  // IncrementalForcedBitIdenticalToOracle: many small components per pass.
  std::mt19937_64 rng(31);
  ChurnModel model;
  model.capacities.assign(48, 0.0);
  std::uniform_real_distribution<double> cap_dist(0.5, 50.0);
  for (double& c : model.capacities) c = cap_dist(rng);
  IncrementalMaxMin inc(model.capacities);
  inc.SetDenseCutover(2.0);
  std::size_t max_components = 0;
  for (int step = 0; step < 300; ++step) {
    ChurnStep(inc, model, rng);
    if (step % 4 == 0) {
      ExpectMatchesOracle(inc, model);
      max_components = std::max(max_components, inc.last_components());
    }
  }
  EXPECT_EQ(inc.dense_solves(), 0u);
  EXPECT_GT(max_components, 1u) << "churn never dirtied two components at once";
}

}  // namespace
}  // namespace p4p::sim
