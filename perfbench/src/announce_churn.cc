// announce_churn: the appTracker's per-announce cost, three-stage P4P
// selection over bucketed swarms.
//
// An AppTracker over ISP-B (52 PIDs) x 4 ASes is prefilled with 1000
// swarms whose sizes are the quantiles of a Zipf(1.5) law capped at 500
// peers (the same multiset for every seed; the seed places the swarms, the
// peers and the churn). One announcing thread runs Announce+Depart pairs:
// it announces a new peer into a swarm picked in proportion to its size,
// then departs a random existing member, so swarm sizes stay constant.
// Every 50 ms the bench reprices the tracker (ITracker::Update); the next
// announce then selects with the new prices and pays the snapshot rebuild.
//
// Operation: one Announce. cpu_us_per_op is the thread's CPU per
// Announce+Depart pair. The 2-thread pass on disjoint swarms afterwards is
// reported as the run fact announce_churn.scaling_2t_x, not as a metric.
#include <algorithm>
#include <cmath>
#include <thread>

#include "core/apptracker.h"
#include "core/selectors.h"
#include "net/routing.h"
#include "net/synth.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace p4p;

constexpr int kAses = 4;
constexpr int kSwarms = 1000;
constexpr double kZipfAlpha = 1.5;
constexpr int kMaxSwarm = 500;
constexpr int kWant = 20;
constexpr std::int64_t kRepriceIntervalNs = 50'000'000;
constexpr int kSetupMinReps = 15;
constexpr double kSetupMinSeconds = 2.5;
constexpr double kScalingPassSeconds = 1.0;

/// Swarm sizes at the (i + 0.5) / n quantiles of the bounded Zipf law:
/// a fixed multiset, so every seed does the same amount of work.
std::vector<int> ZipfQuantileSizes(int n, double alpha, int max_size) {
  std::vector<double> cdf(static_cast<std::size_t>(max_size));
  double total = 0.0;
  for (int k = 1; k <= max_size; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), alpha);
    cdf[static_cast<std::size_t>(k - 1)] = total;
  }
  std::vector<int> sizes;
  for (int i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(n) * total;
    sizes.push_back(static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()) +
                    1);
  }
  return sizes;
}

core::PidMap MakePidMap(int num_pids) {
  core::PidMap map;
  for (int as = 1; as <= kAses; ++as) {
    for (int pid = 0; pid < num_pids; ++pid) {
      const std::string prefix = std::to_string(10 + as) + "." + std::to_string(pid) + ".0.0/16";
      map.add(*core::Prefix::Parse(prefix), {static_cast<core::Pid>(pid), as});
    }
  }
  return map;
}

struct Client {
  std::string ip;
  core::Pid pid = 0;
  std::int32_t as = 0;
};

Client RandomClient(std::mt19937_64& rng, int num_pids) {
  const std::uint64_t salt = rng();
  Client c;
  c.as = static_cast<std::int32_t>(salt % kAses) + 1;
  c.pid = static_cast<core::Pid>(salt / 7 % static_cast<std::uint64_t>(num_pids));
  c.ip = std::to_string(10 + c.as) + "." + std::to_string(c.pid) + "." +
         std::to_string(salt / 1000 % 200 + 1) + "." + std::to_string(salt / 200000 % 200 + 1);
  return c;
}

struct World {
  explicit World(std::uint64_t seed)
      : graph(net::MakeIspB()), routing(graph), tracker(graph, routing),
        load_rng(MixSeed(seed, 1)) {
    std::vector<double> background(graph.link_count());
    for (std::size_t l = 0; l < background.size(); ++l) {
      background[l] = 0.3 * graph.link(static_cast<net::LinkId>(l)).capacity_bps;
    }
    tracker.set_background_bps(background);
    Reprice();
    auto p4p = std::make_unique<core::P4PSelector>();
    for (int as = 1; as <= kAses; ++as) p4p->RegisterITracker(as, &tracker);
    app = std::make_unique<core::AppTracker>(
        std::make_unique<TracedSelector>(std::move(p4p)), MakePidMap(tracker.num_pids()),
        MixSeed(seed, 2));

    sizes = ZipfQuantileSizes(kSwarms, kZipfAlpha, kMaxSwarm);
    std::mt19937_64 rng(MixSeed(seed, 3));
    std::shuffle(sizes.begin(), sizes.end(), rng);
    members.resize(sizes.size());
    core::AnnounceRequest req;
    req.want = kWant;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      req.content_id = SwarmId(s);
      for (int i = 0; i < sizes[s]; ++i) {
        req.client_ip = RandomClient(rng, tracker.num_pids()).ip;
        members[s].push_back(app->Announce(req).assigned_id);
      }
    }
    std::uint64_t total = 0;
    for (int n : sizes) cumulative.push_back(total += static_cast<std::uint64_t>(n));
  }

  static std::string SwarmId(std::size_t s) { return "swarm-" + std::to_string(s); }

  /// A swarm picked in proportion to its size (announce load follows peers).
  std::size_t PickSwarm(std::mt19937_64& rng) const {
    const std::uint64_t r = rng() % cumulative.back();
    return static_cast<std::size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), r) - cumulative.begin());
  }

  void Reprice() {
    std::uniform_real_distribution<double> util(0.05, 0.6);
    std::vector<double> loads(graph.link_count());
    for (std::size_t l = 0; l < loads.size(); ++l) {
      loads[l] = util(load_rng) * graph.link(static_cast<net::LinkId>(l)).capacity_bps;
    }
    Span span("itracker.update");
    tracker.Update(loads);
  }

  net::Graph graph;
  net::RoutingTable routing;
  core::ITracker tracker;
  std::mt19937_64 load_rng;
  std::unique_ptr<core::AppTracker> app;
  std::vector<int> sizes;
  std::vector<std::vector<sim::PeerId>> members;  // per swarm
  std::vector<std::uint64_t> cumulative;          // prefix sums of sizes
};

struct Tally : OpCounts {
  std::vector<double> announce_us;
  std::vector<double> depart_us;
  std::vector<double> reprice_us;
  std::uint64_t pairs = 0;
  std::int64_t cpu_ns = 0;
  double wall_s = 0.0;
  double steal = 0.0;
};

/// One Announce+Depart pair on swarm `s`; returns false when it failed.
/// Checks the answer outside the timed region.
bool ChurnPair(World& w, std::size_t s, std::mt19937_64& rng, Tally& t, std::int64_t* announce_end) {
  core::AnnounceRequest req;
  req.content_id = World::SwarmId(s);
  req.want = kWant;
  const Client client = RandomClient(rng, w.tracker.num_pids());
  req.client_ip = client.ip;
  auto& log = w.members[s];
  const std::size_t pick = static_cast<std::size_t>(rng() % log.size());
  const sim::PeerId victim = log[pick];
  ++t.attempted;
  core::AnnounceResponse resp;
  bool departed = false;
  const std::int64_t t0 = NowNs();
  std::int64_t t1 = 0;
  try {
    Span op("announce.op");
    {
      Span span("apptracker.announce");
      resp = w.app->Announce(req);
    }
    t1 = NowNs();
    Span span("apptracker.depart");
    departed = w.app->Depart(req.content_id, victim);
  } catch (const std::exception& e) {
    t.Bad(std::string("announce failed: ") + e.what());
    return false;
  }
  const std::int64_t t2 = NowNs();
  *announce_end = t1;
  t.announce_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  t.depart_us.push_back(static_cast<double>(t2 - t1) / 1e3);
  log[pick] = resp.assigned_id;
  ++t.pairs;
  // --- checks ---
  if (!departed) {
    t.Bad("Depart did not find a swarm member");
    return false;
  }
  if (resp.pid != client.pid || resp.as_number != client.as) {
    t.Bad("announce resolved the client to the wrong (PID, AS)");
    return false;
  }
  if (resp.peers.size() > static_cast<std::size_t>(kWant)) {
    t.Bad("announce returned more than `want` peers");
    return false;
  }
  std::vector<sim::PeerId> peers = resp.peers;
  std::sort(peers.begin(), peers.end());
  if (std::adjacent_find(peers.begin(), peers.end()) != peers.end()) {
    t.Bad("announce returned a peer twice");
    return false;
  }
  if (std::binary_search(peers.begin(), peers.end(), resp.assigned_id)) {
    t.Bad("announce returned the client itself");
    return false;
  }
  return true;
}

Tally Measure(World& w, double seconds, std::uint64_t seed) {
  Tally t;
  std::mt19937_64 rng(seed);
  const auto steal0 = ReadProcStat();
  const std::int64_t cpu0 = ThreadCpuNs();
  const std::int64_t start = NowNs();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t next_reprice = start + kRepriceIntervalNs;
  std::int64_t now = start;
  std::uint64_t op = 0;
  const bool traced = Tracer::Get().enabled();
  while (now < end) {
    std::int64_t reprice_t0 = -1;
    if (now >= next_reprice) {
      reprice_t0 = NowNs();
      w.Reprice();
      next_reprice += kRepriceIntervalNs;
    }
    if (traced) Tracer::Get().SetOp(++op);
    std::int64_t announce_end = 0;
    if (ChurnPair(w, w.PickSwarm(rng), rng, t, &announce_end) && reprice_t0 >= 0) {
      t.reprice_us.push_back(static_cast<double>(announce_end - reprice_t0) / 1e3);
    }
    now = NowNs();
  }
  t.wall_s = static_cast<double>(now - start) / 1e9;
  t.cpu_ns = ThreadCpuNs() - cpu0;
  t.steal = StealShare(steal0, ReadProcStat());
  return t;
}

/// Runs Announce+Depart pairs for `seconds` on the swarms with
/// index % stride == lane only, with no reprices.
void LaneChurn(World& w, std::size_t lane, std::size_t stride, double seconds,
               std::uint64_t seed, Tally& t) {
  std::mt19937_64 rng(seed);
  const std::int64_t end = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t unused = 0;
  while (NowNs() < end) {
    std::size_t s = w.PickSwarm(rng);
    while (s % stride != lane) s = w.PickSwarm(rng);
    ChurnPair(w, s, rng, t, &unused);
  }
}

/// Two threads on disjoint swarms versus one: total pairs/s ratio.
double ScalingTwoThreads(World& w, std::uint64_t seed, WorkloadResult& out) {
  Tally one;
  std::int64_t t0 = NowNs();
  LaneChurn(w, 0, 2, kScalingPassSeconds, MixSeed(seed, 20), one);
  const double rate1 = static_cast<double>(one.pairs) / (static_cast<double>(NowNs() - t0) / 1e9);
  Tally lanes[2];
  t0 = NowNs();
  std::thread other([&] { LaneChurn(w, 1, 2, kScalingPassSeconds, MixSeed(seed, 22), lanes[1]); });
  LaneChurn(w, 0, 2, kScalingPassSeconds, MixSeed(seed, 21), lanes[0]);
  other.join();
  const double rate2 = static_cast<double>(lanes[0].pairs + lanes[1].pairs) /
                       (static_cast<double>(NowNs() - t0) / 1e9);
  for (const Tally* t : {&one, &lanes[0], &lanes[1]}) out.Add(*t);
  out.Fact("announce_churn.scaling_1t_pairs_per_s", rate1);
  out.Fact("announce_churn.scaling_2t_pairs_per_s", rate2);
  return rate2 / rate1;
}

void AddFacts(const std::string& prefix, const Tally& t, WorkloadResult& out) {
  out.FactSummary(prefix + "announce_p50_us", Summarize(t.announce_us));
  out.FactSummary(prefix + "depart_us", Summarize(t.depart_us));
  out.FactSummary(prefix + "reprice_us", Summarize(t.reprice_us));
  out.Fact(prefix + "announce_rps", static_cast<double>(t.pairs) / t.wall_s);
  out.Fact(prefix + "announce_cpu_us_per_op",
           static_cast<double>(t.cpu_ns) / 1e3 / static_cast<double>(t.pairs));
  out.Fact(prefix + "host_steal_share", t.steal);
}

}  // namespace

WorkloadResult RunAnnounceChurn(const RunOptions& options) {
  WorkloadResult out;
  auto setup = TimedSetups<World>(kSetupMinReps, kSetupMinSeconds,
                                 [&] { return std::make_unique<World>(options.seed); });
  const std::unique_ptr<World> world = std::move(setup.world);
  const double setup_s = setup.median_s;
  out.Fact("threads.announce", 1);
  out.Fact("threads.scaling_pass", 2);
  out.Fact("swarms", kSwarms);
  out.Fact("peers", static_cast<double>(world->cumulative.back()));
  out.Fact("largest_swarm", *std::max_element(world->sizes.begin(), world->sizes.end()));
  out.Fact("setup_reps", setup.reps);

  if (!options.trace) {
    const Tally t = Measure(*world, options.seconds, MixSeed(options.seed, 10));
    out.Add(t);
    AddFacts("", t, out);
    out.Fact("announce_churn.scaling_2t_x", ScalingTwoThreads(*world, options.seed, out));
    out.metrics = {
        {kSetupS, setup_s, "s"},
        {kOpP50Us, Percentile(t.announce_us, 0.5), "us"},
        {kCpuUsPerOp, static_cast<double>(t.cpu_ns) / 1e3 / static_cast<double>(t.pairs), "us"},
        {kRepriceP50Us, Percentile(t.reprice_us, 0.5), "us"},
    };
    return out;
  }

  const Tally base = Measure(*world, options.seconds / 2, MixSeed(options.seed, 10));
  out.Add(base);
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.set_enabled(true);
  const Tally t = Measure(*world, options.seconds / 2, MixSeed(options.seed, 11));
  tracer.set_enabled(false);
  out.Add(t);
  AddFacts("untraced.", base, out);
  AddFacts("traced.", t, out);
  const auto stats = tracer.Collect();
  const auto root = stats.find("announce.op");
  double accounted = 0.0;
  if (root != stats.end() && root->second.total_ns > 0) {
    accounted = 1.0 - root->second.total_self_ns / root->second.total_ns;
  }
  const double untraced_p50 = Percentile(base.announce_us, 0.5);
  const double traced_p50 = Percentile(t.announce_us, 0.5);
  out.Fact("trace.overhead_op_p50_us", traced_p50 - untraced_p50);
  EmitPerLayer(
      {
          {"selectors.select_us", MeanSelfUs(stats, "selectors.select")},
          {"apptracker.self_us", MeanSelfUs(stats, "apptracker.announce")},
          {"apptracker.depart_us", MeanSelfUs(stats, "apptracker.depart")},
          {"itracker.update_us", MeanSelfUs(stats, "itracker.update")},
          {"trace.accounted_share", accounted},
          {"trace.overhead_pct", 100.0 * (traced_p50 - untraced_p50) / untraced_p50},
      },
      out);
  WriteTrace(options, "announce_churn", out);
  return out;
}

}  // namespace perfbench
