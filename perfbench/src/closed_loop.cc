// closed_loop: the whole P4P interaction loop on one thread, in process.
//
// A BitTorrentSimulator swarm on ISP-B selects peers with the P4P selector
// over a kMinMlu super-gradient iTracker. At every iTracker epoch the sim's
// per-link P2P rates go LinkLoadReporter::Flush -> LinkLoadCollector ->
// PDistanceControlLoop::Tick (drain, Update, PublishOnce) -> delta or full
// push into the follower's ReplicatedSnapshotStore -> a CachingPortalClient
// on a FollowerPortalService fetches the new version. The next epoch's
// selections use the new prices. Leechers join and leave throughout each
// simulation, so the swarm stays populated; simulations run back to back
// until the measurement time is used.
//
// Operation: one epoch (sim steps plus the control plane). reprice_p50_us
// runs from the Flush until the follower's caching client holds the new
// version. Throughput is simulated peer-steps per second.
#include <algorithm>
#include <cmath>

#include "core/selectors.h"
#include "net/routing.h"
#include "net/synth.h"
#include "proto/caching_client.h"
#include "proto/federation.h"
#include "proto/service.h"
#include "proto/telemetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace p4p;

constexpr int kLeechers = 600;
constexpr int kSeeds = 8;
constexpr double kJoinWindow = 600.0;  // sim seconds
constexpr double kDwellMin = 200.0;
constexpr double kDwellMax = 400.0;
constexpr double kHorizon = 900.0;
constexpr double kEpochInterval = 10.0;
// Background utilization: kHotUplinks leaf-PoP uplinks run hot, every other
// link is cold. Min-MLU pricing then drives the cold links' prices to zero
// within the first ~130 epochs (about two simulations) and afterwards moves
// only the hot uplinks' prices. A
// leaf's uplink is on no path but its own PoP's, so each epoch changes only
// those PoPs' p-distance rows and the publisher ships deltas.
constexpr int kHotUplinks = 4;
constexpr double kHotUtilization = 0.8;
constexpr double kColdUtilization = 0.3;
constexpr int kSetupMinReps = 5;
constexpr double kSetupMinSeconds = 0.25;

core::ITrackerConfig TrackerConfig() {
  core::ITrackerConfig c;
  c.objective = core::IspObjective::kMinMlu;
  c.mode = core::PriceMode::kSuperGradient;
  return c;
}

/// The publisher/follower/telemetry stack around one iTracker.
struct World {
  World()
      : graph(net::MakeIspB()), routing(graph), tracker(graph, routing, TrackerConfig()),
        service(&tracker), publisher(&service), follower(&store), follower_service(&store),
        install_link(follower.replication_handler()), collector(graph.link_count()),
        ingest_link(collector.handler()), ingest(&ingest_link, "telemetry.ingest"),
        reporter(1, &ingest), loop(&tracker, &collector, &publisher),
        serve_link(follower_service.handler()) {
    std::vector<double> background(graph.link_count());
    int hot = 0;
    for (std::size_t l = 0; l < background.size(); ++l) {
      const net::Link& link = graph.link(static_cast<net::LinkId>(l));
      const bool leaf_uplink = graph.out_links(link.src).size() == 1;
      const bool is_hot = leaf_uplink && hot < kHotUplinks;
      hot += is_hot ? 1 : 0;
      background[l] = (is_hot ? kHotUtilization : kColdUtilization) * link.capacity_bps;
    }
    tracker.set_background_bps(background);
    tracker.RegisterVersionListener([this](std::uint64_t) { OnVersion(); });
    publisher.AddFollower("follower", 1,
                          std::make_unique<SpanTransport>(&install_link, "federation.install"));
    cache = std::make_unique<proto::CachingPortalClient>(
        std::make_unique<SpanTransport>(&serve_link, "federation.serve"),
        [this] { return clock += 1.0; }, /*ttl_seconds=*/0.5);
    publisher.PublishOnce();
    (void)cache->GetExternalView();
    auto p4p = std::make_unique<core::P4PSelector>();
    p4p->RegisterITracker(1, &tracker);
    selector = std::make_unique<TracedSelector>(std::move(p4p));
  }

  /// Version listener, called inside Update. Materializes the new snapshot
  /// here, so its cost is timed as its own span instead of hiding inside
  /// the publish. Inside a traced tick it also moves the open span from
  /// "itracker.update" to the publish that follows.
  void OnVersion() {
    const bool split = in_tick && Tracer::Get().enabled();
    if (in_tick) listener_fired = true;
    if (split) {
      Tracer::Get().End(NowNs());  // itracker.update
      Tracer::Get().Begin("itracker.snapshot_rebuild", NowNs());
    }
    (void)tracker.snapshot();
    if (split) {
      Tracer::Get().End(NowNs());
      Tracer::Get().Begin("federation.publish", NowNs());
    }
  }

  /// One control-plane round for the epoch's link rates. Returns false when
  /// a stage failed.
  bool ControlRound(std::span<const double> rates_bps) {
    bool ok = true;
    {
      Span span("telemetry.flush");
      for (std::size_t l = 0; l < rates_bps.size(); ++l) {
        reporter.Record(static_cast<std::int32_t>(l), rates_bps[l]);
      }
      ok = reporter.Flush() && ok;
    }
    const bool traced = Tracer::Get().enabled();
    in_tick = true;
    listener_fired = false;
    if (traced) {
      Tracer::Get().Begin("control.tick", NowNs());
      Tracer::Get().Begin("itracker.update", NowNs());
    }
    ok = loop.Tick() && ok;
    if (traced) {
      Tracer::Get().End(NowNs());  // federation.publish (or itracker.update)
      Tracer::Get().End(NowNs());  // control.tick
    }
    in_tick = false;
    ok = listener_fired && ok;
    {
      Span span("caching_client.refresh");
      view = &cache->GetExternalView();
    }
    return ok;
  }

  net::Graph graph;
  net::RoutingTable routing;
  core::ITracker tracker;
  proto::ITrackerService service;
  proto::SnapshotPublisher publisher;
  proto::ReplicatedSnapshotStore store;
  proto::SnapshotFollower follower;
  proto::FollowerPortalService follower_service;
  proto::InProcessTransport install_link;
  proto::LinkLoadCollector collector;
  proto::InProcessTransport ingest_link;
  SpanTransport ingest;
  proto::LinkLoadReporter reporter;
  proto::PDistanceControlLoop loop;
  proto::InProcessTransport serve_link;
  double clock = 0.0;
  std::unique_ptr<proto::CachingPortalClient> cache;
  const core::PDistanceMatrix* view = nullptr;  // the client's view after the last round
  std::unique_ptr<TracedSelector> selector;
  bool in_tick = false;
  bool listener_fired = false;
};

/// One simulation's peers: seeds present throughout, leechers joining over
/// the join window and leaving after a dwell, spread over ISP-B's PoPs.
std::vector<sim::PeerSpec> MakePeers(const net::Graph& graph, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pop(0, static_cast<int>(graph.node_count()) - 1);
  std::uniform_real_distribution<double> join(0.0, kJoinWindow);
  std::uniform_real_distribution<double> dwell(kDwellMin, kDwellMax);
  const sim::AccessRates cable = sim::RatesFor(sim::AccessClass::kCable);
  std::vector<sim::PeerSpec> peers;
  for (int i = 0; i < kSeeds + kLeechers; ++i) {
    sim::PeerSpec p;
    p.node = static_cast<net::NodeId>(pop(rng));
    p.as_number = 1;
    p.access = sim::AccessClass::kCable;
    p.down_bps = cable.down_bps;
    p.up_bps = cable.up_bps * (i < kSeeds ? 8.0 : 1.0);
    p.seed = i < kSeeds;
    if (!p.seed) {
      p.join_time = join(rng);
      p.leave_time = p.join_time + dwell(rng);
    }
    peers.push_back(p);
  }
  return peers;
}

/// Peers present during each executed step, summed: the sim processes
/// joins with join_time <= now and departures with leave_time <= now at
/// the start of the step at time now = k * dt.
double PeerSteps(const std::vector<sim::PeerSpec>& peers, int rounds, double dt) {
  double steps = 0.0;
  for (const sim::PeerSpec& p : peers) {
    const double first = std::ceil(p.join_time / dt);
    const double last = std::isfinite(p.leave_time) ? std::ceil(p.leave_time / dt) : rounds;
    steps += std::max(0.0, std::min<double>(last, rounds) - first);
  }
  return steps;
}

struct Phase : OpCounts {
  std::vector<double> epoch_us;
  std::vector<double> reprice_us;
  double peer_steps = 0.0;
  double sim_wall_s = 0.0;
  std::int64_t cpu_ns = 0;
  double steal = 0.0;
  int sims = 0;
  double maxmin_ns = 0.0;
  double gather_ns = 0.0;
  double solve_ns = 0.0;
  double dense_solves = 0.0;
  double incremental_solves = 0.0;
  std::uint64_t first_digest = 0;
};

/// Runs simulation `index` of the run with seed `seed`, timing each epoch.
/// Returns the digest of its prices and swarm results.
std::uint64_t RunSim(World& w, std::uint64_t seed, int index, Phase& ph) {
  sim::BitTorrentConfig cfg;
  cfg.file_bytes = 32.0 * 1024 * 1024;
  cfg.epoch_interval = kEpochInterval;
  cfg.horizon = kHorizon;
  cfg.rng_seed = MixSeed(seed, 1000 + static_cast<std::uint64_t>(index));
  const auto peers = MakePeers(w.graph, MixSeed(seed, 2000 + static_cast<std::uint64_t>(index)));
  sim::BitTorrentSimulator sim(w.graph, w.routing, cfg);
  Digest digest;
  Tracer& tracer = Tracer::Get();
  const bool traced = tracer.enabled();
  std::int64_t epoch_start = NowNs();
  std::uint64_t epoch = 0;
  std::int64_t check_ns = 0;  // time spent in checks, taken out of the totals
  std::int64_t check_cpu_ns = 0;
  sim.set_on_epoch([&](double, std::span<const double> rates) {
    if (traced) tracer.End(NowNs());  // sim.step
    const std::uint64_t view_version0 = w.store.current()->view_version;
    const std::int64_t t0 = NowNs();
    const std::size_t fetches0 = w.cache->fetch_count();
    const std::uint64_t fallbacks0 = w.publisher.delta_fallback_count();
    ++ph.attempted;
    bool ok = false;
    try {
      ok = w.ControlRound(rates);
    } catch (const std::exception& e) {
      ph.Bad(std::string("control round failed: ") + e.what());
    }
    const std::int64_t t1 = NowNs();
    if (traced) tracer.End(t1);  // closed_loop.epoch
    ph.epoch_us.push_back(static_cast<double>(t1 - epoch_start) / 1e3);
    ph.reprice_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    const std::int64_t check_cpu0 = ThreadCpuNs();
    // --- checks, outside the timed region ---
    if (!ok) ph.Bad("a control-plane stage did not complete (flush, tick or listener)");
    // The client refetches exactly when the view's content changed; an
    // update that leaves every p-distance as it was keeps the content
    // token, and the validation is answered NotModified.
    const auto held = w.store.current();
    const std::size_t expected_fetches = held && held->view_version != view_version0 ? 1 : 0;
    if (w.cache->fetch_count() != fetches0 + expected_fetches) {
      ph.Bad("follower client's refetch does not match the view's content change");
    }
    if (w.publisher.delta_fallback_count() != fallbacks0) {
      ph.Bad("follower refused a delta over a lossless channel");
    }
    if (!held || held->version != w.tracker.version() ||
        proto::FrameSetChecksum(*held) != proto::FrameSetChecksum(w.service.ExportFrames())) {
      ph.Bad("follower frame set differs from the publisher's export");
    }
    const auto snap = w.tracker.snapshot();
    bool same_view = w.view != nullptr && w.view->size() == snap->view.size();
    for (core::Pid i = 0; i < snap->view.size(); ++i) {
      for (core::Pid j = 0; j < snap->view.size(); ++j) {
        digest.AddDouble(snap->view.at(i, j));
        same_view = same_view && w.view->at(i, j) == snap->view.at(i, j);
      }
    }
    if (!same_view) ph.Bad("follower client's view differs from the tracker's");
    ++epoch;
    if (traced) tracer.SetOp((static_cast<std::uint64_t>(index) << 32) | epoch);
    check_cpu_ns += ThreadCpuNs() - check_cpu0;
    epoch_start = NowNs();
    check_ns += epoch_start - t1;
    if (traced) {
      tracer.Begin("closed_loop.epoch", epoch_start);
      tracer.Begin("sim.step", epoch_start);
    }
  });
  if (traced) {
    tracer.SetOp(static_cast<std::uint64_t>(index) << 32);
    tracer.Begin("closed_loop.epoch", epoch_start);
    tracer.Begin("sim.step", epoch_start);
  }
  const std::int64_t cpu0 = ThreadCpuNs();
  const std::int64_t start = NowNs();
  const sim::BitTorrentResult result = sim.Run(peers, *w.selector);
  ph.sim_wall_s += static_cast<double>(NowNs() - start - check_ns) / 1e9;
  ph.cpu_ns += ThreadCpuNs() - cpu0 - check_cpu_ns;
  if (traced) {
    tracer.Abandon();  // the trailing partial sim.step
    tracer.Abandon();  // and its epoch
  }
  ++ph.sims;
  ph.peer_steps += PeerSteps(peers, result.rounds, cfg.dt);
  ph.maxmin_ns += result.maxmin_incremental_ns;
  ph.gather_ns += result.maxmin_gather_ns;
  ph.solve_ns += result.maxmin_solve_ns;
  ph.dense_solves += static_cast<double>(result.maxmin_dense_solves);
  ph.incremental_solves += static_cast<double>(result.maxmin_incremental_solves);
  if (result.completed_fraction <= 0.0) ph.Bad("no leecher completed its download");
  digest.AddU64(static_cast<std::uint64_t>(result.rounds));
  for (double t : result.per_peer_completion) digest.AddDouble(t);
  for (double b : result.link_bytes) digest.AddDouble(b);
  return digest.value();
}

Phase Measure(World& w, double seconds, std::uint64_t seed, int first_index) {
  Phase ph;
  const auto steal0 = ReadProcStat();
  const std::int64_t end = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  // Whole simulations only: start another while at least half of the
  // average simulation's time is left.
  int index = first_index;
  do {
    const std::uint64_t d = RunSim(w, seed, index++, ph);
    if (ph.sims == 1) ph.first_digest = d;
  } while (static_cast<double>(end - NowNs()) / 1e9 > 0.5 * ph.sim_wall_s / ph.sims);
  ph.steal = StealShare(steal0, ReadProcStat());
  return ph;
}

/// Pushes to the follower so far: deltas and full sets, with their bytes.
void AddPushFacts(const proto::SnapshotPublisher& pub, WorkloadResult& out) {
  out.Fact("federation.delta_frames", static_cast<double>(pub.delta_frames_sent()));
  out.Fact("federation.full_frames", static_cast<double>(pub.full_frames_sent()));
  out.Fact("federation.delta_bytes_sent", static_cast<double>(pub.delta_bytes_sent()));
  out.Fact("federation.full_bytes_sent", static_cast<double>(pub.full_bytes_sent()));
}

void AddFacts(const std::string& prefix, const Phase& ph, WorkloadResult& out) {
  out.FactSummary(prefix + "epoch_us", Summarize(ph.epoch_us));
  out.FactSummary(prefix + "reprice_to_follower_us", Summarize(ph.reprice_us));
  out.Fact(prefix + "sim_peer_steps_per_s", ph.peer_steps / ph.sim_wall_s);
  out.Fact(prefix + "sims", ph.sims);
  out.Fact(prefix + "host_steal_share", ph.steal);
}

}  // namespace

std::uint64_t ClosedLoopReplayDigest(std::uint64_t seed) {
  World w;
  Phase ph;
  const std::uint64_t digest = RunSim(w, seed, 0, ph);
  if (ph.failed != 0) throw std::runtime_error("replay: " + ph.wrong.front());
  return digest;
}

WorkloadResult RunClosedLoop(const RunOptions& options) {
  WorkloadResult out;
  auto setup = TimedSetups<World>(kSetupMinReps, kSetupMinSeconds,
                                 [] { return std::make_unique<World>(); });
  const std::unique_ptr<World> world = std::move(setup.world);
  const double setup_s = setup.median_s;
  out.Fact("threads.sim", 1);
  out.Fact("leechers_per_sim", kLeechers);
  out.Fact("setup_reps", setup.reps);

  if (!options.trace) {
    const Phase ph = Measure(*world, options.seconds, options.seed, 0);
    out.Add(ph);
    AddFacts("", ph, out);
    // Same seed, fresh system: simulation 0 must reproduce bit for bit.
    const std::uint64_t replay = ClosedLoopReplayDigest(options.seed);
    out.FactText("closed_loop.digest", std::to_string(ph.first_digest));
    if (replay != ph.first_digest) out.Wrong("same-seed replay produced a different digest");
    AddPushFacts(world->publisher, out);
    const double epochs = static_cast<double>(ph.epoch_us.size());
    out.metrics = {
        {kSetupS, setup_s, "s"},
        {kOpP50Us, Percentile(ph.epoch_us, 0.5), "us"},
        {kCpuUsPerOp, static_cast<double>(ph.cpu_ns) / 1e3 / epochs, "us"},
        {kRepriceP50Us, Percentile(ph.reprice_us, 0.5), "us"},
    };
    return out;
  }

  const Phase base = Measure(*world, options.seconds / 2, options.seed, 0);
  out.Add(base);
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.set_enabled(true);
  const proto::SnapshotPublisher& pub = world->publisher;
  const std::uint64_t delta_bytes0 = pub.delta_bytes_sent();
  const std::uint64_t delta_frames0 = pub.delta_frames_sent();
  const std::uint64_t fallbacks0 = pub.delta_fallback_count();
  const Phase ph = Measure(*world, options.seconds / 2, options.seed, base.sims);
  tracer.set_enabled(false);
  out.Add(ph);
  AddFacts("untraced.", base, out);
  AddFacts("traced.", ph, out);

  const auto stats = tracer.Collect();
  const double epochs = static_cast<double>(ph.epoch_us.size());
  const auto step = stats.find("sim.step");
  const double step_self_ns = step == stats.end() ? 0.0 : step->second.total_self_ns;
  const auto root = stats.find("closed_loop.epoch");
  double accounted = 0.0;
  if (root != stats.end() && root->second.total_ns > 0) {
    accounted = 1.0 - root->second.total_self_ns / root->second.total_ns;
  }
  const std::uint64_t delta_frames = pub.delta_frames_sent() - delta_frames0;
  const double untraced_p50 = Percentile(base.epoch_us, 0.5);
  const double traced_p50 = Percentile(ph.epoch_us, 0.5);
  out.Fact("trace.overhead_op_p50_us", traced_p50 - untraced_p50);
  AddPushFacts(pub, out);
  EmitPerLayer(
      {
          {"sim.step_self_ms", (step_self_ns - ph.maxmin_ns) / 1e6 / epochs},
          {"maxmin.gather_ms", ph.gather_ns / 1e6 / epochs},
          {"maxmin.solve_ms", ph.solve_ns / 1e6 / epochs},
          {"maxmin.dense_solves", ph.dense_solves / epochs},
          {"maxmin.incremental_solves", ph.incremental_solves / epochs},
          {"selectors.select_us", MeanSelfUs(stats, "selectors.select")},
          {"telemetry.flush_us", MeanSelfUs(stats, "telemetry.flush")},
          {"telemetry.ingest_us", MeanSelfUs(stats, "telemetry.ingest")},
          {"itracker.update_us", MeanSelfUs(stats, "itracker.update")},
          {"itracker.snapshot_rebuild_us", MeanSelfUs(stats, "itracker.snapshot_rebuild")},
          {"federation.publish_us", MeanSelfUs(stats, "federation.publish")},
          {"federation.install_us", MeanSelfUs(stats, "federation.install")},
          {"federation.serve_us", MeanSelfUs(stats, "federation.serve")},
          {"federation.delta_bytes",
           delta_frames > 0
               ? static_cast<double>(pub.delta_bytes_sent() - delta_bytes0) /
                     static_cast<double>(delta_frames)
               : 0.0},
          {"federation.full_fallbacks", static_cast<double>(pub.delta_fallback_count() - fallbacks0)},
          {"caching_client.refresh_us", MeanSelfUs(stats, "caching_client.refresh")},
          {"trace.accounted_share", accounted},
          {"trace.overhead_pct", 100.0 * (traced_p50 - untraced_p50) / untraced_p50},
      },
      out);
  WriteTrace(options, "closed_loop", out);
  return out;
}

}  // namespace perfbench
