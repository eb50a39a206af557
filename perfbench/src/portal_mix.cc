// portal_mix: the p4p-distance interface as applications use it.
//
// A 1-worker TcpServer serves ITrackerService over the 144-PID synthetic
// topology (one full view is ~166 KB). Two closed-loop client connections,
// each a CachingPortalClient whose TTL always expires (every access is a
// conditional validation) plus a PortalClient for per-PID rows, send a mix
// of 80% validations (answered NotModified) and 20% row requests. Every
// 50 ms the bench parks both clients, reprices the tracker (ITracker::Update
// with fresh link loads) and fetches the new full view through client 0:
// that fetch pays the snapshot rebuild and re-encode. Parking makes the
// rebuild land on the same request every time instead of on whichever
// client wins a race, which would make the fetch latency bimodal.
//
// Every thread of the workload (bench, server, clients) runs on one CPU.
// Spread over several CPUs, each request waits for wake-ups on other
// vCPUs, and under host steal the p50 followed the steal share (37 us at
// 8% steal, 60 us at 22%); on one CPU a request is a chain of context
// switches on a vCPU that stays busy.
//
// Operation: one client request. cpu_us_per_op is the server's CPU per
// request: process CPU minus the client threads' and the bench main
// thread's own CPU (the latter runs the reprices).
#include <sched.h>

#include <condition_variable>
#include <mutex>
#include <thread>

#include "net/routing.h"
#include "net/synth.h"
#include "proto/caching_client.h"
#include "proto/messages.h"
#include "proto/service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace p4p;

constexpr int kClients = 2;
constexpr std::int64_t kRepriceIntervalNs = 50'000'000;
constexpr double kRowShare = 0.2;
constexpr std::uint64_t kCheckEvery = 16;
constexpr int kSetupMinReps = 5;
constexpr double kSetupMinSeconds = 0.25;

/// Pins the calling thread, and so every thread it starts afterwards, to the
/// CPU it runs on now (the scheduler's pick, not CPU 0, which takes most
/// interrupts). Returns that CPU, or -1 when pinning failed.
int PinToOneCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0 || cpu >= CPU_SETSIZE) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

/// One client connection: the caching client (validations, view fetches)
/// and a plain client (rows) share one TCP connection through non-owning
/// span transports.
struct Client {
  explicit Client(std::uint16_t port) : tcp(port) {
    auto view = std::make_unique<SpanTransport>(&tcp, "transport.call");
    auto row = std::make_unique<SpanTransport>(&tcp, "transport.call");
    view_transport = view.get();
    row_transport = row.get();
    cache = std::make_unique<proto::CachingPortalClient>(
        std::move(view), [this] { return clock += 1.0; }, /*ttl_seconds=*/0.5);
    rows = std::make_unique<proto::PortalClient>(std::move(row));
  }
  proto::TcpClient tcp;
  double clock = 0.0;  // advances 1 s per access, so the 0.5 s TTL always expires
  SpanTransport* view_transport = nullptr;
  SpanTransport* row_transport = nullptr;
  std::unique_ptr<proto::CachingPortalClient> cache;
  std::unique_ptr<proto::PortalClient> rows;
  std::uint64_t held_version = 0;  // version of the view `cache` holds
};

net::Graph MakeGraph() {
  net::SynthConfig synth;
  synth.name = "bench-portal";
  synth.num_pops = 144;
  synth.num_metros = 12;
  return net::MakeSynthTopology(synth);
}

/// The construction is the timed set-up: routing, tracker, first price
/// iteration and the warmed response cache. Connect() then starts the
/// server and the client connections; it is kept out of set-up because
/// its thread start-ups and loopback handshakes stretch by several times
/// under host steal, which would drown the serving-state build.
struct World {
  explicit World(std::uint64_t seed)
      : graph(MakeGraph()), routing(graph), tracker(graph, routing), service(&tracker),
        load_rng(MixSeed(seed, 1)) {
    std::vector<double> background(graph.link_count());
    for (std::size_t l = 0; l < background.size(); ++l) {
      background[l] = 0.3 * graph.link(static_cast<net::LinkId>(l)).capacity_bps;
    }
    tracker.set_background_bps(background);
    Reprice();
    (void)service.Handle(proto::Encode(proto::GetExternalViewReq{}));  // warm the cache
  }

  void Connect() {
    server = std::make_unique<proto::TcpServer>(
        0, [this](std::span<const std::uint8_t> req) { return Serve(req); }, 1);
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<Client>(server->port()));
      (void)clients.back()->cache->GetExternalView();  // cold fetch
      clients.back()->held_version = tracker.version();
    }
  }

  /// One price iteration from fresh synthetic P4P link loads.
  void Reprice() {
    std::uniform_real_distribution<double> util(0.05, 0.6);
    std::vector<double> loads(graph.link_count());
    for (std::size_t l = 0; l < loads.size(); ++l) {
      loads[l] = util(load_rng) * graph.link(static_cast<net::LinkId>(l)).capacity_bps;
    }
    Span span("itracker.update");
    tracker.Update(loads);
  }

  /// Handler wrapper: times the service call and names the span after what
  /// the request turned out to be (no children, so it is recorded after).
  proto::SharedResponse Serve(std::span<const std::uint8_t> request) {
    Tracer& tracer = Tracer::Get();
    if (!tracer.enabled()) return service.HandleShared(request);
    const std::int64_t t0 = NowNs();
    proto::SharedResponse response = service.HandleShared(request);
    const std::int64_t t1 = NowNs();
    const char* name = "service.other";
    if (request.size() > 1 && request[1] == static_cast<std::uint8_t>(proto::MsgType::kGetPDistancesReq)) {
      name = "service.row";
    } else if (response->size() > 1 &&
               (*response)[1] == static_cast<std::uint8_t>(proto::MsgType::kNotModified)) {
      name = "service.validate";
    } else if (rebuild_pending.exchange(false)) {
      name = "service.rebuild";
    } else {
      name = "service.view";
    }
    tracer.Begin(name, t0);
    tracer.End(t1);
    return response;
  }

  net::Graph graph;
  net::RoutingTable routing;
  core::ITracker tracker;
  proto::ITrackerService service;
  std::mt19937_64 load_rng;
  std::atomic<bool> rebuild_pending{false};
  std::unique_ptr<proto::TcpServer> server;
  std::vector<std::unique_ptr<Client>> clients;
};

/// Parks the client threads so the bench can reprice between requests.
class Gate {
 public:
  void MaybePark() {
    if (!pausing_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lock(mu_);
    ++parked_;
    changed_.notify_all();
    changed_.wait(lock, [this] { return !paused_; });
    --parked_;
  }
  void PauseAll(int clients) {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = true;
    pausing_.store(true, std::memory_order_release);
    changed_.wait(lock, [&] { return parked_ == clients; });
  }
  void Resume() {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
    pausing_.store(false, std::memory_order_release);
    changed_.notify_all();
  }

 private:
  std::atomic<bool> pausing_{false};
  std::mutex mu_;
  std::condition_variable changed_;
  bool paused_ = false;
  int parked_ = 0;
};

struct ClientTally : OpCounts {
  std::vector<double> op_us;
  std::vector<double> validate_us;
  std::vector<double> row_us;
  std::int64_t cpu_ns = 0;
  std::uint64_t checked = 0;
};

struct PhaseResult : OpCounts {
  std::vector<double> op_us;
  std::vector<double> validate_us;
  std::vector<double> row_us;
  std::vector<double> reprice_us;
  std::vector<double> fetch_us;
  std::uint64_t requests = 0;
  std::uint64_t checked = 0;
  double server_cpu_ns = 0.0;
  double wall_s = 0.0;
  double steal = 0.0;
  std::uint64_t validations = 0;
  std::uint64_t fetches = 0;
};

void ClientLoop(World& w, Client& c, int index, std::uint64_t seed, Gate& gate,
                const std::atomic<bool>& stop, ClientTally& tally) {
  std::mt19937_64 rng(MixSeed(seed, 100 + static_cast<std::uint64_t>(index)));
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const int num_pids = w.tracker.num_pids();
  const bool traced = Tracer::Get().enabled();
  const std::int64_t cpu0 = ThreadCpuNs();
  std::uint64_t n = 0;
  while (true) {
    gate.MaybePark();
    if (stop.load(std::memory_order_acquire)) break;
    ++n;
    const bool row = coin(rng) < kRowShare;
    const auto pid = static_cast<core::Pid>(rng() % static_cast<std::uint64_t>(num_pids));
    const bool check = n % kCheckEvery == 0;
    SpanTransport* transport = row ? c.row_transport : c.view_transport;
    transport->set_capture(check);
    // The version cannot move while this client is unparked.
    const std::uint64_t version = w.tracker.version();
    const std::size_t validations0 = c.cache->validation_count();
    const std::size_t fetches0 = c.cache->fetch_count();
    if (traced) Tracer::Get().SetOp((static_cast<std::uint64_t>(index + 1) << 40) | n);
    ++tally.attempted;
    const std::int64_t t0 = NowNs();
    try {
      Span op("portal.request");
      if (row) {
        Span call("portal_client.row");
        (void)c.rows->GetPDistances(pid);
      } else {
        Span call("caching_client.validate");
        (void)c.cache->GetExternalView();
      }
    } catch (const std::exception& e) {
      tally.Bad(std::string("request failed: ") + e.what());
      continue;
    }
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    tally.op_us.push_back(us);
    // --- checks, outside the timed region ---
    if (row) {
      tally.row_us.push_back(us);
    } else {
      const bool expect_fetch = c.held_version != version;
      const std::size_t dv = c.cache->validation_count() - validations0;
      const std::size_t df = c.cache->fetch_count() - fetches0;
      if (expect_fetch ? (df != 1 || dv != 0) : (dv != 1 || df != 0)) {
        tally.Bad("wrong-version answer to a validation");
      }
      if (!expect_fetch) tally.validate_us.push_back(us);
      c.held_version = version;
    }
    if (check) {
      ++tally.checked;
      const auto expected = w.service.Handle(transport->last_request());
      if (expected != transport->last_response()) {
        tally.Bad("answer differs from in-process ITrackerService::Handle");
      }
    }
    transport->set_capture(false);
  }
  tally.cpu_ns = ThreadCpuNs() - cpu0;
}

PhaseResult Measure(World& w, double seconds, std::uint64_t seed) {
  PhaseResult r;
  Gate gate;
  std::atomic<bool> stop{false};
  std::vector<ClientTally> tallies(kClients);
  // Start parked, so measurement starts when every client is ready.
  std::vector<std::thread> threads;
  gate.PauseAll(0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLoop(w, *w.clients[static_cast<std::size_t>(c)], c, seed, gate, stop,
                 tallies[static_cast<std::size_t>(c)]);
    });
  }
  gate.PauseAll(kClients);
  Client& leader = *w.clients[0];
  const std::size_t validations0 = w.clients[0]->cache->validation_count() +
                                   w.clients[1]->cache->validation_count();
  const std::size_t fetches0 =
      w.clients[0]->cache->fetch_count() + w.clients[1]->cache->fetch_count();
  const auto steal0 = ReadProcStat();
  const std::int64_t pcpu0 = ProcessCpuNs();
  // The main thread's CPU (reprices, the client side of the post-reprice
  // fetches, parking) is not server work; it is subtracted with the
  // client threads' CPU.
  const std::int64_t main_cpu0 = ThreadCpuNs();
  const std::int64_t start = NowNs();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  gate.Resume();
  std::int64_t next = start + kRepriceIntervalNs;
  while (next < end) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(next - NowNs()));
    gate.PauseAll(kClients);
    const std::int64_t t0 = NowNs();
    w.Reprice();
    const std::int64_t t1 = NowNs();
    w.rebuild_pending.store(true);
    ++r.attempted;
    const std::size_t fetches_before = leader.cache->fetch_count();
    std::string error = "post-reprice fetch did not transfer the new view";
    try {
      Span op("portal.request");
      Span call("caching_client.validate");
      (void)leader.cache->GetExternalView();
    } catch (const std::exception& e) {
      error = std::string("post-reprice fetch failed: ") + e.what();
    }
    const std::int64_t t2 = NowNs();
    if (leader.cache->fetch_count() != fetches_before + 1) r.Bad(error);
    leader.held_version = w.tracker.version();
    r.reprice_us.push_back(static_cast<double>(t2 - t0) / 1e3);
    r.fetch_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    ++r.requests;
    gate.Resume();
    next += kRepriceIntervalNs;
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(std::max<std::int64_t>(0, end - NowNs())));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  std::int64_t client_cpu = ThreadCpuNs() - main_cpu0;
  r.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  const std::int64_t pcpu = ProcessCpuNs() - pcpu0;
  r.steal = StealShare(steal0, ReadProcStat());
  for (ClientTally& t : tallies) {
    client_cpu += t.cpu_ns;
    r.op_us.insert(r.op_us.end(), t.op_us.begin(), t.op_us.end());
    r.validate_us.insert(r.validate_us.end(), t.validate_us.begin(), t.validate_us.end());
    r.row_us.insert(r.row_us.end(), t.row_us.begin(), t.row_us.end());
    r.requests += t.op_us.size();
    r.Add(t);
    r.checked += t.checked;
  }
  r.server_cpu_ns = static_cast<double>(pcpu - client_cpu);
  r.validations = w.clients[0]->cache->validation_count() +
                  w.clients[1]->cache->validation_count() - validations0;
  r.fetches = w.clients[0]->cache->fetch_count() + w.clients[1]->cache->fetch_count() - fetches0;
  return r;
}

void AddPhaseFacts(const std::string& prefix, const PhaseResult& r, WorkloadResult& out) {
  out.FactSummary(prefix + "portal_p50_us", Summarize(r.op_us));
  out.FactSummary(prefix + "validate_us", Summarize(r.validate_us));
  out.FactSummary(prefix + "row_us", Summarize(r.row_us));
  out.FactSummary(prefix + "portal_view_fetch_us", Summarize(r.fetch_us));
  out.FactSummary(prefix + "reprice_us", Summarize(r.reprice_us));
  out.Fact(prefix + "requests_per_s", static_cast<double>(r.requests) / r.wall_s);
  out.Fact(prefix + "portal_cpu_us_per_req", r.server_cpu_ns / 1e3 / static_cast<double>(r.requests));
  out.Fact(prefix + "answers_checked", static_cast<double>(r.checked));
  out.Fact(prefix + "host_steal_share", r.steal);
}

}  // namespace

WorkloadResult RunPortalMix(const RunOptions& options) {
  WorkloadResult out;
  out.Fact("pinned_cpu", PinToOneCpu());
  auto setup = TimedSetups<World>(kSetupMinReps, kSetupMinSeconds,
                                 [&] { return std::make_unique<World>(options.seed); });
  const std::unique_ptr<World> world = std::move(setup.world);
  const double setup_s = setup.median_s;
  world->Connect();
  out.Fact("threads.client", kClients);
  out.Fact("connections", kClients);
  out.Fact("server_workers", 1);
  out.Fact("pids", world->tracker.num_pids());
  out.Fact("setup_reps", setup.reps);

  if (!options.trace) {
    const PhaseResult r = Measure(*world, options.seconds, options.seed);
    out.Add(r);
    AddPhaseFacts("", r, out);
    out.metrics = {
        {kSetupS, setup_s, "s"},
        {kOpP50Us, Percentile(r.op_us, 0.5), "us"},
        {kCpuUsPerOp, r.server_cpu_ns / 1e3 / static_cast<double>(r.requests), "us"},
        {kRepriceP50Us, Percentile(r.reprice_us, 0.5), "us"},
    };
    return out;
  }

  const PhaseResult base = Measure(*world, options.seconds / 2, options.seed);
  out.Add(base);
  Tracer& tracer = Tracer::Get();
  tracer.Reset();
  tracer.set_enabled(true);
  const PhaseResult r = Measure(*world, options.seconds / 2, MixSeed(options.seed, 7));
  tracer.set_enabled(false);
  out.Add(r);
  AddPhaseFacts("untraced.", base, out);
  AddPhaseFacts("traced.", r, out);

  const auto stats = tracer.Collect();
  double handler_ns = 0.0;
  for (const char* name : {"service.validate", "service.row", "service.view", "service.rebuild",
                           "service.other"}) {
    const auto it = stats.find(name);
    if (it != stats.end()) handler_ns += it->second.total_self_ns;
  }
  const auto call = stats.find("transport.call");
  const double calls = call == stats.end() ? 0.0 : static_cast<double>(call->second.count);
  const double roundtrip_self_us =
      calls > 0 ? (call->second.total_self_ns - handler_ns) / 1e3 / calls : 0.0;
  // Share of request wall time spent inside the program's client calls (the
  // rest is the bench's own bookkeeping between span boundaries).
  const auto root = stats.find("portal.request");
  double accounted = 0.0;
  if (root != stats.end() && root->second.total_ns > 0) {
    accounted = 1.0 - root->second.total_self_ns / root->second.total_ns;
  }
  const double untraced_p50 = Percentile(base.op_us, 0.5);
  const double traced_p50 = Percentile(r.op_us, 0.5);
  out.Fact("trace.overhead_op_p50_us", traced_p50 - untraced_p50);
  EmitPerLayer(
      {
          {"transport.roundtrip_self_us", roundtrip_self_us},
          {"service.validate_us", MeanSelfUs(stats, "service.validate")},
          {"service.row_us", MeanSelfUs(stats, "service.row")},
          {"service.view_us", MeanSelfUs(stats, "service.view")},
          {"service.rebuild_us", MeanSelfUs(stats, "service.rebuild")},
          {"caching_client.not_modified_ratio",
           static_cast<double>(r.validations) / static_cast<double>(r.validations + r.fetches)},
          {"itracker.update_us", MeanSelfUs(stats, "itracker.update")},
          {"trace.accounted_share", accounted},
          {"trace.overhead_pct", 100.0 * (traced_p50 - untraced_p50) / untraced_p50},
      },
      out);
  WriteTrace(options, "portal_mix", out);
  return out;
}

}  // namespace perfbench
