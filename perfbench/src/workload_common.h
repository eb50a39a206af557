// Shared pieces of the three workloads: run options, the result each
// workload hands back to main, and the bench-side wrappers that time calls
// into the program (a span-recording transport and a selector decorator).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "proto/transport.h"
#include "sim/bittorrent.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into ("" = don't write).
  std::string trace_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations attempted and failed, with the first few wrong answers the
/// correctness checks found (any wrong answer fails the run).
struct OpCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> wrong;

  /// A failed operation.
  void Bad(std::string what) {
    ++failed;
    Wrong(std::move(what));
  }
  /// A wrong answer that is not an operation (e.g. a replay mismatch).
  void Wrong(std::string what) {
    if (wrong.size() < 16) wrong.push_back(std::move(what));
  }
  void Add(const OpCounts& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const auto& w : other.wrong) Wrong(w);
  }
};

struct WorkloadResult : OpCounts {
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Run facts: name -> already-rendered JSON value.
  std::vector<std::pair<std::string, std::string>> facts;

  void Fact(const std::string& name, double v) { facts.emplace_back(name, JsonNumber(v)); }
  void FactText(const std::string& name, const std::string& v) {
    facts.emplace_back(name, JsonString(v));
  }
  /// p50, p99 and sample count of one timing series, as facts.
  void FactSummary(const std::string& name, const Summary& s) {
    Fact(name + ".p50", s.p50);
    Fact(name + ".p99", s.p99);
    Fact(name + ".n", static_cast<double>(s.n));
  }
};

// End-to-end metric names shared by every workload. Each workload defines
// what its operation and its reprice path are (see perfbench/README.md).
inline constexpr const char* kSetupS = "setup_s";
inline constexpr const char* kOpP50Us = "op_p50_us";
inline constexpr const char* kCpuUsPerOp = "cpu_us_per_op";
inline constexpr const char* kRepriceP50Us = "reprice_p50_us";

/// The world a workload measures, with its median build time.
template <class World>
struct SetupResult {
  std::unique_ptr<World> world;
  double median_s = 0.0;
  int reps = 0;
};

/// Builds the world repeatedly (each build replaces the previous one), at
/// least `min_reps` times and until `min_total_s` seconds of building have
/// passed, and returns the last one. Cheap set-ups are repeated many times
/// so that their median is steady.
template <class World>
SetupResult<World> TimedSetups(int min_reps, double min_total_s,
                               const std::function<std::unique_ptr<World>()>& make) {
  SetupResult<World> r;
  std::vector<double> secs;
  double total = 0.0;
  while (static_cast<int>(secs.size()) < min_reps || total < min_total_s) {
    r.world.reset();
    const std::int64_t t0 = NowNs();
    r.world = make();
    secs.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    total += secs.back();
  }
  r.median_s = Percentile(secs, 0.5);
  r.reps = static_cast<int>(secs.size());
  return r;
}

/// Non-owning transport that records a span around every call into the
/// wrapped transport and can keep a copy of the last exchange, so a
/// correctness check can replay it outside the timed region.
class SpanTransport final : public p4p::proto::Transport {
 public:
  SpanTransport(p4p::proto::Transport* inner, const char* span_name)
      : inner_(inner), span_name_(span_name) {}

  std::vector<std::uint8_t> Call(std::span<const std::uint8_t> request) override;

  void set_capture(bool on) { capture_ = on; }
  const std::vector<std::uint8_t>& last_request() const { return last_request_; }
  const std::vector<std::uint8_t>& last_response() const { return last_response_; }

 private:
  p4p::proto::Transport* inner_;
  const char* span_name_;
  bool capture_ = false;
  std::vector<std::uint8_t> last_request_;
  std::vector<std::uint8_t> last_response_;
};

/// Selector decorator handed to the AppTracker and the simulator: one span
/// per selection, otherwise a pure pass-through.
class TracedSelector final : public p4p::sim::PeerSelector {
 public:
  explicit TracedSelector(std::unique_ptr<p4p::sim::PeerSelector> inner)
      : inner_(std::move(inner)) {}

  std::vector<p4p::sim::PeerId> SelectPeers(const p4p::sim::PeerInfo& client,
                                            std::span<const p4p::sim::PeerInfo> candidates,
                                            int m, std::mt19937_64& rng) override;
  std::vector<p4p::sim::PeerId> SelectFromBuckets(const p4p::sim::PeerInfo& client,
                                                  const p4p::sim::PeerBuckets& swarm, int m,
                                                  std::mt19937_64& rng) override;
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<p4p::sim::PeerSelector> inner_;
};

/// Mean self time per span of `name` in microseconds (0 when absent).
double MeanSelfUs(const std::map<std::string, SelfStats>& stats, const std::string& name);

/// Per-layer metric rows every workload prints in its traced run. A layer a
/// workload does not run reports 0: the traced run shows it spends no time
/// there. The full list lives in BENCHMARK.json's per_layer section.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& PerLayerMetrics();
/// Fills `out.metrics` with every per-layer metric, taking values from
/// `values` (name -> value) and 0 for the rest. Throws when `values` names
/// a metric missing from the list.
void EmitPerLayer(const std::vector<std::pair<std::string, double>>& values,
                  WorkloadResult& out);

/// Writes the tracer's span records to <trace_dir>/<workload>-seed<N>.jsonl
/// when a directory was given; records the path (or the failure) as a fact.
void WriteTrace(const RunOptions& options, const std::string& workload, WorkloadResult& out);

/// splitmix64: derives independent sub-seeds from the run seed.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
