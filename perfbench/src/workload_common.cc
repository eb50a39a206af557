#include "workload_common.h"

#include <stdexcept>

namespace perfbench {

std::vector<std::uint8_t> SpanTransport::Call(std::span<const std::uint8_t> request) {
  std::vector<std::uint8_t> response;
  {
    Span span(span_name_);
    response = inner_->Call(request);
  }
  if (capture_) {
    last_request_.assign(request.begin(), request.end());
    last_response_ = response;
  }
  return response;
}

std::vector<p4p::sim::PeerId> TracedSelector::SelectPeers(
    const p4p::sim::PeerInfo& client, std::span<const p4p::sim::PeerInfo> candidates, int m,
    std::mt19937_64& rng) {
  Span span("selectors.select");
  return inner_->SelectPeers(client, candidates, m, rng);
}

std::vector<p4p::sim::PeerId> TracedSelector::SelectFromBuckets(
    const p4p::sim::PeerInfo& client, const p4p::sim::PeerBuckets& swarm, int m,
    std::mt19937_64& rng) {
  Span span("selectors.select");
  return inner_->SelectFromBuckets(client, swarm, m, rng);
}

double MeanSelfUs(const std::map<std::string, SelfStats>& stats, const std::string& name) {
  const auto it = stats.find(name);
  if (it == stats.end() || it->second.count == 0) return 0.0;
  return it->second.total_self_ns / 1e3 / static_cast<double>(it->second.count);
}

const std::vector<LayerMetric>& PerLayerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"transport.roundtrip_self_us", "us"},
      {"service.validate_us", "us"},
      {"service.row_us", "us"},
      {"service.view_us", "us"},
      {"service.rebuild_us", "us"},
      {"caching_client.not_modified_ratio", "ratio"},
      {"caching_client.refresh_us", "us"},
      {"itracker.update_us", "us"},
      {"itracker.snapshot_rebuild_us", "us"},
      {"selectors.select_us", "us"},
      {"apptracker.self_us", "us"},
      {"apptracker.depart_us", "us"},
      {"sim.step_self_ms", "ms"},
      {"maxmin.gather_ms", "ms"},
      {"maxmin.solve_ms", "ms"},
      {"maxmin.dense_solves", "count"},
      {"maxmin.incremental_solves", "count"},
      {"telemetry.flush_us", "us"},
      {"telemetry.ingest_us", "us"},
      {"federation.publish_us", "us"},
      {"federation.install_us", "us"},
      {"federation.serve_us", "us"},
      {"federation.delta_bytes", "bytes"},
      {"federation.full_fallbacks", "count"},
      {"trace.accounted_share", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return metrics;
}

void EmitPerLayer(const std::vector<std::pair<std::string, double>>& values,
                  WorkloadResult& out) {
  std::map<std::string, double> by_name(values.begin(), values.end());
  for (const LayerMetric& m : PerLayerMetrics()) {
    const auto it = by_name.find(m.name);
    out.metrics.push_back(Metric{m.name, it == by_name.end() ? 0.0 : it->second, m.unit});
    if (it != by_name.end()) by_name.erase(it);
  }
  if (!by_name.empty()) {
    throw std::logic_error("per-layer metric not declared: " + by_name.begin()->first);
  }
}

void WriteTrace(const RunOptions& options, const std::string& workload, WorkloadResult& out) {
  out.Fact("trace.spans_recorded", static_cast<double>(Tracer::Get().Spans().size()));
  if (options.trace_dir.empty()) return;
  const std::string path = options.trace_dir + "/" + workload + "-seed" +
                           std::to_string(options.seed) + ".jsonl";
  if (Tracer::Get().WriteSpans(path)) {
    out.FactText("trace.file", path);
  } else {
    out.FactText("trace.file", "unwritable: " + path);
  }
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
