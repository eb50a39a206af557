#include "common.h"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <limits>
#include <random>

namespace p4p::bench {

double ScaleFactor() {
  const char* env = std::getenv("P4P_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  if (v <= 0.0) return 1.0;
  return std::clamp(v, 0.05, 4.0);
}

int Scaled(int n) {
  return std::max(4, static_cast<int>(std::lround(n * ScaleFactor())));
}

void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

void PrintSubHeader(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

void PrintComparisons(const std::vector<Comparison>& rows) {
  std::printf("\nPAPER vs MEASURED\n");
  std::printf("%-44s | %-26s | %-26s | %s\n", "metric", "paper", "measured", "shape");
  std::printf("%s\n", std::string(110, '-').c_str());
  for (const auto& r : rows) {
    std::printf("%-44s | %-26s | %-26s | %s\n", r.metric.c_str(), r.paper.c_str(),
                r.measured.c_str(), r.skipped ? "skipped" : r.ok ? "OK" : "DIFFERS");
  }
}

void PrintCdf(const std::string& label, std::span<const double> samples, int points) {
  if (samples.empty()) {
    std::printf("%s: (no samples)\n", label.c_str());
    return;
  }
  std::printf("%s CDF (n=%zu):\n", label.c_str(), samples.size());
  for (int k = 1; k <= points; ++k) {
    const double q = 100.0 * k / points;
    std::printf("  p%-5.1f %12.1f\n", q, sim::Percentile(samples, q));
  }
}

std::string Fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

void WriteBenchJson(const std::string& filename,
                    const std::vector<std::pair<std::string, double>>& metrics) {
  std::string path = filename;
  if (const char* dir = std::getenv("P4P_BENCH_JSON_DIR"); dir != nullptr && *dir != '\0') {
    path = std::string(dir) + "/" + filename;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WriteBenchJson: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (std::isfinite(metrics[i].second)) {
      std::fprintf(f, "  \"%s\": %.9g%s\n", metrics[i].first.c_str(), metrics[i].second,
                   i + 1 < metrics.size() ? "," : "");
    } else {
      std::fprintf(f, "  \"%s\": null%s\n", metrics[i].first.c_str(),
                   i + 1 < metrics.size() ? "," : "");
    }
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

void MergeBenchJson(const std::string& filename,
                    const std::vector<std::pair<std::string, double>>& metrics) {
  std::string path = filename;
  if (const char* dir = std::getenv("P4P_BENCH_JSON_DIR"); dir != nullptr && *dir != '\0') {
    path = std::string(dir) + "/" + filename;
  }
  // Parse the existing flat object ({"name": number|null, ...}) if present;
  // keys not overridden by `metrics` are carried over in file order.
  std::vector<std::pair<std::string, double>> merged;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
    std::size_t pos = 0;
    while ((pos = text.find('"', pos)) != std::string::npos) {
      const std::size_t end = text.find('"', pos + 1);
      if (end == std::string::npos) break;
      const std::string key = text.substr(pos + 1, end - pos - 1);
      std::size_t colon = text.find(':', end);
      if (colon == std::string::npos) break;
      ++colon;
      while (colon < text.size() && std::isspace(static_cast<unsigned char>(text[colon]))) {
        ++colon;
      }
      double value = std::numeric_limits<double>::quiet_NaN();  // "null"
      if (colon < text.size() && text[colon] != 'n') {
        value = std::strtod(text.c_str() + colon, nullptr);
      }
      bool overridden = false;
      for (const auto& [name, unused] : metrics) {
        (void)unused;
        if (name == key) {
          overridden = true;
          break;
        }
      }
      if (!overridden) merged.emplace_back(key, value);
      pos = end + 1;
    }
  }
  merged.insert(merged.end(), metrics.begin(), metrics.end());
  WriteBenchJson(filename, merged);
}

std::vector<sim::PeerSpec> MakeSwarm(const SwarmSpec& spec) {
  std::mt19937_64 rng(spec.rng_seed);
  sim::PopulationConfig cfg;
  cfg.num_peers = spec.leechers;
  cfg.pops = spec.pops;
  cfg.pop_weights = spec.weights;
  cfg.as_number = spec.as_number;
  cfg.join_window = spec.join_window;
  auto peers = MakePopulation(cfg, rng);
  sim::PeerSpec seed;
  seed.node = spec.seed_node;
  seed.as_number = spec.as_number;
  seed.up_bps = spec.seed_up_bps;
  seed.down_bps = spec.seed_up_bps;
  seed.seed = true;
  peers.push_back(seed);
  return peers;
}

sim::BitTorrentSimulator::BackgroundFn DiurnalBackground(const net::Graph& graph,
                                                         double base_frac,
                                                         double amp_frac,
                                                         double period_sec) {
  // Deterministic per-link phase so the pattern is stable across runs.
  std::vector<double> phase(graph.link_count());
  std::mt19937_64 rng(0xD1U);
  std::uniform_real_distribution<double> ph(0.0, 3.14159265358979);
  for (auto& p : phase) p = ph(rng);
  std::vector<double> caps(graph.link_count());
  for (std::size_t e = 0; e < graph.link_count(); ++e) {
    caps[e] = graph.link(static_cast<net::LinkId>(e)).capacity_bps;
  }
  return [phase = std::move(phase), caps = std::move(caps), base_frac, amp_frac,
          period_sec](net::LinkId e, double t) {
    const auto eu = static_cast<std::size_t>(e);
    const double s = std::sin(3.14159265358979 * t / period_sec + phase[eu]);
    return caps[eu] * (base_frac + amp_frac * s * s);
  };
}

std::vector<RunResult> RunThreeWay(const net::Graph& graph,
                                   const net::RoutingTable& routing,
                                   std::span<const sim::PeerSpec> peers,
                                   const ThreeWayConfig& config) {
  std::vector<RunResult> results;

  {  // Native
    sim::BitTorrentSimulator simulator(graph, routing, config.bt);
    core::NativeRandomSelector native;
    results.push_back({native.name(), simulator.Run(peers, native)});
  }
  {  // Delay-localized
    sim::BitTorrentSimulator simulator(graph, routing, config.bt);
    core::DelayLocalizedSelector localized(routing);
    results.push_back({localized.name(), simulator.Run(peers, localized)});
  }
  {  // P4P with a live iTracker
    auto bt = config.bt;
    if (config.dynamic_updates && bt.selector_refresh_interval <= 0) {
      bt.selector_refresh_interval = 60.0;
    }
    sim::BitTorrentSimulator simulator(graph, routing, bt);
    core::ITracker tracker(graph, routing, config.tracker_config);
    if (config.setup_tracker) config.setup_tracker(tracker);
    if (config.dynamic_updates) {
      simulator.set_on_epoch([&tracker](double, std::span<const double> rates) {
        tracker.Update(rates);
      });
    }
    core::P4PSelector p4p;
    for (const auto& p : peers) {
      // Register the (single) tracker for every AS present in the workload.
      p4p.RegisterITracker(p.as_number, &tracker);
    }
    results.push_back({p4p.name(), simulator.Run(peers, p4p)});
  }
  return results;
}

}  // namespace p4p::bench
