// Benchmark entry point:
//   perfbench --workload <portal_mix|announce_churn|closed_loop> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
// Prints one line of run facts, then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 on a wrong answer
// or failed operation, 2 on bad arguments.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

namespace {

using namespace perfbench;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <portal_mix|announce_churn|"
               "closed_loop> --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  return 2;
}

std::string RenderResult(const WorkloadResult& r, bool correct) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}}";
}

std::string RenderFacts(const WorkloadResult& r) {
  std::string out = "{\"facts\": {";
  for (std::size_t i = 0; i < r.facts.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(r.facts[i].first) + ": " + r.facts[i].second;
  }
  out += "}";
  if (!r.wrong.empty()) {
    out += ", \"wrong\": [";
    for (std::size_t i = 0; i < r.wrong.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(r.wrong[i]);
    }
    out += "]";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = true;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (arg == "--trace-dir") {
        options.trace_dir = value;
      } else {
        return Usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + arg).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  WorkloadResult r;
  try {
    if (workload == "portal_mix") {
      r = RunPortalMix(options);
    } else if (workload == "announce_churn") {
      r = RunAnnounceChurn(options);
    } else if (workload == "closed_loop") {
      r = RunClosedLoop(options);
    } else {
      return Usage(("unknown workload " + workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  r.FactText("workload", workload);
  r.facts.emplace_back("seed", std::to_string(options.seed));
  r.Fact("seconds", options.seconds);
  r.Fact("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  r.FactText("build_type", PERFBENCH_BUILD_TYPE);
  r.FactText("compiler", PERFBENCH_COMPILER);

  const bool correct = r.wrong.empty() && r.failed == 0 && r.attempted > 0;
  std::printf("%s\n%s\n", RenderFacts(r).c_str(), RenderResult(r, correct).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
