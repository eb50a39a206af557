// Self-tests for the benchmark's own code: span self times with nested
// children, order statistics, /proc/stat steal parsing, JSON numbers, and
// the closed-loop digest's stability across two same-seed runs.
// Run: perfbench_selftest (exit 0 = all passed).
#include <cmath>
#include <cstdio>
#include <string>

#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void TestSpanSelfTimes() {
  Tracer& t = Tracer::Get();
  t.Reset();
  // A [0, 50] holds B [10, 20] (which holds C [12, 15]) and D [30, 35].
  t.Begin("A", 0);
  t.Begin("B", 10);
  t.Begin("C", 12);
  t.End(15);
  t.End(20);
  t.Begin("D", 30);
  t.End(35);
  t.End(50);
  const auto stats = t.Collect();
  Expect(stats.at("A").total_self_ns == 35.0, "A self = 50 - 10 - 5");
  Expect(stats.at("B").total_self_ns == 7.0, "B self = 10 - 3");
  Expect(stats.at("C").total_self_ns == 3.0, "C self = its duration");
  Expect(stats.at("D").total_self_ns == 5.0, "D self = its duration");
  Expect(stats.at("A").total_ns == 50.0, "A duration");
  const auto spans = t.Spans();
  Expect(spans.size() == 4, "four span records");
  const auto offline = ComputeSelfTimes(spans);
  for (const SpanRecord& s : spans) {
    Expect(static_cast<double>(offline.at(s.id)) == stats.at(s.name).total_self_ns,
           std::string("offline self time matches online for ") + s.name);
    if (std::string(s.name) == "C") {
      bool parent_is_b = false;
      for (const SpanRecord& p : spans) {
        if (p.id == s.parent) parent_is_b = std::string(p.name) == "B";
      }
      Expect(parent_is_b, "C's parent is B");
    }
    if (std::string(s.name) == "A") Expect(s.parent == 0, "A is a root");
  }
  // Abandon drops an open span without recording it or charging its parent.
  t.Reset();
  t.Begin("outer", 0);
  t.Begin("cut", 5);
  t.Abandon();
  t.End(10);
  const auto after = t.Collect();
  Expect(after.count("cut") == 0, "abandoned span not recorded");
  Expect(after.at("outer").total_self_ns == 10.0, "abandoned child not charged to parent");
  t.Reset();
}

void TestPercentiles() {
  Expect(Percentile({4, 1, 3, 2}, 0.5) == 2.0, "p50 of 1..4 is 2 (nearest rank)");
  Expect(Percentile({7}, 0.99) == 7.0, "p99 of one sample");
  Expect(std::isnan(Percentile({}, 0.5)), "percentile of nothing is NaN");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(Percentile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  Expect(Percentile(hundred, 1.0) == 100.0, "p100 is the max");
  Expect(Percentile(hundred, 0.0) == 1.0, "p0 is the min");
  const Summary s = Summarize(hundred);
  Expect(s.p50 == 50.0 && s.p99 == 99.0 && s.n == 100, "summary p50/p99/n");
}

void TestStealParsing() {
  const auto a = ParseProcStat(
      "cpu  100 5 50 800 10 0 5 30 0 0\ncpu0 50 2 25 400 5 0 2 15 0 0\nintr 1\n");
  Expect(a.has_value(), "parses the aggregate cpu line");
  if (a) {
    Expect(a->total == 1000, "total sums user..steal");
    Expect(a->steal == 30, "steal is the eighth field");
  }
  const auto b = ParseProcStat("cpu  200 5 50 1600 10 0 5 130 0 0\n");
  Expect(StealShare(a, b) == 100.0 / 1000.0, "steal share of the interval");
  Expect(!ParseProcStat("cpu0 1 2 3 4\n").has_value(), "per-core lines are not the aggregate");
  Expect(!ParseProcStat("cpu  1 2\n").has_value(), "too few fields is malformed");
  Expect(StealShare(std::nullopt, b) == 0.0, "missing reading gives 0");
  const auto old_kernel = ParseProcStat("cpu  1 2 3 4\n");
  Expect(old_kernel && old_kernel->steal == 0 && old_kernel->total == 10,
         "kernels without a steal field report 0 steal");
}

void TestJson() {
  Expect(JsonNumber(0.1) == "0.1", "shortest round-trip form");
  Expect(JsonNumber(1234.5678901234) == "1234.5678901234", "all digits kept");
  Expect(JsonNumber(std::nan("")) == "null", "NaN is null");
  Expect(JsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"", "string escapes");
}

void TestDigestStability() {
  const std::uint64_t first = ClosedLoopReplayDigest(5);
  const std::uint64_t second = ClosedLoopReplayDigest(5);
  Expect(first == second, "same seed, same closed-loop digest");
  Expect(ClosedLoopReplayDigest(6) != first, "another seed, another digest");
}

}  // namespace

int main() {
  TestSpanSelfTimes();
  TestPercentiles();
  TestStealParsing();
  TestJson();
  TestDigestStability();
  if (failures == 0) std::printf("perfbench self-tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
