// Small measurement helpers: order statistics, CPU clocks, host steal share
// from /proc/stat, a stable digest, and JSON number formatting.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; NaN when
/// empty. p50 of {1,2,3,4} is 2, p99 of 100 samples is the 99th smallest.
double Percentile(std::vector<double> values, double q);

/// Median, p99 and sample count of one timing series.
struct Summary {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t n = 0;
};
Summary Summarize(const std::vector<double>& values);

/// CPU time consumed so far, in nanoseconds.
std::int64_t ThreadCpuNs();
std::int64_t ProcessCpuNs();

/// Aggregate jiffies from the "cpu" line of /proc/stat.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
/// Parses the aggregate "cpu " line; std::nullopt when absent or malformed.
std::optional<CpuJiffies> ParseProcStat(std::string_view text);
/// Reads /proc/stat; std::nullopt when unreadable (non-Linux hosts).
std::optional<CpuJiffies> ReadProcStat();
/// Share of CPU time stolen by the hypervisor between two readings (0 when
/// either reading is missing or no time passed).
double StealShare(const std::optional<CpuJiffies>& before,
                  const std::optional<CpuJiffies>& after);

/// 64-bit FNV-1a, fed incrementally; used for same-seed replay digests.
class Digest {
 public:
  void Add(std::span<const std::uint8_t> bytes);
  void AddDouble(double v);
  void AddU64(std::uint64_t v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Shortest round-trip decimal form of a finite double ("null" otherwise).
std::string JsonNumber(double v);
/// Quoted JSON string with the necessary escapes.
std::string JsonString(std::string_view s);

}  // namespace perfbench
