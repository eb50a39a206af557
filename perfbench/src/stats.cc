#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

Summary Summarize(const std::vector<double>& values) {
  return Summary{Percentile(values, 0.50), Percentile(values, 0.99), values.size()};
}

namespace {
std::int64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}
}  // namespace

std::int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

std::optional<CpuJiffies> ParseProcStat(std::string_view text) {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  // guest time is already counted in user, so the total stops at steal.
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.substr(0, 4) != "cpu ") continue;
    std::istringstream in{std::string(line.substr(4))};
    std::uint64_t fields[8] = {};
    int got = 0;
    for (; got < 8 && (in >> fields[got]); ++got) {
    }
    if (got < 4) return std::nullopt;
    CpuJiffies j;
    for (int i = 0; i < got; ++i) j.total += fields[i];
    j.steal = got >= 8 ? fields[7] : 0;
    return j;
  }
  return std::nullopt;
}

std::optional<CpuJiffies> ReadProcStat() {
  std::ifstream f("/proc/stat");
  if (!f) return std::nullopt;
  std::stringstream ss;
  ss << f.rdbuf();
  return ParseProcStat(ss.str());
}

double StealShare(const std::optional<CpuJiffies>& before,
                  const std::optional<CpuJiffies>& after) {
  if (!before || !after || after->total <= before->total) return 0.0;
  return static_cast<double>(after->steal - before->steal) /
         static_cast<double>(after->total - before->total);
}

void Digest::Add(std::span<const std::uint8_t> bytes) {
  for (std::uint8_t b : bytes) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::AddDouble(double v) {
  std::uint8_t raw[sizeof(double)];
  std::memcpy(raw, &v, sizeof(double));
  Add(raw);
}

void Digest::AddU64(std::uint64_t v) {
  std::uint8_t raw[sizeof(v)];
  std::memcpy(raw, &v, sizeof(v));
  Add(raw);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
