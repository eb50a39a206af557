#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuf& Tracer::Local() {
  // The buffer outlives its thread: the tracer owns it, so spans recorded by
  // joined worker threads are still there when the trace is collected.
  thread_local ThreadBuf* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadBuf>());
    local = threads_.back().get();
    local->index = static_cast<std::uint32_t>(threads_.size());
  }
  return *local;
}

void Tracer::Begin(const char* name, std::int64_t t_ns) {
  ThreadBuf& buf = Local();
  const std::uint64_t id = (static_cast<std::uint64_t>(buf.index) << 40) | buf.next_id++;
  const std::uint64_t parent = buf.stack.empty() ? 0 : buf.stack.back().id;
  buf.stack.push_back(Frame{name, id, parent, t_ns, 0});
}

void Tracer::End(std::int64_t t_ns) {
  ThreadBuf& buf = Local();
  if (buf.stack.empty()) throw std::logic_error("Tracer::End without an open span");
  const Frame f = buf.stack.back();
  buf.stack.pop_back();
  const std::int64_t dur = t_ns - f.start_ns;
  const std::int64_t self = dur - f.child_ns;
  if (!buf.stack.empty()) buf.stack.back().child_ns += dur;
  SelfStats& s = buf.stats[f.name];
  ++s.count;
  s.total_self_ns += static_cast<double>(self);
  s.total_ns += static_cast<double>(dur);
  if (buf.spans.size() < kMaxStoredSpansPerThread) {
    buf.spans.push_back(SpanRecord{f.name, f.id, f.parent, buf.op, f.start_ns, t_ns, buf.index});
  }
}

void Tracer::Abandon() {
  ThreadBuf& buf = Local();
  if (!buf.stack.empty()) buf.stack.pop_back();
}

void Tracer::SetOp(std::uint64_t op) { Local().op = op; }

std::map<std::string, SelfStats> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SelfStats> out;
  for (const auto& t : threads_) {
    for (const auto& [name, s] : t->stats) {
      SelfStats& o = out[name];
      o.count += s.count;
      o.total_self_ns += s.total_self_ns;
      o.total_ns += s.total_ns;
    }
  }
  return out;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const auto& t : threads_) out.insert(out.end(), t->spans.begin(), t->spans.end());
  return out;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : Spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
                 "\"thread\":%u,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.thread,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& t : threads_) {
    t->stack.clear();
    t->spans.clear();
    t->stats.clear();
  }
}

std::map<std::uint64_t, std::int64_t> ComputeSelfTimes(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::uint64_t, std::int64_t> self;
  for (const SpanRecord& s : spans) {
    auto& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
