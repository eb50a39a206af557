// In-memory span tracer for the benchmark's traced run.
//
// Spans are opened and closed by the benchmark's own wrappers around calls
// into the program's public API (transports, selector decorator, handler
// wrappers, timed control-plane calls). Each thread keeps a stack of open
// spans; closing a span computes its self time online (its duration minus
// the time its child spans covered) and folds it into per-name totals,
// and keeps the raw record (name, start, end, id, parent, op id) in memory
// for the trace file written at exit. Spans never cross threads: a span's
// parent is the span open below it on the same thread.
//
// When the tracer is disabled (the untraced run that produces the gated
// end-to-end metrics) a Span costs one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
std::int64_t NowNs();

struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root on its thread
  std::uint64_t op = 0;      ///< workload operation the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

/// Self-time statistics for one span name.
struct SelfStats {
  std::uint64_t count = 0;
  double total_self_ns = 0.0;
  double total_ns = 0.0;
};

class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens / closes a span on the calling thread at explicit times (the
  /// RAII Span below passes NowNs()). End closes the innermost open span.
  void Begin(const char* name, std::int64_t t_ns);
  void End(std::int64_t t_ns);
  /// Drops the innermost open span without recording it (a span cut short
  /// by the end of a measurement).
  void Abandon();
  /// Tags spans opened from now on with the workload operation id.
  void SetOp(std::uint64_t op);

  /// Per-name self-time statistics merged over all threads.
  std::map<std::string, SelfStats> Collect() const;
  /// Every stored span record, all threads (capped per thread).
  std::vector<SpanRecord> Spans() const;
  /// Writes the stored spans as JSON lines. Returns false on I/O failure.
  bool WriteSpans(const std::string& path) const;
  /// Clears all statistics and records. Only while no thread is tracing.
  void Reset();

  /// Raw records kept per thread; statistics keep counting past the cap.
  static constexpr std::size_t kMaxStoredSpansPerThread = 20000;

 private:
  struct Frame {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct ThreadBuf {
    std::uint32_t index = 0;
    std::uint64_t next_id = 1;
    std::uint64_t op = 0;
    std::vector<Frame> stack;
    std::vector<SpanRecord> spans;
    std::map<const char*, SelfStats> stats;
  };
  ThreadBuf& Local();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards threads_ (registration and collection)
  std::vector<std::unique_ptr<ThreadBuf>> threads_;
};

/// RAII span; no-op while the tracer is disabled.
class Span {
 public:
  explicit Span(const char* name) : on_(Tracer::Get().enabled()) {
    if (on_) Tracer::Get().Begin(name, NowNs());
  }
  ~Span() {
    if (on_) Tracer::Get().End(NowNs());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

/// Offline self times: for each record, its duration minus the union of
/// its direct children's intervals clipped to it. Keyed by span id. Used
/// to cross-check the online aggregation and by the self-tests.
std::map<std::uint64_t, std::int64_t> ComputeSelfTimes(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
