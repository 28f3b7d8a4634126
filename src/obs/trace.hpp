// Tracing spans with per-thread buffers and Chrome-trace export.
//
// Usage: install a TraceSink (usually via obs::ObsSession), then wrap
// regions of interest in RAII ScopedSpan objects:
//
//   { obs::ScopedSpan span("campaign/cell", "core"); ... }
//
// When no sink is installed a span is a no-op costing one relaxed atomic
// load, so library code can stay instrumented unconditionally. Completed
// spans append to a per-thread buffer (no cross-thread contention on the
// record path beyond an uncontended mutex) and are merged on export into
// a chrome://tracing-compatible JSON file.
//
// Span edges: every recorded span carries a process-unique id and the id
// of its parent (0 = root). Within one thread the parent is the
// lexically-enclosing open span; across threads the parent can be set
// explicitly (ScopedSpan's third argument), which is how the thread pool
// links a worker-side task span back to the span that submitted it, so a
// trace viewer can follow a pool task back to its stage.
//
// Counter events: trace_counter() appends an instantaneous sample (a
// chrome "ph":"C" event), giving e.g. a busy-worker utilization timeline
// alongside the spans.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace coloc::obs {

class TraceSink;

namespace detail {
/// The installed sink. Exposed (as an implementation detail) so the
/// disabled-tracing check in ScopedSpan's constructor inlines to a single
/// atomic load + branch — spans sit inside per-partition and per-solve
/// hot loops, where an out-of-line call per span would be measurable.
extern std::atomic<TraceSink*> g_trace_sink;
}  // namespace detail

/// One completed span or counter sample. Timestamps are nanoseconds on a
/// process-wide steady clock (comparable across threads and sinks).
struct TraceEvent {
  enum class Kind : std::uint8_t { kSpan, kCounter };

  std::string name;
  std::string category;
  Kind kind = Kind::kSpan;
  std::uint32_t tid = 0;    // small per-thread index, see thread_index()
  std::uint32_t depth = 0;  // span nesting depth on its thread (0 = root)
  std::uint64_t id = 0;         // process-unique span id (0 for counters)
  std::uint64_t parent_id = 0;  // enclosing/submitting span; 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;  // 0 for counters
  double value = 0.0;             // counter sample value
};

/// Small dense id for the calling thread (assigned on first use).
std::uint32_t thread_index();

/// Nanoseconds since the process-wide trace epoch (first use).
std::uint64_t trace_now_ns();

/// Id of the innermost span currently open on this thread, or 0 when none
/// (or tracing was disabled when it was opened). Capture this at task
/// submission and pass it to the worker-side span's explicit-parent
/// constructor to record a cross-thread dependency edge.
std::uint64_t current_span_id();

/// Records an instantaneous counter sample on the installed sink; no-op
/// when tracing is disabled. `name` must outlive the call's sink export
/// (string literals in practice).
void trace_counter(const char* name, double value);

/// Collects spans from all threads. At most one sink is installed at a
/// time; spans started while a sink is installed must finish before that
/// sink is destroyed.
class TraceSink {
 public:
  TraceSink() = default;
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// The installed sink, or nullptr when tracing is disabled.
  static TraceSink* current() {
    return detail::g_trace_sink.load(std::memory_order_acquire);
  }
  /// Makes this sink the destination for new spans.
  void install();
  /// Disables tracing (the sink keeps its recorded events).
  static void uninstall();

  void record(TraceEvent event);

  /// Copies all recorded events, sorted by start time (non-destructive).
  std::vector<TraceEvent> events() const;
  std::size_t num_events() const;

  /// Writes chrome://tracing "trace event" JSON (load via about://tracing
  /// or https://ui.perfetto.dev). Spans carry their id/parent edge in
  /// "args"; counters become "ph":"C" samples. Returns false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct ThreadBuffer {
    mutable std::mutex mutex;
    std::vector<TraceEvent> events;
  };
  ThreadBuffer& buffer_for_this_thread();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: records [construction, destruction) on the current sink.
/// `name` and `category` must outlive the span (string literals in
/// practice). No-op when no sink is installed at construction: the
/// enabled check inlines to one atomic load and a never-taken branch —
/// no timestamp is read and nothing else is touched — so spans can sit
/// in hot loops unconditionally.
///
/// The three-argument form parents the span on an explicit id (captured
/// on another thread via current_span_id()) instead of the calling
/// thread's innermost open span — the cross-thread task-dependency edge.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category = "")
      : sink_(TraceSink::current()), name_(name), category_(category) {
    if (sink_ != nullptr) begin();
  }
  ScopedSpan(const char* name, const char* category,
             std::uint64_t parent_id)
      : sink_(TraceSink::current()), name_(name), category_(category),
        parent_id_(parent_id), explicit_parent_(true) {
    if (sink_ != nullptr) begin();
  }
  ~ScopedSpan() {
    if (sink_ != nullptr) end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  /// Out-of-line slow path, entered only while a sink is installed.
  void begin();
  void end();

  TraceSink* sink_;
  const char* name_;
  const char* category_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::uint64_t saved_current_ = 0;
  bool explicit_parent_ = false;
};

}  // namespace coloc::obs
