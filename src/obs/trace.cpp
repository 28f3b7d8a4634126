#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iomanip>

#include "obs/json.hpp"

namespace coloc::obs {

namespace detail {
std::atomic<TraceSink*> g_trace_sink{nullptr};
}  // namespace detail

namespace {

// Bumped on every install() so a thread's cached buffer registration can
// never alias a new sink allocated at a recycled address.
std::atomic<std::uint64_t> g_generation{0};

// Span ids start at 1; 0 means "no span" everywhere.
std::atomic<std::uint64_t> g_next_span_id{1};

std::chrono::steady_clock::time_point trace_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

// Per-thread nesting depth for ScopedSpan.
thread_local std::uint32_t t_depth = 0;

// Innermost open span on this thread (0 = none). Maintained only while a
// sink is installed: disabled spans neither allocate ids nor touch it.
thread_local std::uint64_t t_current_span = 0;

// Per-thread cached buffer registration, keyed by sink identity.
struct ThreadCache {
  TraceSink* sink = nullptr;
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache t_cache;

}  // namespace

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::uint64_t trace_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

std::uint64_t current_span_id() { return t_current_span; }

void trace_counter(const char* name, double value) {
  TraceSink* sink = TraceSink::current();
  if (sink == nullptr) return;
  TraceEvent event;
  event.name = name;
  event.kind = TraceEvent::Kind::kCounter;
  event.tid = thread_index();
  event.start_ns = trace_now_ns();
  event.value = value;
  sink->record(std::move(event));
}

TraceSink::~TraceSink() {
  if (current() == this) uninstall();
}

void TraceSink::install() {
  trace_epoch();  // pin the epoch before the first span
  g_generation.fetch_add(1, std::memory_order_relaxed);
  detail::g_trace_sink.store(this, std::memory_order_release);
}

void TraceSink::uninstall() {
  detail::g_trace_sink.store(nullptr, std::memory_order_release);
}

TraceSink::ThreadBuffer& TraceSink::buffer_for_this_thread() {
  const std::uint64_t generation =
      g_generation.load(std::memory_order_relaxed);
  if (t_cache.sink != this || t_cache.generation != generation) {
    auto buffer = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = buffer.get();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::move(buffer));
    }
    t_cache = ThreadCache{this, generation, raw};
  }
  return *static_cast<ThreadBuffer*>(t_cache.buffer);
}

void TraceSink::record(TraceEvent event) {
  ThreadBuffer& buffer = buffer_for_this_thread();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(std::move(event));
}

std::vector<TraceEvent> TraceSink::events() const {
  std::vector<TraceEvent> all;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    all.insert(all.end(), buffer->events.begin(), buffer->events.end());
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.duration_ns > b.duration_ns;  // parents before children
            });
  return all;
}

std::size_t TraceSink::num_events() const {
  std::size_t n = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    n += buffer->events.size();
  }
  return n;
}

bool TraceSink::write_chrome_json(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  // Fixed 3-decimal microsecond timestamps keep full nanosecond precision
  // regardless of trace length (default float formatting would round).
  os << std::fixed << std::setprecision(3);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events()) {
    if (!first) os << ',';
    first = false;
    if (e.kind == TraceEvent::Kind::kCounter) {
      // Counter samples ("ph":"C"): one series per counter name, rendered
      // by chrome://tracing / Perfetto as a stacked timeline.
      os << "{\"name\":\"" << json_escape(e.name)
         << "\",\"cat\":\"counter\",\"ph\":\"C\",\"pid\":1,\"tid\":" << e.tid
         << ",\"ts\":" << static_cast<double>(e.start_ns) / 1e3
         << ",\"args\":{\"value\":" << std::setprecision(6) << e.value
         << std::setprecision(3) << "}}";
      continue;
    }
    // Complete events ("ph":"X") with microsecond timestamps, as expected
    // by chrome://tracing and Perfetto. The span id and parent edge ride
    // in "args" so the dependency graph can be rebuilt from the exported
    // file alone.
    os << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
       << json_escape(e.category.empty() ? "span" : e.category)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":"
       << static_cast<double>(e.start_ns) / 1e3 << ",\"dur\":"
       << static_cast<double>(e.duration_ns) / 1e3
       << ",\"args\":{\"depth\":" << e.depth << ",\"id\":" << e.id
       << ",\"parent\":" << e.parent_id << "}}";
  }
  os << "]}";
  return static_cast<bool>(os);
}

void ScopedSpan::begin() {
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  if (!explicit_parent_) parent_id_ = t_current_span;
  saved_current_ = t_current_span;
  t_current_span = id_;
  start_ns_ = trace_now_ns();
  ++t_depth;
}

void ScopedSpan::end() {
  const std::uint64_t end_ns = trace_now_ns();
  const std::uint32_t depth = --t_depth;
  t_current_span = saved_current_;
  // The sink may have been swapped while the span was open; record on the
  // sink that was active at construction only if it is still installed.
  if (TraceSink::current() != sink_) return;
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.tid = thread_index();
  event.depth = depth;
  event.id = id_;
  event.parent_id = parent_id_;
  event.start_ns = start_ns_;
  event.duration_ns = end_ns - start_ns_;
  sink_->record(std::move(event));
}

}  // namespace coloc::obs
