#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace coloc {

namespace {
// Shared across all pools: one process-wide view of scheduling pressure.
struct PoolMetrics {
  obs::Gauge& queue_depth;
  obs::Histogram& wait_seconds;
  obs::Histogram& run_seconds;
  obs::Counter& tasks;

  static PoolMetrics& get() {
    static PoolMetrics metrics{
        obs::Registry::global().gauge("pool_queue_depth"),
        obs::Registry::global().histogram("pool_queue_wait_seconds"),
        obs::Registry::global().histogram("pool_exec_seconds"),
        obs::Registry::global().counter("pool_tasks_total"),
    };
    return metrics;
  }
};

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

thread_local bool t_on_worker_thread = false;
}  // namespace

bool on_worker_thread() { return t_on_worker_thread; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // Build the process-wide metrics (and the registry behind them) from the
  // constructing thread, before any worker exists. Workers touch both
  // lazily, and a first touch from a worker would construct the registry
  // *after* this pool — which at exit destroys it *before* the pool joins
  // its workers, leaving them racing a freed registry.
  PoolMetrics::get();
  worker_stats_ = std::vector<WorkerStats>(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.workers = worker_stats_.size();
  const std::uint64_t now_ns = obs::trace_now_ns();
  for (const WorkerStats& w : worker_stats_) {
    s.busy_seconds += static_cast<double>(
                          w.busy_ns.load(std::memory_order_relaxed)) *
                      1e-9;
    std::uint64_t idle = w.idle_ns.load(std::memory_order_relaxed);
    if (w.waiting.load(std::memory_order_acquire)) {
      // A wait is booked when it ends; count the open one up to "now" so
      // an idle (but alive) pool reads as idle rather than unaccounted.
      const std::uint64_t start =
          w.wait_start_ns.load(std::memory_order_relaxed);
      if (now_ns > start) idle += now_ns - start;
    }
    s.idle_seconds += static_cast<double>(idle) * 1e-9;
    s.tasks += w.tasks.load(std::memory_order_relaxed);
  }
  return s;
}

void ThreadPool::set_instrument_stride(std::size_t stride) {
  instrument_stride_.store(stride == 0 ? 1 : stride,
                           std::memory_order_relaxed);
}

void ThreadPool::enqueue(std::function<void()> fn) {
  const std::size_t stride = instrument_stride_.load(std::memory_order_relaxed);
  const bool instrument =
      stride <= 1 ||
      task_seq_.fetch_add(1, std::memory_order_relaxed) % stride == 0;
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    COLOC_CHECK_MSG(!stopping_,
                    "ThreadPool::submit called after shutdown; the task "
                    "would never run");
    queue_.push(Task{std::move(fn),
                     instrument ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{},
                     instrument ? obs::current_span_id() : 0, instrument});
    depth = queue_.size();
  }
  if (instrument) {
    PoolMetrics::get().queue_depth.set(static_cast<double>(depth));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  t_on_worker_thread = true;
  PoolMetrics& metrics = PoolMetrics::get();
  WorkerStats& mine = worker_stats_[worker_index];
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Publish the wait start before raising the flag so stats() (which
      // reads flag-then-start with acquire) never sees a stale start.
      mine.wait_start_ns.store(obs::trace_now_ns(),
                               std::memory_order_relaxed);
      mine.waiting.store(true, std::memory_order_release);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      const std::uint64_t wait_end = obs::trace_now_ns();
      const std::uint64_t wait_start =
          mine.wait_start_ns.load(std::memory_order_relaxed);
      mine.waiting.store(false, std::memory_order_relaxed);
      if (wait_end > wait_start) {
        mine.idle_ns.fetch_add(wait_end - wait_start,
                               std::memory_order_relaxed);
      }
      // The final wait (stopping_ with a drained queue) falls out of the
      // booking above as idle, never busy: workers parked at shutdown did
      // no work while parked.
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
      // Claimed under the lock so quiesce() never observes an empty queue
      // while a popped-but-uncounted task is in flight.
      busy_workers_.fetch_add(1, std::memory_order_relaxed);
      if (task.instrument) {
        metrics.queue_depth.set(static_cast<double>(queue_.size()));
      }
    }
    const auto started = std::chrono::steady_clock::now();
    if (task.instrument) {
      metrics.wait_seconds.observe(seconds_between(task.enqueued, started));
      obs::trace_counter(
          "pool/busy_workers",
          static_cast<double>(busy_workers_.load(std::memory_order_relaxed)));
      // The task span is parented on the span open at submit time — the
      // cross-thread dependency edge obs::attribution's critical-path
      // pass walks.
      obs::ScopedSpan span("pool/task", "pool", task.submit_span_id);
      task.fn();
    } else {
      task.fn();
    }
    const auto finished = std::chrono::steady_clock::now();
    mine.busy_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(finished -
                                                                 started)
                .count()),
        std::memory_order_relaxed);
    mine.tasks.fetch_add(1, std::memory_order_relaxed);
    metrics.tasks.inc();
    if (task.instrument) {
      metrics.run_seconds.observe(seconds_between(started, finished));
    }
    {
      // Retired last, under the lock: once quiesce() sees the count hit
      // zero, the task's span and every metric above are already booked.
      std::lock_guard<std::mutex> lock(mutex_);
      busy_workers_.fetch_sub(1, std::memory_order_relaxed);
    }
    idle_cv_.notify_all();
    if (task.instrument) {
      obs::trace_counter(
          "pool/busy_workers",
          static_cast<double>(busy_workers_.load(std::memory_order_relaxed)));
    }
  }
}

void ThreadPool::quiesce() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return queue_.empty() && busy_workers_.load(std::memory_order_relaxed) == 0;
  });
}

void export_stage_pool_gauges(const std::string& stage, const PoolStats& s) {
  auto& registry = obs::Registry::global();
  const obs::Labels labels = {{"stage", stage}};
  registry.gauge("stage_pool_busy_seconds", labels).set(s.busy_seconds);
  registry.gauge("stage_pool_idle_seconds", labels).set(s.idle_seconds);
  registry.gauge("stage_pool_workers", labels)
      .set(static_cast<double>(s.workers));
  registry.gauge("stage_pool_utilization", labels).set(s.utilization());
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  std::size_t chunk) {
  if (n == 0) return;
  if (on_worker_thread() || pool.size() <= 1) {
    // Nested (or degenerate) fan-out: run inline. See the header contract.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  if (chunk == 0) {
    // Aim for ~4 chunks per worker to balance load without much overhead.
    chunk = std::max<std::size_t>(1, n / (pool.size() * 4));
  }
  std::vector<std::future<void>> futures;
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  for (std::size_t start = 0; start < n; start += chunk) {
    const std::size_t end = std::min(n, start + chunk);
    futures.push_back(pool.submit([&, start, end] {
      if (failed.load(std::memory_order_relaxed)) return;
      try {
        for (std::size_t i = start; i < end; ++i) body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }));
  }
  for (auto& f : futures) f.get();
  if (first_error) std::rethrow_exception(first_error);
}

namespace {
std::atomic<std::size_t> g_configured_jobs{0};  // 0 = env / hardware

std::size_t jobs_from_env() {
  const char* raw = std::getenv("COLOC_JOBS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const long value = std::strtol(raw, &end, 10);
  return (end == raw || *end != '\0' || value < 0)
             ? 0
             : static_cast<std::size_t>(value);
}
}  // namespace

std::size_t configured_jobs() {
  std::size_t jobs = g_configured_jobs.load(std::memory_order_relaxed);
  if (jobs == 0) jobs = jobs_from_env();
  if (jobs == 0) {
    jobs = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return jobs;
}

void set_configured_jobs(std::size_t jobs) {
  g_configured_jobs.store(jobs, std::memory_order_relaxed);
}

ThreadPool& global_pool() {
  static ThreadPool pool(configured_jobs());
  return pool;
}

}  // namespace coloc
