#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "obs/attribution.hpp"
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

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

thread_local bool t_on_worker_thread = false;
}  // namespace

bool on_worker_thread() { return t_on_worker_thread; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = hardware_threads();
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

void ThreadPool::enqueue(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    COLOC_CHECK_MSG(!stopping_,
                    "ThreadPool::submit called after shutdown; the task "
                    "would never run");
    queue_.push(std::move(task));
    depth = queue_.size();
  }
  PoolMetrics::get().queue_depth.set(static_cast<double>(depth));
  cv_.notify_one();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  t_on_worker_thread = true;
  PoolMetrics& metrics = PoolMetrics::get();
  WorkerStats& mine = worker_stats_[worker_index];
  for (;;) {
    std::function<void()> task;
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
      metrics.queue_depth.set(static_cast<double>(queue_.size()));
    }
    obs::trace_counter(
        "pool/busy_workers",
        static_cast<double>(busy_workers_.load(std::memory_order_relaxed)));
    const auto started = std::chrono::steady_clock::now();
    task();
    const auto finished = std::chrono::steady_clock::now();
    mine.busy_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(finished -
                                                                 started)
                .count()),
        std::memory_order_relaxed);
    mine.tasks.fetch_add(1, std::memory_order_relaxed);
    {
      // Retired last, under the lock: once quiesce() sees the count hit
      // zero, the task and its bookkeeping above are done.
      std::lock_guard<std::mutex> lock(mutex_);
      busy_workers_.fetch_sub(1, std::memory_order_relaxed);
    }
    idle_cv_.notify_all();
    obs::trace_counter(
        "pool/busy_workers",
        static_cast<double>(busy_workers_.load(std::memory_order_relaxed)));
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
  registry.gauge("stage_pool_wait_seconds", labels).set(s.wait_seconds);
  registry.gauge("stage_pool_wall_seconds", labels).set(s.wall_seconds);
  registry.gauge("stage_pool_workers", labels)
      .set(static_cast<double>(s.workers));
  registry.gauge("stage_pool_utilization", labels).set(s.utilization());
  // The gauges keep only the last call, so every call's balance is checked
  // here. The counter is registered even at 0: a bundle without it was
  // written by a build that did not check.
  const double capacity = static_cast<double>(s.workers) * s.wall_seconds;
  const double residual = capacity - s.busy_seconds - s.idle_seconds;
  obs::Counter& unbalanced =
      registry.counter("stage_pool_unbalanced_calls_total", labels);
  if (std::abs(residual) > obs::residual_tolerance(capacity)) {
    unbalanced.inc();
  }
}

PoolStats parallel_for(ThreadPool& pool, std::size_t n,
                       const std::function<void(std::size_t)>& body,
                       std::size_t chunk, std::size_t workers) {
  PoolStats stats;
  if (n == 0) return stats;
  const std::size_t limit =
      workers == 0 ? pool.size() : std::min(workers, pool.size());
  if (chunk == 0) {
    // Aim for ~4 chunks per worker to balance load without much overhead.
    chunk = std::max<std::size_t>(
        1, n / (std::max<std::size_t>(1, limit) * 4));
  }
  const std::size_t chunks = (n + chunk - 1) / chunk;
  const std::size_t runners = std::min(limit, chunks);
  const auto call_start = std::chrono::steady_clock::now();
  if (runners <= 1 || on_worker_thread()) {
    // One runner, or a nested fan-out: run inline. See the header contract.
    for (std::size_t i = 0; i < n; ++i) body(i);
    stats.workers = 1;
    stats.tasks = chunks;
    stats.wall_seconds =
        seconds_between(call_start, std::chrono::steady_clock::now());
    stats.busy_seconds = stats.wall_seconds;
    return stats;
  }

  PoolMetrics& metrics = PoolMetrics::get();
  const std::uint64_t caller_span = obs::current_span_id();
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> chunks_run{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  // Each runner's own start and end; slot r is written only by runner r
  // and read after its future is joined.
  struct RunnerSpan {
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point end;
  };
  std::vector<RunnerSpan> runner_spans(runners);

  auto claim_chunks = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const auto claimed = std::chrono::steady_clock::now();
      try {
        metrics.wait_seconds.observe(seconds_between(call_start, claimed));
        {
          // Parented on the caller's span: the cross-thread edge back to
          // the stage that submitted the chunk.
          obs::ScopedSpan span("pool/task", "pool", caller_span);
          const std::size_t end = std::min(n, (c + 1) * chunk);
          for (std::size_t i = c * chunk; i < end; ++i) body(i);
        }
        const auto finished = std::chrono::steady_clock::now();
        metrics.run_seconds.observe(seconds_between(claimed, finished));
        metrics.tasks.inc();
        busy_ns.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    finished - claimed)
                    .count()),
            std::memory_order_relaxed);
        chunks_run.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::future<void>> futures;
  futures.reserve(runners);
  try {
    for (std::size_t r = 0; r < runners; ++r) {
      futures.push_back(pool.submit([&, r] {
        runner_spans[r].start = std::chrono::steady_clock::now();
        claim_chunks();
        runner_spans[r].end = std::chrono::steady_clock::now();
      }));
    }
  } catch (...) {
    // Runners already queued reference this frame: let them finish first.
    failed.store(true, std::memory_order_relaxed);
    for (auto& f : futures) f.wait();
    throw;
  }
  for (auto& f : futures) f.get();
  const auto call_end = std::chrono::steady_clock::now();

  stats.workers = runners;
  stats.tasks = chunks_run.load(std::memory_order_relaxed);
  stats.busy_seconds =
      static_cast<double>(busy_ns.load(std::memory_order_relaxed)) * 1e-9;
  stats.wall_seconds = seconds_between(call_start, call_end);
  double tail_seconds = 0.0;
  for (const RunnerSpan& span : runner_spans) {
    stats.wait_seconds += seconds_between(call_start, span.start);
    tail_seconds += seconds_between(span.end, call_end);
  }
  stats.idle_seconds = stats.wait_seconds + tail_seconds;
  if (first_error) std::rethrow_exception(first_error);
  return stats;
}

namespace {
std::atomic<std::size_t> g_configured_jobs{0};  // 0 = env / hardware
}  // namespace

std::size_t configured_jobs() {
  std::size_t jobs = g_configured_jobs.load(std::memory_order_relaxed);
  if (jobs == 0) {
    const char* raw = std::getenv("COLOC_JOBS");
    if (raw != nullptr && *raw != '\0') {
      jobs = parse_non_negative_integer(raw, "COLOC_JOBS");
    }
  }
  return jobs != 0 ? jobs : hardware_threads();
}

void set_configured_jobs(std::size_t jobs) {
  g_configured_jobs.store(jobs, std::memory_order_relaxed);
}

std::size_t apply_jobs_flag(const CliArgs& args) {
  const std::size_t jobs = args.get_int("jobs", 0);
  if (jobs != 0) set_configured_jobs(jobs);
  return jobs;
}

ThreadPool& global_pool() {
  static ThreadPool pool(std::min(configured_jobs(), hardware_threads()));
  return pool;
}

}  // namespace coloc
