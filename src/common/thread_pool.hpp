// Fixed-size thread pool plus a blocking parallel_for.
//
// The bootstrap validation harness trains 100 model partitions per feature
// set; these are embarrassingly parallel and scheduled through this pool.
//
// Instrumentation (see src/obs/): the pool maintains a queue-depth gauge
// (`pool_queue_depth`), queue-wait and execution histograms
// (`pool_queue_wait_seconds`, `pool_exec_seconds`) and a task counter
// (`pool_tasks_total`) in the global metrics registry; per-worker
// busy/idle accounting is exposed via stats(). When a TraceSink is
// installed each task additionally emits a "pool/task" span parented on
// the span that submitted it (the cross-thread dependency edge walked by
// obs::attribution) and a "pool/busy_workers" counter timeline.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace coloc {

/// Aggregated per-pool worker accounting, read via ThreadPool::stats().
/// busy covers task execution; idle covers condition-variable waits,
/// including waits still open at the time of the stats() call and the
/// final wait a worker sits in until shutdown() wakes it (so a pool that
/// ran nothing reports utilization ~0, not ~1).
struct PoolStats {
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  std::uint64_t tasks = 0;
  std::size_t workers = 0;

  /// busy / (busy + idle); 0 when the pool never started a wait or task.
  double utilization() const {
    const double total = busy_seconds + idle_seconds;
    return total > 0.0 ? busy_seconds / total : 0.0;
  }
};

/// A minimal task-queue thread pool. Tasks are std::function<void()>;
/// submit() returns a future for completion/exception propagation.
///
/// Shutdown contract: shutdown() (or the destructor) stops intake FIRST,
/// then drains the queue and joins the workers. Any submit() call racing
/// with — or arriving after — shutdown throws coloc::runtime_error rather
/// than accepting a task that would never run; a task whose submit()
/// returned normally is guaranteed to execute before shutdown() returns.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Stops accepting work, drains the queue, and joins the workers.
  /// Idempotent; also invoked by the destructor.
  void shutdown();

  /// Blocks until the queue is empty and every in-flight task has fully
  /// retired — including its trace span and metric bookkeeping, which run
  /// after the task's future is fulfilled. Call before tearing down a
  /// TraceSink so no worker is still mid-span when the trace is written
  /// (a span recorded after the sink swap is silently dropped, orphaning
  /// its already-recorded children). The pool stays usable afterwards.
  void quiesce();

  /// Snapshot of per-worker busy/idle accounting (valid during the pool's
  /// life and after shutdown). Condition-variable waits still open at the
  /// time of the call are counted as idle up to "now".
  PoolStats stats() const;

  /// Samples the per-task observability extras — queue-wait/exec
  /// histograms, "pool/task" spans, busy-worker trace counters, the
  /// queue-depth gauge — so only every stride-th task pays for them.
  /// Sub-millisecond tasks (coalesced sweep cells) otherwise spend more
  /// time in bookkeeping than in work. busy/idle/task accounting, future
  /// semantics and quiesce() remain exact for every task. 0 or 1 restores
  /// full instrumentation (the default).
  void set_instrument_stride(std::size_t stride);

  /// Enqueues a task; the returned future rethrows any task exception.
  /// Throws coloc::runtime_error if the pool has been shut down — a task
  /// accepted after shutdown would never run.
  template <typename F>
  std::future<void> submit(F&& f) {
    auto task =
        std::make_shared<std::packaged_task<void()>>(std::forward<F>(f));
    std::future<void> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

 private:
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
    // Trace span open on the submitting thread at enqueue time (0 = none);
    // the worker parents its "pool/task" span on it so exported traces
    // carry the submit -> execute dependency edge.
    std::uint64_t submit_span_id = 0;
    // False for tasks the instrument stride skipped: the worker runs them
    // without histograms/spans/trace counters.
    bool instrument = true;
  };

  /// Per-worker accounting. Intervals are booked when they end; an open
  /// condition-variable wait is published via waiting/wait_start_ns so
  /// stats() can include it without touching the pool mutex.
  struct WorkerStats {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> idle_ns{0};
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> wait_start_ns{0};
    std::atomic<bool> waiting{false};
  };

  void enqueue(std::function<void()> fn);
  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  // Sized once in the constructor, before any worker starts; never resized
  // (the atomics make WorkerStats immovable).
  std::vector<WorkerStats> worker_stats_;
  std::atomic<int> busy_workers_{0};
  std::atomic<std::size_t> instrument_stride_{1};
  std::atomic<std::uint64_t> task_seq_{0};
  std::queue<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  bool stopping_ = false;
};

/// Publishes one stage's pool accounting to the global metrics registry
/// as gauges labeled {stage=...}: stage_pool_busy_seconds,
/// stage_pool_idle_seconds, stage_pool_workers, stage_pool_utilization.
/// Orchestrators call this with their own pool's (or a before/after delta
/// of the global pool's) stats so per-stage numbers are not polluted by
/// idle time the shared pool accrues during other stages; obs::attribution
/// reads these gauges to attribute the serial-vs-parallel wall gap.
void export_stage_pool_gauges(const std::string& stage, const PoolStats& s);

/// Runs body(i) for i in [0, n) across the pool, blocking until all
/// iterations finish. Iterations are chunked to limit scheduling overhead.
/// The first exception thrown by any iteration is rethrown to the caller
/// after all chunks complete.
///
/// Nested-pool awareness: when the caller is itself a pool worker (any
/// pool), the loop runs inline on the calling thread instead of being
/// submitted. A blocking fan-out from inside a worker can deadlock (every
/// worker waiting on chunks only the waiting workers could run) and at
/// best oversubscribes the machine; running inline keeps nested
/// parallelism (parallel validation partitions training MLPs whose SCG
/// restarts would also fan out) correct and composable by construction.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  std::size_t chunk = 0);

/// The process-wide parallelism knob: how many workers global_pool() (and
/// orchestration layers that size their own pools from it) should use.
/// Resolution order: the value installed by set_configured_jobs(), else
/// the COLOC_JOBS environment variable, else hardware_concurrency.
/// Always returns at least 1.
std::size_t configured_jobs();

/// Installs the jobs knob (benches parse --jobs into this). 0 clears the
/// override so configured_jobs() falls back to COLOC_JOBS / hardware.
/// Must run before the first global_pool() use to affect its size; later
/// calls still steer orchestrators that consult configured_jobs() per run.
void set_configured_jobs(std::size_t jobs);

/// Convenience: shared process-wide pool sized to configured_jobs().
ThreadPool& global_pool();

/// True when the calling thread is a worker of ANY ThreadPool. Code that
/// fans out over global_pool() (e.g. the validation batch, train_full_zoo)
/// must run serially when already on a worker: a blocking parallel_for
/// from inside a worker would wait on chunks that can only run on the
/// thread doing the waiting.
bool on_worker_thread();

}  // namespace coloc
