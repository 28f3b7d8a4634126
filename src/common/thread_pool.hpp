// Fixed-size thread pool plus a blocking parallel_for.
//
// Every parallel stage (trace profiling, the campaign, validation, the zoo,
// k-fold, policy replays) runs on the one global_pool() through
// parallel_for, each call under its own worker cap. The bootstrap
// validation harness, for instance, trains 100 model partitions per
// feature set; these are embarrassingly parallel.
//
// Instrumentation (see src/obs/): parallel_for books each chunk it runs
// into queue-wait and execution histograms (`pool_queue_wait_seconds`,
// `pool_exec_seconds`) and a task counter (`pool_tasks_total`) in the
// global metrics registry, and emits a "pool/task" span per chunk parented
// on the caller's span (the cross-thread edge a trace viewer follows back
// to the submitting stage). Each call also returns its own measured
// PoolStats. The pool itself keeps per-worker busy/idle accounting
// (stats()), a queue-depth gauge (`pool_queue_depth`) and, when a
// TraceSink is installed, a "pool/busy_workers" counter timeline.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace coloc {

class CliArgs;

/// Worker accounting, from ThreadPool::stats() (the pool's lifetime) or
/// from one parallel_for call.
///
/// ThreadPool::stats(): busy covers task execution; idle covers
/// condition-variable waits, including waits still open at the time of the
/// call and the final wait a worker sits in until shutdown() wakes it (so
/// a pool that ran nothing reports utilization ~0, not ~1). wait_seconds
/// and wall_seconds stay 0.
///
/// parallel_for: workers = runners used, busy covers the call's chunks,
/// wall_seconds is the call's wall, and idle is read from each runner's
/// own clock: its start delay (call start -> runner start, summed into
/// wait_seconds: the call's scheduling delay) plus its tail (runner end ->
/// call end). What remains of workers x wall_seconds is the runners' time
/// between chunks, which obs/attribution's stage check bounds.
struct PoolStats {
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  double wait_seconds = 0.0;
  double wall_seconds = 0.0;
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
  /// Creates `threads` workers; 0 means every hardware thread (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Stops accepting work, drains the queue, and joins the workers.
  /// Idempotent; also invoked by the destructor.
  void shutdown();

  /// Blocks until the queue is empty and every in-flight task has fully
  /// retired — including the worker's busy-time and task-count
  /// bookkeeping, which runs after the task's future is fulfilled. Call
  /// before tearing down a TraceSink so the written trace is complete: a
  /// span a worker closes after the sink swap is silently dropped. The
  /// pool stays usable afterwards.
  void quiesce();

  /// Snapshot of per-worker busy/idle accounting (valid during the pool's
  /// life and after shutdown). Condition-variable waits still open at the
  /// time of the call are counted as idle up to "now".
  PoolStats stats() const;

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

  void enqueue(std::function<void()> task);
  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  // Sized once in the constructor, before any worker starts; never resized
  // (the atomics make WorkerStats immovable).
  std::vector<WorkerStats> worker_stats_;
  std::atomic<int> busy_workers_{0};
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  bool stopping_ = false;
};

/// Publishes one stage's pool accounting to the global metrics registry
/// as gauges labeled {stage=...}: stage_pool_busy_seconds,
/// stage_pool_idle_seconds, stage_pool_wait_seconds (the scheduling
/// delay), stage_pool_wall_seconds (the call's wall), stage_pool_workers
/// and stage_pool_utilization. Orchestrators call this with the PoolStats
/// their parallel_for call returned, so per-stage numbers are not polluted
/// by idle time the shared pool accrues during other stages. The gauges
/// hold the last call; every call is checked here instead: one whose
/// |workers x wall - busy - idle| exceeds obs::residual_tolerance bumps
/// stage_pool_unbalanced_calls_total{stage} (registered at 0 on every
/// call), which obs_report fails on (obs/attribution).
void export_stage_pool_gauges(const std::string& stage, const PoolStats& s);

/// Runs body(i) for i in [0, n) across the pool, blocking until all
/// iterations finish. Iterations are grouped into chunks of `chunk`
/// indices (0 = about four chunks per worker) to limit scheduling
/// overhead. At most min(workers, pool.size(), chunks) bodies run at once
/// (`workers` 0 = the pool size): that many runner tasks claim chunks in
/// index order from one shared counter. The first exception thrown by any
/// iteration is rethrown to the caller after every claimed chunk has
/// finished; no chunk is claimed after it.
///
/// Each chunk books its wait (call start to claim) and run time into
/// pool_queue_wait_seconds / pool_exec_seconds, one pool_tasks_total
/// increment and one "pool/task" span parented on the caller's span. The
/// chunk wait is the chunk's backlog position, not a scheduling delay:
/// the last chunks of a large call wait for nearly the whole call, so on
/// large calls the histogram tracks stage wall. The scheduling delay is
/// the returned wait_seconds.
///
/// Returns this call's own measured accounting (see PoolStats); an inline
/// call reports one worker, busy = wall and no idle.
///
/// Runs inline on the calling thread, in index order and without per-chunk
/// bookkeeping, when the cap allows one runner, and when the caller is
/// itself a pool worker (any pool). A blocking fan-out from inside a
/// worker can deadlock (every worker waiting on chunks only the waiting
/// workers could run) and at best oversubscribes the machine; running
/// inline keeps nested parallelism (parallel validation partitions
/// training MLPs whose SCG restarts would also fan out) correct and
/// composable by construction.
PoolStats parallel_for(ThreadPool& pool, std::size_t n,
                       const std::function<void(std::size_t)>& body,
                       std::size_t chunk = 0, std::size_t workers = 0);

/// The process-wide parallelism knob: the most workers global_pool() and
/// each stage's parallel_for call may use. Resolution order: the value
/// installed by set_configured_jobs(), else the COLOC_JOBS environment
/// variable, else the hardware threads. Always returns at least 1.
/// Throws coloc::invalid_argument_error naming COLOC_JOBS when it is set
/// to anything but a whole non-negative integer.
std::size_t configured_jobs();

/// Installs the jobs knob (benches parse --jobs into this). 0 clears the
/// override so configured_jobs() falls back to COLOC_JOBS / hardware.
/// Must run before the first global_pool() use to affect its size; later
/// calls still steer the per-call caps of stages that consult
/// configured_jobs() per run.
void set_configured_jobs(std::size_t jobs);

/// Reads the --jobs flag of the bench, example and tool programs (absent =
/// 0) and installs a non-zero value with set_configured_jobs(). Returns
/// the value read. Throws coloc::invalid_argument_error naming --jobs
/// unless it is a whole non-negative integer.
std::size_t apply_jobs_flag(const CliArgs& args);

/// The shared process-wide pool: min(configured_jobs(), hardware threads)
/// workers, so no stage can start more threads than the machine has.
ThreadPool& global_pool();

/// True when the calling thread is a worker of ANY ThreadPool; a
/// parallel_for from such a thread runs inline (see above).
bool on_worker_thread();

}  // namespace coloc
