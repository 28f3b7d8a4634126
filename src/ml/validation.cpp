#include "ml/validation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/memo.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "ml/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"

namespace coloc::ml {

namespace {
struct ValidationMetrics {
  obs::Counter& partitions;
  obs::Counter& tasks_queued;
  obs::Counter& tasks_completed;
  obs::Histogram& partition_seconds;
  obs::Gauge& last_test_mpe;

  static ValidationMetrics& get() {
    auto& registry = obs::Registry::global();
    static ValidationMetrics metrics{
        registry.counter("validation_partitions_total"),
        registry.counter("orchestrator_tasks_queued_total",
                         {{"stage", "validation"}}),
        registry.counter("orchestrator_tasks_completed_total",
                         {{"stage", "validation"}}),
        registry.histogram("validation_partition_seconds"),
        registry.gauge("validation_last_test_mpe"),
    };
    return metrics;
  }
};

std::size_t effective_jobs(const ValidationOptions& options) {
  return options.jobs != 0 ? options.jobs : configured_jobs();
}

/// Copies the selected rows of `src` into a fresh matrix. A straight
/// row-span copy of already-materialized doubles — bit-identical to
/// rebuilding the rows from the dataset, without the per-element column
/// indexing.
linalg::Matrix gather_rows(const linalg::Matrix& src,
                           std::span<const std::size_t> rows) {
  linalg::Matrix out(rows.size(), src.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::span<const double> from = src.row(rows[i]);
    std::copy(from.begin(), from.end(), out.row(i).begin());
  }
  return out;
}

std::vector<double> gather(std::span<const double> src,
                           std::span<const std::size_t> rows) {
  std::vector<double> out;
  out.reserve(rows.size());
  for (std::size_t r : rows) out.push_back(src[r]);
  return out;
}

/// Per-job working set: the design matrix over every row is built once,
/// then every partition row-gathers its splits from it.
struct JobState {
  const ValidationJob* job = nullptr;
  linalg::Matrix x_full;       // every row x job->columns
  std::vector<double> y_full;  // every row
  std::vector<double> train_mpe, test_mpe, train_nrmse, test_nrmse;
  std::vector<std::vector<TaggedPrediction>> collected;
};
}  // namespace

SplitIndices random_split(std::size_t n, double holdout_fraction,
                          std::uint64_t seed) {
  COLOC_CHECK_MSG(holdout_fraction > 0.0 && holdout_fraction < 1.0,
                  "holdout fraction must be in (0, 1)");
  COLOC_CHECK_MSG(n >= 4, "too few rows to split");
  Rng rng(seed);
  std::vector<std::size_t> perm = rng.permutation(n);
  std::size_t n_test = static_cast<std::size_t>(
      std::round(holdout_fraction * static_cast<double>(n)));
  n_test = std::clamp<std::size_t>(n_test, 1, n - 2);
  SplitIndices split;
  split.test.assign(perm.begin(), perm.begin() + static_cast<long>(n_test));
  split.train.assign(perm.begin() + static_cast<long>(n_test), perm.end());
  return split;
}

std::vector<ValidationResult> repeated_subsampling_validation_batch(
    const Dataset& data, std::span<const ValidationJob> jobs) {
  COLOC_CHECK_MSG(!jobs.empty(), "need at least one validation job");
  for (const ValidationJob& job : jobs) {
    COLOC_CHECK_MSG(job.options.partitions > 0, "need at least one partition");
    COLOC_CHECK_MSG(!job.columns.empty(), "need at least one feature column");
    COLOC_CHECK_MSG(job.factory != nullptr, "need a model factory");
  }

  obs::ScopedSpan validation_span("validation", "ml");
  obs::StageTimer stage_timer("validation");
  ValidationMetrics& metrics = ValidationMetrics::get();

  const std::size_t n = data.num_rows();
  COLOC_CHECK_MSG(n >= 10, "dataset too small to validate");
  std::vector<std::size_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0);

  std::vector<JobState> states(jobs.size());
  std::size_t total_tasks = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    JobState& state = states[j];
    state.job = &jobs[j];
    state.x_full = data.design_matrix(all_rows, state.job->columns);
    state.y_full = data.targets();
    const std::size_t P = state.job->options.partitions;
    state.train_mpe.resize(P);
    state.test_mpe.resize(P);
    state.train_nrmse.resize(P);
    state.test_nrmse.resize(P);
    state.collected.resize(P);
    total_tasks += P;
  }

  // Flatten every (job, partition) pair into one task list so a slow
  // model's tail partitions overlap the next model's work instead of
  // serializing at a per-model barrier.
  struct TaskRef {
    std::size_t job;
    std::size_t partition;
  };
  std::vector<TaskRef> tasks;
  tasks.reserve(total_tasks);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (std::size_t p = 0; p < jobs[j].options.partitions; ++p) {
      tasks.push_back(TaskRef{j, p});
    }
  }

  obs::ProgressReporter progress("validation", total_tasks);
  // Spans are throttled on big batches: one partition span per stride
  // keeps the trace representative without a per-partition event flood.
  const std::size_t span_stride = std::max<std::size_t>(1, total_tasks / 512);

  // Design-matrix memo, scoped to this batch call: the per-partition seed is
  // job-independent, so jobs over the same feature columns (e.g. the linear
  // and MLP arms of one feature set) gather the exact same train/test split
  // from byte-identical x_full matrices. The memo shares one gathered copy
  // instead of rebuilding it per job. It is an ExactMemo keyed on a byte
  // serialization of columns + seed + holdout fraction + row count +
  // partition, so no hash collision can alias two splits. The memo is
  // invisible: the gather is deterministic, so a shared copy is
  // byte-identical to a job gathering its own (tested against each job
  // validated alone).
  struct GatheredSplit {
    SplitIndices split;
    linalg::Matrix x_train, x_test;
    std::vector<double> y_train, y_test;
  };
  ExactMemo<std::shared_ptr<const GatheredSplit>> memo(
      "validation_design_memo_hits_total",
      "validation_design_memo_misses_total");

  auto run_task = [&](std::size_t t) {
    const TaskRef ref = tasks[t];
    JobState& state = states[ref.job];
    const ValidationOptions& options = state.job->options;
    std::optional<obs::ScopedSpan> partition_span;
    if (t % span_stride == 0) {
      partition_span.emplace("validation/partition", "ml");
    }
    const auto partition_start = std::chrono::steady_clock::now();

    // Derive a per-partition seed so results are independent of scheduling.
    const std::uint64_t seed =
        options.seed * 0x9e3779b97f4a7c15ULL +
        static_cast<std::uint64_t>(ref.partition) * 0x61c88647ULL;
    std::string key;
    key.reserve((state.job->columns.size() + 4) * sizeof(std::uint64_t));
    for (std::size_t col : state.job->columns) memo_key::append_u64(key, col);
    memo_key::append_u64(key, options.seed);
    memo_key::append_double(key, options.holdout_fraction);
    memo_key::append_u64(key, n);
    memo_key::append_u64(key, ref.partition);
    std::shared_ptr<const GatheredSplit> gathered =
        memo.lookup(key).value_or(nullptr);
    if (!gathered) {
      auto fresh = std::make_shared<GatheredSplit>();
      fresh->split = random_split(n, options.holdout_fraction, seed);
      fresh->x_train = gather_rows(state.x_full, fresh->split.train);
      fresh->y_train = gather(state.y_full, fresh->split.train);
      fresh->x_test = gather_rows(state.x_full, fresh->split.test);
      fresh->y_test = gather(state.y_full, fresh->split.test);
      // First writer wins; a racing duplicate is dropped and both tasks
      // keep byte-identical copies either way.
      gathered = memo.store(std::move(key), std::move(fresh));
    }
    const SplitIndices& split = gathered->split;
    const linalg::Matrix& x_train = gathered->x_train;
    const std::vector<double>& y_train = gathered->y_train;
    const linalg::Matrix& x_test = gathered->x_test;
    const std::vector<double>& y_test = gathered->y_test;

    const RegressorPtr model = state.job->factory(x_train, y_train);
    COLOC_CHECK_MSG(model != nullptr, "model factory returned null");

    // Thread-local prediction buffers: one allocation per worker per batch
    // shape instead of two fresh vectors per partition (predict_into is the
    // allocation-free path; numbers match predict_all exactly).
    thread_local std::vector<double> pred_train;
    thread_local std::vector<double> pred_test;
    pred_train.resize(x_train.rows());
    pred_test.resize(x_test.rows());
    model->predict_into(x_train, pred_train);
    model->predict_into(x_test, pred_test);

    state.train_mpe[ref.partition] = mean_percent_error(pred_train, y_train);
    state.test_mpe[ref.partition] = mean_percent_error(pred_test, y_test);
    state.train_nrmse[ref.partition] = normalized_rmse(pred_train, y_train);
    state.test_nrmse[ref.partition] = normalized_rmse(pred_test, y_test);

    if (options.collect_test_predictions) {
      auto& bucket = state.collected[ref.partition];
      bucket.reserve(split.test.size());
      for (std::size_t i = 0; i < split.test.size(); ++i) {
        bucket.push_back(TaggedPrediction{data.tag(split.test[i]), y_test[i],
                                          pred_test[i]});
      }
    }

    metrics.partitions.inc();
    metrics.tasks_completed.inc();
    metrics.partition_seconds.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      partition_start)
            .count());
    progress.tick();
  };

  std::size_t pool_jobs = 1;
  for (const ValidationJob& job : jobs) {
    pool_jobs = std::max(pool_jobs, effective_jobs(job.options));
  }
  metrics.tasks_queued.inc(total_tasks);
  // Results are scheduling-independent (per-partition seeds, in-order
  // reduction), so the worker cap is invisible to outputs.
  const PoolStats pool_stats =
      parallel_for(global_pool(), total_tasks, run_task, 1, pool_jobs);
  export_stage_pool_gauges("validation", pool_stats);
  progress.finish();

  // Reduce per job in partition index order: the same float-add sequence
  // as a serial run, regardless of which worker finished which task when.
  std::vector<ValidationResult> results(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    JobState& state = states[j];
    ValidationResult& result = results[j];
    result.partitions = state.job->options.partitions;
    result.train_mpe = mean(state.train_mpe);
    result.test_mpe = mean(state.test_mpe);
    result.train_nrmse = mean(state.train_nrmse);
    result.test_nrmse = mean(state.test_nrmse);
    result.test_mpe_stddev = stddev(state.test_mpe);
    result.test_nrmse_stddev = stddev(state.test_nrmse);
    metrics.last_test_mpe.set(result.test_mpe);
    if (state.job->options.collect_test_predictions) {
      std::size_t total = 0;
      for (const auto& bucket : state.collected) total += bucket.size();
      result.test_predictions.reserve(total);
      for (auto& bucket : state.collected) {
        result.test_predictions.insert(result.test_predictions.end(),
                                       bucket.begin(), bucket.end());
      }
    }
  }
  return results;
}

ValidationResult repeated_subsampling_validation(
    const Dataset& data, std::span<const std::size_t> columns,
    const ModelFactory& factory, const ValidationOptions& options) {
  ValidationJob job;
  job.columns.assign(columns.begin(), columns.end());
  job.factory = factory;
  job.options = options;
  auto results = repeated_subsampling_validation_batch(data, {&job, 1});
  return std::move(results.front());
}

}  // namespace coloc::ml
