#include "ml/validation.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ml/linear_model.hpp"
#include "obs/metrics.hpp"

namespace coloc::ml {
namespace {

Dataset linear_dataset(std::size_t n, double noise_sd, std::uint64_t seed) {
  coloc::Rng rng(seed);
  Dataset ds({"x0", "x1"}, "y");
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(1, 5);
    const double x1 = rng.uniform(0, 2);
    const double y = 10.0 + 3.0 * x0 + 2.0 * x1 + rng.normal(0, noise_sd);
    ds.add_row(std::vector<double>{x0, x1}, y,
               i % 2 == 0 ? "even" : "odd");
  }
  return ds;
}

ModelFactory linear_factory() {
  return [](const linalg::Matrix& x,
            std::span<const double> y) -> RegressorPtr {
    return std::make_unique<LinearModel>(LinearModel::fit(x, y));
  };
}

TEST(RandomSplit, PartitionIsExhaustiveAndDisjoint) {
  const SplitIndices s = random_split(100, 0.3, 42);
  EXPECT_EQ(s.test.size(), 30u);
  EXPECT_EQ(s.train.size(), 70u);
  std::set<std::size_t> all(s.train.begin(), s.train.end());
  all.insert(s.test.begin(), s.test.end());
  EXPECT_EQ(all.size(), 100u);
}

TEST(RandomSplit, DeterministicPerSeed) {
  const SplitIndices a = random_split(50, 0.3, 7);
  const SplitIndices b = random_split(50, 0.3, 7);
  EXPECT_EQ(a.test, b.test);
  const SplitIndices c = random_split(50, 0.3, 8);
  EXPECT_NE(a.test, c.test);
}

TEST(RandomSplit, InvalidFractionThrows) {
  EXPECT_THROW(random_split(50, 0.0, 1), coloc::runtime_error);
  EXPECT_THROW(random_split(50, 1.0, 1), coloc::runtime_error);
}

TEST(RandomSplit, TinyDatasetRejected) {
  EXPECT_THROW(random_split(3, 0.3, 1), coloc::runtime_error);
}

TEST(Validation, NearZeroErrorOnNoiselessLinearData) {
  const Dataset ds = linear_dataset(200, 0.0, 1);
  const std::vector<std::size_t> cols = {0, 1};
  const ValidationResult r = repeated_subsampling_validation(
      ds, cols, linear_factory(), {.partitions = 10, .jobs = 1});
  EXPECT_LT(r.test_mpe, 1e-6);
  EXPECT_LT(r.train_mpe, 1e-6);
}

TEST(Validation, NoisyDataHasTestAtLeastTrainError) {
  const Dataset ds = linear_dataset(120, 1.0, 2);
  const std::vector<std::size_t> cols = {0, 1};
  const ValidationResult r = repeated_subsampling_validation(
      ds, cols, linear_factory(), {.partitions = 40});
  EXPECT_GT(r.test_mpe, 0.0);
  // Held-out error should not be dramatically below training error.
  EXPECT_GT(r.test_mpe, 0.8 * r.train_mpe);
}

TEST(Validation, ReportsRequestedPartitionCount) {
  const Dataset ds = linear_dataset(60, 0.5, 3);
  const std::vector<std::size_t> cols = {0};
  const ValidationResult r = repeated_subsampling_validation(
      ds, cols, linear_factory(), {.partitions = 7});
  EXPECT_EQ(r.partitions, 7u);
}

TEST(Validation, CollectsTaggedPredictions) {
  const Dataset ds = linear_dataset(50, 0.1, 4);
  const std::vector<std::size_t> cols = {0, 1};
  ValidationOptions opts;
  opts.partitions = 4;
  opts.collect_test_predictions = true;
  const ValidationResult r =
      repeated_subsampling_validation(ds, cols, linear_factory(), opts);
  // 4 partitions x 15 held-out rows each.
  EXPECT_EQ(r.test_predictions.size(), 60u);
  for (const auto& p : r.test_predictions) {
    EXPECT_TRUE(p.tag == "even" || p.tag == "odd");
    EXPECT_GT(p.actual, 0.0);
  }
}

TEST(Validation, ParallelAndSerialAgree) {
  const Dataset ds = linear_dataset(80, 0.3, 5);
  const std::vector<std::size_t> cols = {0, 1};
  ValidationOptions serial{.partitions = 12, .seed = 11, .jobs = 1};
  ValidationOptions parallel{.partitions = 12, .seed = 11};
  const ValidationResult a =
      repeated_subsampling_validation(ds, cols, linear_factory(), serial);
  const ValidationResult b =
      repeated_subsampling_validation(ds, cols, linear_factory(), parallel);
  EXPECT_NEAR(a.test_mpe, b.test_mpe, 1e-12);
  EXPECT_NEAR(a.train_nrmse, b.train_nrmse, 1e-12);
}

TEST(Validation, StddevAcrossPartitionsIsSmallForStableData) {
  const Dataset ds = linear_dataset(300, 0.2, 6);
  const std::vector<std::size_t> cols = {0, 1};
  const ValidationResult r = repeated_subsampling_validation(
      ds, cols, linear_factory(), {.partitions = 30});
  // The paper observes at most a quarter percent variation across
  // partitions; our noiseless-but-for-noise setup should be similar.
  EXPECT_LT(r.test_mpe_stddev, 0.25);
}

TEST(Validation, SubsetOfColumnsDegradesFit) {
  const Dataset ds = linear_dataset(150, 0.01, 7);
  const std::vector<std::size_t> both = {0, 1};
  const std::vector<std::size_t> one = {0};
  const ValidationResult full = repeated_subsampling_validation(
      ds, both, linear_factory(), {.partitions = 10});
  const ValidationResult partial = repeated_subsampling_validation(
      ds, one, linear_factory(), {.partitions = 10});
  EXPECT_LT(full.test_mpe, partial.test_mpe);
}

TEST(Validation, NullFactoryResultThrows) {
  const Dataset ds = linear_dataset(40, 0.1, 8);
  const std::vector<std::size_t> cols = {0};
  ModelFactory bad = [](const linalg::Matrix&,
                        std::span<const double>) -> RegressorPtr {
    return nullptr;
  };
  EXPECT_THROW(repeated_subsampling_validation(
                   ds, cols, bad, {.partitions = 2, .jobs = 1}),
               coloc::runtime_error);
}

TEST(Validation, EmptyColumnsThrows) {
  const Dataset ds = linear_dataset(40, 0.1, 9);
  EXPECT_THROW(repeated_subsampling_validation(ds, {}, linear_factory(), {}),
               coloc::runtime_error);
}

TEST(Validation, BatchMatchesPerModelRuns) {
  const Dataset ds = linear_dataset(90, 0.4, 10);
  std::vector<ValidationJob> jobs(2);
  jobs[0].columns = {0, 1};
  jobs[0].factory = linear_factory();
  jobs[0].options = {.partitions = 8, .seed = 21};
  jobs[1].columns = {0};
  jobs[1].factory = linear_factory();
  jobs[1].options = {.partitions = 5, .seed = 33};

  const auto batch = repeated_subsampling_validation_batch(ds, jobs);
  ASSERT_EQ(batch.size(), 2u);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const ValidationResult solo = repeated_subsampling_validation(
        ds, jobs[j].columns, jobs[j].factory, jobs[j].options);
    SCOPED_TRACE("job " + std::to_string(j));
    EXPECT_EQ(batch[j].partitions, solo.partitions);
    EXPECT_EQ(batch[j].train_mpe, solo.train_mpe);
    EXPECT_EQ(batch[j].test_mpe, solo.test_mpe);
    EXPECT_EQ(batch[j].train_nrmse, solo.train_nrmse);
    EXPECT_EQ(batch[j].test_nrmse, solo.test_nrmse);
    EXPECT_EQ(batch[j].test_mpe_stddev, solo.test_mpe_stddev);
    EXPECT_EQ(batch[j].test_nrmse_stddev, solo.test_nrmse_stddev);
  }
}

TEST(Validation, JobsKnobLeavesEveryNumberBitIdentical) {
  const Dataset ds = linear_dataset(70, 0.2, 11);
  const std::vector<std::size_t> cols = {0, 1};
  ValidationOptions serial;
  serial.partitions = 9;
  serial.seed = 5;
  serial.jobs = 1;
  serial.collect_test_predictions = true;
  ValidationOptions parallel = serial;
  parallel.jobs = 4;

  const ValidationResult a =
      repeated_subsampling_validation(ds, cols, linear_factory(), serial);
  const ValidationResult b =
      repeated_subsampling_validation(ds, cols, linear_factory(), parallel);
  // Exact equality, not tolerance: partitions own their RNG streams and
  // the reduction runs in partition index order regardless of scheduling.
  EXPECT_EQ(a.train_mpe, b.train_mpe);
  EXPECT_EQ(a.test_mpe, b.test_mpe);
  EXPECT_EQ(a.train_nrmse, b.train_nrmse);
  EXPECT_EQ(a.test_nrmse, b.test_nrmse);
  EXPECT_EQ(a.test_mpe_stddev, b.test_mpe_stddev);
  EXPECT_EQ(a.test_nrmse_stddev, b.test_nrmse_stddev);
  ASSERT_EQ(a.test_predictions.size(), b.test_predictions.size());
  for (std::size_t i = 0; i < a.test_predictions.size(); ++i) {
    EXPECT_EQ(a.test_predictions[i].tag, b.test_predictions[i].tag) << i;
    EXPECT_EQ(a.test_predictions[i].actual, b.test_predictions[i].actual)
        << i;
    EXPECT_EQ(a.test_predictions[i].predicted,
              b.test_predictions[i].predicted)
        << i;
  }
}

TEST(Validation, GatheredDesignMatrixMatchesDirectMaterialization) {
  // The batch runner builds one design matrix over the usable rows and
  // row-gathers each partition's splits from it. Pin that this yields the
  // exact predictions of the historical path, which materialized each
  // partition's matrix directly from the dataset.
  const Dataset ds = linear_dataset(64, 0.3, 12);
  const std::vector<std::size_t> cols = {0, 1};
  ValidationOptions opts;
  opts.partitions = 1;
  opts.seed = 17;
  opts.jobs = 1;
  opts.collect_test_predictions = true;
  const ValidationResult r =
      repeated_subsampling_validation(ds, cols, linear_factory(), opts);

  // Partition 0 the old way: per-partition Dataset::design_matrix calls.
  const std::uint64_t seed = opts.seed * 0x9e3779b97f4a7c15ULL;
  const SplitIndices split =
      random_split(ds.num_rows(), opts.holdout_fraction, seed);
  const linalg::Matrix x_train = ds.design_matrix(split.train, cols);
  const std::vector<double> y_train = ds.target_subset(split.train);
  const linalg::Matrix x_test = ds.design_matrix(split.test, cols);
  const RegressorPtr model = linear_factory()(x_train, y_train);
  const std::vector<double> pred = model->predict_all(x_test);

  ASSERT_EQ(r.test_predictions.size(), pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    EXPECT_EQ(r.test_predictions[i].predicted, pred[i]) << i;
  }
}

TEST(Validation, DesignMemoIsTransparentAndHitsOnSharedColumns) {
  // Two batch jobs over the same columns and seed gather identical
  // train/test splits; the design memo shares one gathered copy. It must
  // be invisible: every number byte-identical to each job validated alone
  // (a one-job batch has no split to share), and the hit/miss counters
  // prove when it engaged.
  const Dataset ds = linear_dataset(60, 0.05, 21);
  const std::vector<std::size_t> cols{0, 1};
  ValidationOptions opts;
  opts.partitions = 5;
  // Serial execution makes the hit/miss split deterministic: with workers,
  // both twins of a pair can race to a miss (first writer wins, results
  // unchanged) and the counter assertions below would be flaky.
  opts.jobs = 1;
  std::vector<ValidationJob> jobs;
  jobs.push_back({cols, linear_factory(), opts});
  jobs.push_back({cols, linear_factory(), opts});

  auto& registry = obs::Registry::global();
  auto& hit_counter =
      registry.counter("validation_design_memo_hits_total");
  auto& miss_counter =
      registry.counter("validation_design_memo_misses_total");

  const std::uint64_t hits_before = hit_counter.value();
  const std::uint64_t misses_before = miss_counter.value();
  const std::vector<ValidationResult> shared =
      repeated_subsampling_validation_batch(ds, jobs);
  // 10 tasks over 5 unique (columns, partition) splits: 5 misses, 5 hits.
  EXPECT_EQ(hit_counter.value() - hits_before, 5u);
  EXPECT_EQ(miss_counter.value() - misses_before, 5u);

  ASSERT_EQ(shared.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    SCOPED_TRACE(j);
    const std::uint64_t hits_mid = hit_counter.value();
    const ValidationResult alone = repeated_subsampling_validation(
        ds, jobs[j].columns, jobs[j].factory, jobs[j].options);
    EXPECT_EQ(hit_counter.value(), hits_mid);  // every split gathered fresh
    EXPECT_EQ(alone.train_mpe, shared[j].train_mpe);
    EXPECT_EQ(alone.test_mpe, shared[j].test_mpe);
    EXPECT_EQ(alone.train_nrmse, shared[j].train_nrmse);
    EXPECT_EQ(alone.test_nrmse, shared[j].test_nrmse);
    EXPECT_EQ(alone.test_mpe_stddev, shared[j].test_mpe_stddev);
    EXPECT_EQ(alone.test_nrmse_stddev, shared[j].test_nrmse_stddev);
  }
}

TEST(Validation, NeverTrainsMorePartitionsAtOnceThanItsJobs) {
  if (global_pool().size() < 3) {
    GTEST_SKIP() << "needs a global pool of at least 3 workers";
  }
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  const ModelFactory counting = [&](const linalg::Matrix& x,
                                    std::span<const double> y) -> RegressorPtr {
    const int now = ++in_flight;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    // Hold each fit open long enough for overlapping workers to show.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    RegressorPtr model = std::make_unique<LinearModel>(LinearModel::fit(x, y));
    --in_flight;
    return model;
  };
  const Dataset ds = linear_dataset(200, 0.5, 3);
  const std::vector<std::size_t> cols = {0, 1};
  ValidationOptions options;
  options.partitions = 16;
  options.jobs = 2;
  const ValidationResult capped =
      repeated_subsampling_validation(ds, cols, counting, options);
  EXPECT_LE(peak.load(), 2);
  options.jobs = 1;
  const ValidationResult serial =
      repeated_subsampling_validation(ds, cols, linear_factory(), options);
  EXPECT_EQ(capped.test_mpe, serial.test_mpe);
  EXPECT_EQ(capped.test_nrmse, serial.test_nrmse);
}

TEST(Validation, ExportsStagePoolGaugesFromItsOwnCall) {
  if (global_pool().size() < 2) {
    GTEST_SKIP() << "needs a global pool of at least 2 workers";
  }
  const Dataset ds = linear_dataset(200, 0.5, 4);
  ValidationOptions options;
  options.partitions = 8;
  options.jobs = 2;
  repeated_subsampling_validation(ds, std::vector<std::size_t>{0, 1},
                                  linear_factory(), options);
  auto& registry = obs::Registry::global();
  const obs::Labels labels = {{"stage", "validation"}};
  EXPECT_EQ(registry.gauge("stage_pool_workers", labels).value(), 2.0);
  EXPECT_GT(registry.gauge("stage_pool_busy_seconds", labels).value(), 0.0);
  const double utilization =
      registry.gauge("stage_pool_utilization", labels).value();
  EXPECT_GT(utilization, 0.0);
  EXPECT_LE(utilization, 1.0);
}

}  // namespace
}  // namespace coloc::ml
