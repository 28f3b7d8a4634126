#include "ml/kfold.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ml/linear_model.hpp"

namespace coloc::ml {
namespace {

Dataset linear_dataset(std::size_t n, double noise_sd, std::uint64_t seed) {
  coloc::Rng rng(seed);
  Dataset ds({"x0", "x1"}, "y");
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(1, 5);
    const double x1 = rng.uniform(0, 2);
    ds.add_row(std::vector<double>{x0, x1},
               10.0 + 3.0 * x0 + 2.0 * x1 + rng.normal(0, noise_sd));
  }
  return ds;
}

ModelFactory linear_factory() {
  return [](const linalg::Matrix& x,
            std::span<const double> y) -> RegressorPtr {
    return std::make_unique<LinearModel>(LinearModel::fit(x, y));
  };
}

TEST(FoldAssignment, BalancedFolds) {
  const auto assignment = make_fold_assignment(100, 10, 1);
  std::vector<int> counts(10, 0);
  for (auto f : assignment) ++counts[f];
  for (int c : counts) EXPECT_EQ(c, 10);
}

TEST(FoldAssignment, UnevenRowsStayBalancedWithinOne) {
  const auto assignment = make_fold_assignment(103, 10, 2);
  std::vector<int> counts(10, 0);
  for (auto f : assignment) ++counts[f];
  for (int c : counts) {
    EXPECT_GE(c, 10);
    EXPECT_LE(c, 11);
  }
}

TEST(FoldAssignment, DeterministicPerSeed) {
  EXPECT_EQ(make_fold_assignment(50, 5, 9),
            make_fold_assignment(50, 5, 9));
  EXPECT_NE(make_fold_assignment(50, 5, 9),
            make_fold_assignment(50, 5, 10));
}

TEST(FoldAssignment, RejectsBadInputs) {
  EXPECT_THROW(make_fold_assignment(10, 1, 0), coloc::runtime_error);
  EXPECT_THROW(make_fold_assignment(3, 5, 0), coloc::runtime_error);
}

TEST(KFold, NearZeroErrorOnNoiselessData) {
  const Dataset ds = linear_dataset(100, 0.0, 1);
  const std::vector<std::size_t> cols = {0, 1};
  const KFoldResult r = kfold_cross_validation(ds, cols, linear_factory(),
                                               {.folds = 5});
  EXPECT_LT(r.test_mpe, 1e-6);
  EXPECT_EQ(r.folds, 5u);
}

TEST(KFold, AgreesWithRepeatedSubsampling) {
  // Both protocols should report similar error on the same data.
  const Dataset ds = linear_dataset(300, 1.0, 2);
  const std::vector<std::size_t> cols = {0, 1};
  const KFoldResult kf = kfold_cross_validation(ds, cols, linear_factory(),
                                                {.folds = 10});
  const ValidationResult rs = repeated_subsampling_validation(
      ds, cols, linear_factory(), {.partitions = 20});
  EXPECT_NEAR(kf.test_mpe, rs.test_mpe, 0.5 * rs.test_mpe);
}

TEST(KFold, SerialAndParallelAgree) {
  // Called from a pool worker, the folds run inline in fold order; called
  // directly, they fan out over the global pool. Each fold's numbers
  // depend only on the fold, so the two agree exactly.
  const Dataset ds = linear_dataset(120, 0.5, 3);
  const std::vector<std::size_t> cols = {0, 1};
  const KFoldOptions options{.folds = 6, .seed = 4};
  const KFoldResult parallel =
      kfold_cross_validation(ds, cols, linear_factory(), options);
  ThreadPool pool(2);
  KFoldResult serial;
  parallel_for(pool, 2, [&](std::size_t i) {
    if (i != 0) return;
    EXPECT_TRUE(on_worker_thread());
    serial = kfold_cross_validation(ds, cols, linear_factory(), options);
  }, 1);
  EXPECT_EQ(serial.test_mpe, parallel.test_mpe);
  EXPECT_EQ(serial.test_nrmse, parallel.test_nrmse);
  EXPECT_EQ(serial.test_mpe_stddev, parallel.test_mpe_stddev);
}

TEST(KFold, EmptyColumnsThrow) {
  const Dataset ds = linear_dataset(50, 0.1, 5);
  EXPECT_THROW(kfold_cross_validation(ds, {}, linear_factory(), {}),
               coloc::runtime_error);
}

}  // namespace
}  // namespace coloc::ml
