#include "ml/kfold.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "ml/metrics.hpp"

namespace coloc::ml {

std::vector<std::size_t> make_fold_assignment(std::size_t rows,
                                              std::size_t folds,
                                              std::uint64_t seed) {
  COLOC_CHECK_MSG(folds >= 2, "need at least two folds");
  COLOC_CHECK_MSG(rows >= folds, "fewer rows than folds");
  std::vector<std::size_t> assignment(rows);
  for (std::size_t i = 0; i < rows; ++i) assignment[i] = i % folds;
  Rng rng(seed);
  rng.shuffle(assignment);
  return assignment;
}

KFoldResult kfold_cross_validation(const Dataset& data,
                                   std::span<const std::size_t> columns,
                                   const ModelFactory& factory,
                                   const KFoldOptions& options) {
  COLOC_CHECK_MSG(!columns.empty(), "need at least one feature column");
  const std::vector<std::size_t> assignment =
      make_fold_assignment(data.num_rows(), options.folds, options.seed);

  std::vector<double> fold_mpe(options.folds);
  std::vector<double> fold_nrmse(options.folds);

  auto run_fold = [&](std::size_t fold) {
    std::vector<std::size_t> train_rows, test_rows;
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
      (assignment[r] == fold ? test_rows : train_rows).push_back(r);
    }
    const linalg::Matrix x_train = data.design_matrix(train_rows, columns);
    const std::vector<double> y_train = data.target_subset(train_rows);
    const linalg::Matrix x_test = data.design_matrix(test_rows, columns);
    const std::vector<double> y_test = data.target_subset(test_rows);

    const RegressorPtr model = factory(x_train, y_train);
    COLOC_CHECK_MSG(model != nullptr, "model factory returned null");
    const std::vector<double> pred = model->predict_all(x_test);
    fold_mpe[fold] = mean_percent_error(pred, y_test);
    fold_nrmse[fold] = normalized_rmse(pred, y_test);
  };

  parallel_for(global_pool(), options.folds, run_fold, 1);

  KFoldResult result;
  result.folds = options.folds;
  result.test_mpe = mean(fold_mpe);
  result.test_nrmse = mean(fold_nrmse);
  result.test_mpe_stddev = stddev(fold_mpe);
  return result;
}

}  // namespace coloc::ml
