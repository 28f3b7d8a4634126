// K-fold cross-validation — the standard alternative to the paper's
// repeated random sub-sampling protocol. Included so users can check that
// the reported accuracies are not an artifact of the validation scheme
// (they are not; both agree to within a fraction of a percent).
#pragma once

#include <cstdint>

#include "ml/validation.hpp"

namespace coloc::ml {

struct KFoldOptions {
  std::size_t folds = 10;
  std::uint64_t seed = 7;
};

struct KFoldResult {
  double test_mpe = 0.0;
  double test_nrmse = 0.0;
  double test_mpe_stddev = 0.0;  // across folds
  std::size_t folds = 0;
};

/// Partitions rows into k folds; trains on k-1, tests on the held-out
/// fold, and averages MPE / NRMSE across folds.
KFoldResult kfold_cross_validation(const Dataset& data,
                                   std::span<const std::size_t> columns,
                                   const ModelFactory& factory,
                                   const KFoldOptions& options = {});

/// Deterministic fold assignment helper (exposed for tests): returns a
/// fold index in [0, folds) per row, a seeded shuffle of the round-robin
/// assignment so every fold holds floor or ceil(rows / folds) rows.
std::vector<std::size_t> make_fold_assignment(std::size_t rows,
                                              std::size_t folds,
                                              std::uint64_t seed);

}  // namespace coloc::ml
