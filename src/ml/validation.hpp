// Repeated random sub-sampling validation (Section IV-B4).
//
// The paper withholds a random 30% of the data from training, evaluates on
// it, and repeats the partitioning 100 times, averaging the error metrics
// (a bootstrap-style protocol after Efron & Tibshirani). This module
// implements that protocol generically over any model factory and runs the
// partitions in parallel.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/model.hpp"

namespace coloc::ml {

/// Builds a trained model from a design matrix and targets. The factory is
/// called once per partition with that partition's training split.
using ModelFactory = std::function<RegressorPtr(
    const linalg::Matrix& x_train, std::span<const double> y_train)>;

struct ValidationOptions {
  std::size_t partitions = 100;   // paper: one hundred
  double holdout_fraction = 0.3;  // paper: thirty percent withheld
  std::uint64_t seed = 7;
  /// The most global_pool() workers that train partitions at once (1 =
  /// inline on the calling thread). 0 = coloc::configured_jobs() (the
  /// --jobs / COLOC_JOBS knob); any value yields identical numbers: each
  /// partition draws from its own counter-based RNG stream and the
  /// reduction folds per-partition errors in partition order.
  std::size_t jobs = 0;
  /// Collect per-sample held-out predictions (needed for Figure 5b).
  bool collect_test_predictions = false;
};

/// One held-out prediction, tagged with the dataset row's provenance string.
struct TaggedPrediction {
  std::string tag;
  double actual = 0.0;
  double predicted = 0.0;
};

struct ValidationResult {
  // Averages over partitions.
  double train_mpe = 0.0;
  double test_mpe = 0.0;
  double train_nrmse = 0.0;
  double test_nrmse = 0.0;
  // Across-partition standard deviations (the paper reports these are at
  // most a quarter of a percent).
  double test_mpe_stddev = 0.0;
  double test_nrmse_stddev = 0.0;
  std::size_t partitions = 0;
  std::vector<TaggedPrediction> test_predictions;  // optional, see options
};

/// Runs the protocol: for each partition, split rows 70/30 (train/test),
/// train via `factory` on the training design matrix built from `columns`,
/// then score MPE and NRMSE on both splits.
ValidationResult repeated_subsampling_validation(
    const Dataset& data, std::span<const std::size_t> columns,
    const ModelFactory& factory, const ValidationOptions& options = {});

/// One model's validation request for the batch API below.
struct ValidationJob {
  std::vector<std::size_t> columns;
  ModelFactory factory;
  ValidationOptions options;
};

/// Validates many models against the same dataset by flattening every
/// (job, partition) pair into one task list and running it as one
/// parallel_for on global_pool(), capped at the largest `jobs` among the
/// requests. Compared with validating each model in turn, the tail of
/// one model's slow partitions overlaps the next model's work, and the
/// per-job design matrix over every row is materialized once — each
/// partition then row-gathers its train/test splits from it (bit-identical
/// values, no per-partition feature re-indexing). Results are returned in
/// job order; every number matches repeated_subsampling_validation run
/// per job, at any thread count.
std::vector<ValidationResult> repeated_subsampling_validation_batch(
    const Dataset& data, std::span<const ValidationJob> jobs);

/// Deterministic train/test index split helper (exposed for tests).
struct SplitIndices {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};
SplitIndices random_split(std::size_t n, double holdout_fraction,
                          std::uint64_t seed);

}  // namespace coloc::ml
