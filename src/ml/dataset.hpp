// Tabular dataset container with named feature columns and one target.
//
// The campaign driver (src/core/campaign) emits these; the model zoo trains
// on them. Standardization statistics are computed on training data only and
// applied to held-out data, matching sound evaluation practice.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "linalg/matrix.hpp"

namespace coloc::ml {

/// A feature matrix (row per observation) plus target vector and metadata.
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::vector<std::string> feature_names, std::string target_name);

  std::size_t num_rows() const { return targets_.size(); }
  std::size_t num_features() const { return feature_names_.size(); }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  const std::string& target_name() const { return target_name_; }

  /// Appends an observation; `features` length must equal num_features().
  /// Rows containing NaN/Inf features or a non-finite target are rejected
  /// with coloc::data_error — a single poisoned row silently corrupts SCG
  /// training, so corruption must be caught at ingestion, not at fit time.
  /// `tag` is free-form provenance (e.g. "canneal|cg|x4|2.7GHz") used by
  /// per-application error breakdowns (Figure 5).
  void add_row(std::span<const double> features, double target,
               std::string tag = "");

  std::span<const double> features(std::size_t row) const;
  double target(std::size_t row) const { return targets_[row]; }
  const std::string& tag(std::size_t row) const { return tags_[row]; }
  const std::vector<double>& targets() const { return targets_; }

  /// Materializes the design matrix for the given subset of rows and subset
  /// of feature columns (by index). Used to train feature sets A-F without
  /// copying the whole campaign dataset six times.
  linalg::Matrix design_matrix(std::span<const std::size_t> rows,
                               std::span<const std::size_t> columns) const;

  std::vector<double> target_subset(std::span<const std::size_t> rows) const;

  /// Subset by row indices into a new Dataset (all feature columns).
  Dataset subset(std::span<const std::size_t> rows) const;

  /// Column index for a named feature; throws if absent.
  std::size_t feature_index(const std::string& name) const;

  /// One column per feature, then the target, then "tag". Every double
  /// is written by obs::format_double, so from_csv reads it back bit for
  /// bit.
  CsvTable to_csv() const;
  /// Loads a table such as to_csv writes: `target` is the target column,
  /// a "tag" column (if any) the row tags, and every other column a
  /// feature. A field that is not a finite number throws
  /// coloc::data_error naming its row and column, so a loaded Dataset
  /// holds only finite values, like one built through add_row; so does a
  /// header without the target column or without a feature column.
  static Dataset from_csv(const CsvTable& table, const std::string& target);

 private:
  void append_unchecked(std::span<const double> features, double target,
                        std::string tag);
  std::vector<std::string> feature_names_;
  std::string target_name_;
  std::vector<double> values_;  // row-major, num_rows x num_features
  std::vector<double> targets_;
  std::vector<std::string> tags_;
};

/// Per-column affine transform fitted on training rows: z = (x - mean) / sd.
/// Columns with zero variance pass through unscaled (sd treated as 1).
class Standardizer {
 public:
  /// Fits on the given design matrix (one column per feature).
  static Standardizer fit(const linalg::Matrix& x);

  /// Applies in place.
  void transform(linalg::Matrix& x) const;
  void transform_row(std::span<double> row) const;

  /// Inverse transform of a single column vector of values for column `c`.
  double inverse(std::size_t c, double z) const;

  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& stddevs() const { return stddevs_; }

  /// Reconstructs a standardizer from stored parameters (deserialization).
  static Standardizer from_params(std::vector<double> means,
                                  std::vector<double> stddevs);

 private:
  std::vector<double> means_;
  std::vector<double> stddevs_;
};

/// Scalar standardizer for the target variable.
class TargetScaler {
 public:
  static TargetScaler fit(std::span<const double> y);
  double transform(double y) const { return (y - mean_) / sd_; }
  double inverse(double z) const { return z * sd_ + mean_; }
  std::vector<double> transform_all(std::span<const double> y) const;

  double mean() const { return mean_; }
  double sd() const { return sd_; }
  /// Reconstructs a scaler from stored parameters (deserialization).
  static TargetScaler from_params(double mean, double sd);

 private:
  double mean_ = 0.0;
  double sd_ = 1.0;
};

}  // namespace coloc::ml
