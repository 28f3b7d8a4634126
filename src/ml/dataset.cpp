#include "ml/dataset.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/json.hpp"

namespace coloc::ml {

Dataset::Dataset(std::vector<std::string> feature_names,
                 std::string target_name)
    : feature_names_(std::move(feature_names)),
      target_name_(std::move(target_name)) {
  COLOC_CHECK_MSG(!feature_names_.empty(), "dataset needs features");
}

void Dataset::add_row(std::span<const double> features, double target,
                      std::string tag) {
  COLOC_CHECK_MSG(features.size() == feature_names_.size(),
                  "feature width mismatch");
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (!std::isfinite(features[i])) {
      throw data_error("row '" + tag + "': feature " + feature_names_[i] +
                       " is not finite");
    }
  }
  if (!std::isfinite(target)) {
    throw data_error("row '" + tag + "': target " + target_name_ +
                     " is not finite");
  }
  append_unchecked(features, target, std::move(tag));
}

void Dataset::append_unchecked(std::span<const double> features,
                               double target, std::string tag) {
  values_.insert(values_.end(), features.begin(), features.end());
  targets_.push_back(target);
  tags_.push_back(std::move(tag));
}

std::span<const double> Dataset::features(std::size_t row) const {
  COLOC_CHECK(row < num_rows());
  return {values_.data() + row * num_features(), num_features()};
}

linalg::Matrix Dataset::design_matrix(
    std::span<const std::size_t> rows,
    std::span<const std::size_t> columns) const {
  linalg::Matrix m(rows.size(), columns.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto src = features(rows[r]);
    for (std::size_t c = 0; c < columns.size(); ++c) {
      COLOC_CHECK(columns[c] < num_features());
      m(r, c) = src[columns[c]];
    }
  }
  return m;
}

std::vector<double> Dataset::target_subset(
    std::span<const std::size_t> rows) const {
  std::vector<double> y(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    COLOC_CHECK(rows[r] < num_rows());
    y[r] = targets_[rows[r]];
  }
  return y;
}

Dataset Dataset::subset(std::span<const std::size_t> rows) const {
  Dataset out(feature_names_, target_name_);
  for (std::size_t r : rows) {
    COLOC_CHECK(r < num_rows());
    // Every stored row was checked on the way in.
    out.append_unchecked(features(r), targets_[r], tags_[r]);
  }
  return out;
}

std::size_t Dataset::feature_index(const std::string& name) const {
  for (std::size_t i = 0; i < feature_names_.size(); ++i)
    if (feature_names_[i] == name) return i;
  throw invalid_argument_error("unknown feature: " + name);
}

CsvTable Dataset::to_csv() const {
  std::vector<std::string> header = feature_names_;
  header.push_back(target_name_);
  header.push_back("tag");
  CsvTable table(std::move(header));
  for (std::size_t r = 0; r < num_rows(); ++r) {
    std::vector<std::string> row;
    row.reserve(num_features() + 2);
    for (double v : features(r)) row.push_back(obs::format_double(v));
    row.push_back(obs::format_double(targets_[r]));
    row.push_back(tags_[r]);
    table.add_row(std::move(row));
  }
  return table;
}

Dataset Dataset::from_csv(const CsvTable& table, const std::string& target) {
  const std::vector<std::string>& header = table.header();
  // A column's index, or header.size() when the header lacks it.
  auto find = [&header](const std::string& name) {
    return static_cast<std::size_t>(
        std::find(header.begin(), header.end(), name) - header.begin());
  };
  const std::size_t target_col = find(target);
  const std::size_t tag_col = find("tag");
  std::vector<std::string> feature_names;
  std::vector<std::size_t> feature_cols;
  for (std::size_t c = 0; c < header.size(); ++c) {
    if (c == target_col || c == tag_col) continue;
    feature_names.push_back(header[c]);
    feature_cols.push_back(c);
  }
  if (target_col == header.size() || feature_cols.empty()) {
    throw data_error("CSV header needs the target column " + target +
                     " and at least one feature column");
  }
  Dataset ds(std::move(feature_names), target);
  std::vector<double> feats(feature_cols.size());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    // at_double throws on a field that is not a finite number.
    for (std::size_t i = 0; i < feature_cols.size(); ++i)
      feats[i] = table.at_double(r, feature_cols[i]);
    const double y = table.at_double(r, target_col);
    ds.append_unchecked(feats, y,
                        tag_col < header.size() ? table.at(r, tag_col) : "");
  }
  return ds;
}

Standardizer Standardizer::fit(const linalg::Matrix& x) {
  Standardizer s;
  const std::size_t n = x.cols();
  s.means_.assign(n, 0.0);
  s.stddevs_.assign(n, 1.0);
  if (x.rows() == 0) return s;
  for (std::size_t c = 0; c < n; ++c) {
    RunningStats rs;
    for (std::size_t r = 0; r < x.rows(); ++r) rs.add(x(r, c));
    s.means_[c] = rs.mean();
    const double sd = rs.stddev();
    s.stddevs_[c] = sd > 1e-12 ? sd : 1.0;
  }
  return s;
}

void Standardizer::transform(linalg::Matrix& x) const {
  COLOC_CHECK_MSG(x.cols() == means_.size(), "standardizer width mismatch");
  for (std::size_t r = 0; r < x.rows(); ++r) transform_row(x.row(r));
}

void Standardizer::transform_row(std::span<double> row) const {
  COLOC_CHECK_MSG(row.size() == means_.size(), "standardizer width mismatch");
  for (std::size_t c = 0; c < row.size(); ++c)
    row[c] = (row[c] - means_[c]) / stddevs_[c];
}

double Standardizer::inverse(std::size_t c, double z) const {
  COLOC_CHECK(c < means_.size());
  return z * stddevs_[c] + means_[c];
}

Standardizer Standardizer::from_params(std::vector<double> means,
                                       std::vector<double> stddevs) {
  COLOC_CHECK_MSG(means.size() == stddevs.size(),
                  "standardizer parameter length mismatch");
  for (double sd : stddevs) {
    COLOC_CHECK_MSG(sd > 0.0, "standardizer stddevs must be positive");
  }
  Standardizer s;
  s.means_ = std::move(means);
  s.stddevs_ = std::move(stddevs);
  return s;
}

TargetScaler TargetScaler::from_params(double mean, double sd) {
  COLOC_CHECK_MSG(sd > 0.0, "target scaler sd must be positive");
  TargetScaler t;
  t.mean_ = mean;
  t.sd_ = sd;
  return t;
}

TargetScaler TargetScaler::fit(std::span<const double> y) {
  TargetScaler t;
  if (y.empty()) return t;
  RunningStats rs;
  for (double v : y) rs.add(v);
  t.mean_ = rs.mean();
  const double sd = rs.stddev();
  t.sd_ = sd > 1e-12 ? sd : 1.0;
  return t;
}

std::vector<double> TargetScaler::transform_all(
    std::span<const double> y) const {
  std::vector<double> z(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) z[i] = transform(y[i]);
  return z;
}

}  // namespace coloc::ml
