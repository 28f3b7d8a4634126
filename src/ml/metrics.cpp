#include "ml/metrics.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace coloc::ml {

namespace {
void check_pair(std::span<const double> predicted,
                std::span<const double> actual) {
  COLOC_CHECK_MSG(predicted.size() == actual.size(),
                  "prediction/actual length mismatch");
  COLOC_CHECK_MSG(!predicted.empty(), "metrics need at least one sample");
}
}  // namespace

double mean_percent_error(std::span<const double> predicted,
                          std::span<const double> actual) {
  check_pair(predicted, actual);
  double s = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    COLOC_CHECK_MSG(actual[i] != 0.0, "MPE undefined for zero actual value");
    s += std::abs((predicted[i] - actual[i]) / actual[i]);
  }
  return 100.0 * s / static_cast<double>(actual.size());
}

double normalized_rmse(std::span<const double> predicted,
                       std::span<const double> actual) {
  check_pair(predicted, actual);
  const double range = max_of(actual) - min_of(actual);
  COLOC_CHECK_MSG(range > 0.0, "NRMSE needs a nonzero actual range");
  return 100.0 * rmse(predicted, actual) / range;
}

double rmse(std::span<const double> predicted,
            std::span<const double> actual) {
  check_pair(predicted, actual);
  double s = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double d = predicted[i] - actual[i];
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(actual.size()));
}

}  // namespace coloc::ml
