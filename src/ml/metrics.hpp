// Model-accuracy metrics from Section III-E of the paper.
//
// MPE (Eq. 2): mean absolute percent error of predictions.
// NRMSE (Eq. 3): root-mean-squared relative error normalized by the range
// of the actual values, following the paper's formula.
#pragma once

#include <span>

namespace coloc::ml {

/// Mean Percent Error, Eq. 2:
///   MPE = 100/M * sum |(pred_j - actual_j) / actual_j|
/// Requires all actual values nonzero.
double mean_percent_error(std::span<const double> predicted,
                          std::span<const double> actual);

/// Normalized Root Mean Squared Error, Eq. 3. The paper describes NRMSE in
/// words as "a ratio of Root Mean Squared Error and the interval of values
/// that the actual data can take (actual_max - actual_min)", i.e. the
/// standard definition:
///   NRMSE = 100 * sqrt( (1/M) sum (pred_j - actual_j)^2 )
///               / (actual_max - actual_min)
/// With execution times spanning hundreds of seconds this yields the ~1-4%
/// magnitudes shown in Figures 3-4. Requires a nonzero actual range.
double normalized_rmse(std::span<const double> predicted,
                       std::span<const double> actual);

/// Plain RMSE in the target's units.
double rmse(std::span<const double> predicted, std::span<const double> actual);

}  // namespace coloc::ml
