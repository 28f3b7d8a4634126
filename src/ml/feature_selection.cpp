#include "ml/feature_selection.hpp"

#include <limits>

#include "common/error.hpp"

namespace coloc::ml {

ForwardSelectionResult forward_select_features(
    const Dataset& data, const ModelFactory& factory,
    const ValidationOptions& validation) {
  const std::size_t total = data.num_features();
  COLOC_CHECK_MSG(total > 0, "dataset has no features");

  ForwardSelectionResult result;
  std::vector<bool> used(total, false);

  while (result.selected.size() < total) {
    std::size_t best_column = total;
    double best_mpe = std::numeric_limits<double>::infinity();

    for (std::size_t candidate = 0; candidate < total; ++candidate) {
      if (used[candidate]) continue;
      std::vector<std::size_t> columns = result.selected;
      columns.push_back(candidate);
      const ValidationResult r = repeated_subsampling_validation(
          data, columns, factory, validation);
      if (r.test_mpe < best_mpe) {
        best_mpe = r.test_mpe;
        best_column = candidate;
      }
    }
    COLOC_CHECK(best_column < total);

    used[best_column] = true;
    result.selected.push_back(best_column);
    result.steps.push_back(SelectionStep{
        best_column, data.feature_names()[best_column], best_mpe});
  }
  return result;
}

}  // namespace coloc::ml
