// The paper's twelve models: {linear, neural network} x {sets A-F}
// (Section V-A). This module builds ml::ModelFactory instances with the
// paper's hyperparameter conventions, including the 10-20 hidden-unit rule
// that scales network width with the feature-set size.
#pragma once

#include <cstdint>
#include <string>

#include "core/feature_sets.hpp"
#include "ml/mlp.hpp"
#include "ml/validation.hpp"

namespace coloc::core {

enum class ModelTechnique { kLinear, kNeuralNetwork };

inline constexpr ModelTechnique kAllTechniques[] = {
    ModelTechnique::kLinear, ModelTechnique::kNeuralNetwork};

std::string to_string(ModelTechnique technique);

/// One of the twelve model identities.
struct ModelId {
  ModelTechnique technique = ModelTechnique::kLinear;
  FeatureSet feature_set = FeatureSet::kA;

  std::string name() const {
    return to_string(technique) + "-" + to_string(feature_set);
  }
};

struct ModelZooOptions {
  ml::MlpOptions mlp;  // hidden_units is overridden by the 10-20 rule
  /// Disable the width rule and use mlp.hidden_units verbatim.
  bool fixed_hidden_units = false;
};

/// Paper rule: networks use 10-20 nodes "depending on the model feature
/// set". We interpolate linearly between 10 (set A, one feature) and
/// 20 (set F, eight features).
std::size_t hidden_units_for(FeatureSet set);

/// Builds the training factory for one model identity. The factory is
/// self-contained (safe to call concurrently from validation partitions);
/// `seed_salt` decorrelates NN initializations across identities.
ml::ModelFactory make_model_factory(const ModelId& id,
                                    const ModelZooOptions& options = {},
                                    std::uint64_t seed_salt = 0);

/// Trains one model identity on every row of `dataset`: the feature set's
/// columns over all rows, fitted by make_model_factory(id, options). The
/// deployable ColocationPredictor and the stored zoo both train here.
ml::RegressorPtr train_on_all_rows(const ml::Dataset& dataset,
                                   const ModelId& id,
                                   const ModelZooOptions& options = {});

}  // namespace coloc::core
