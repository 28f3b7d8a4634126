// End-to-end methodology facade (Section III + Section IV-B4).
//
// Ties the pieces together:
//   campaign dataset  ->  12-model evaluation suite (Figures 1-4)
//   campaign dataset  ->  deployable ColocationPredictor (serve/, sched/ DVFS)
//   campaign dataset  ->  PCA feature ranking (Section III-B)
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/model_zoo.hpp"
#include "ml/pca.hpp"
#include "ml/validation.hpp"

namespace coloc::core {

struct EvaluationConfig {
  ml::ValidationOptions validation;  // 100 partitions, 30% holdout
  ModelZooOptions zoo;
};

/// Validation outcome of one of the twelve models.
struct ModelEvaluation {
  ModelId id;
  ml::ValidationResult result;
};

/// All twelve evaluations, ordered technique-major then set A-F.
struct EvaluationSuite {
  std::vector<ModelEvaluation> evaluations;

  const ModelEvaluation& find(ModelTechnique technique,
                              FeatureSet set) const;
};

/// Evaluates every {technique x feature set} model on the dataset with
/// repeated random sub-sampling. `collect_predictions_for` optionally tags
/// one model whose held-out predictions are retained (Figure 5b needs the
/// NN-F predictions).
EvaluationSuite evaluate_model_zoo(
    const ml::Dataset& dataset, const EvaluationConfig& config = {},
    std::optional<ModelId> collect_predictions_for = std::nullopt);

/// A deployment-ready predictor: trained once on the full campaign dataset,
/// then queried from baseline profiles only.
class ColocationPredictor {
 public:
  /// Trains the given model identity on all rows of the dataset.
  static ColocationPredictor train(const ml::Dataset& dataset,
                                   const ModelId& id,
                                   const ModelZooOptions& options = {});

  /// Wraps an already-trained model (e.g. one verified entry out of a
  /// store zoo bundle) as a deployable predictor for its identity.
  static ColocationPredictor from_model(const ModelId& id,
                                        ml::RegressorPtr model);

  /// Predicts the target's co-located execution time (seconds) when run at
  /// `pstate_index` next to the given co-runner baselines.
  double predict_time(const BaselineProfile& target,
                      const std::vector<const BaselineProfile*>& coapps,
                      std::size_t pstate_index) const;

  /// Predicted slowdown factor relative to the target's baseline.
  double predict_slowdown(const BaselineProfile& target,
                          const std::vector<const BaselineProfile*>& coapps,
                          std::size_t pstate_index) const;

  const ModelId& id() const { return id_; }

  /// The trained model and its dataset-column selection — exposed so the
  /// placement service (src/serve) can assemble batched design matrices
  /// and call the model's allocation-free predict_into directly.
  const ml::Regressor& model() const { return *model_; }
  const std::vector<std::size_t>& columns() const { return columns_; }

 private:
  ColocationPredictor(ModelId id, ml::RegressorPtr model,
                      std::vector<std::size_t> columns)
      : id_(id), model_(std::move(model)), columns_(std::move(columns)) {}

  ModelId id_;
  ml::RegressorPtr model_;
  std::vector<std::size_t> columns_;
};

/// PCA over the campaign's eight feature columns; returns the fitted
/// decomposition (importance ranking via ml::pca_feature_importance).
ml::PcaResult analyze_features(const ml::Dataset& dataset);

}  // namespace coloc::core
