#include "core/methodology.hpp"

#include <numeric>

#include "common/error.hpp"

namespace coloc::core {

const ModelEvaluation& EvaluationSuite::find(ModelTechnique technique,
                                             FeatureSet set) const {
  for (const auto& e : evaluations) {
    if (e.id.technique == technique && e.id.feature_set == set) return e;
  }
  throw coloc::invalid_argument_error("model evaluation not found: " +
                                      ModelId{technique, set}.name());
}

EvaluationSuite evaluate_model_zoo(
    const ml::Dataset& dataset, const EvaluationConfig& config,
    std::optional<ModelId> collect_predictions_for) {
  // One ValidationJob per (technique, feature set), in zoo order with the
  // same factory salts as the historical per-model loop; the batch API
  // flattens all job×partition tasks across the worker pool and returns
  // numbers identical to validating each model in turn.
  std::vector<ModelId> ids;
  std::vector<ml::ValidationJob> jobs;
  std::uint64_t salt = 1;
  for (ModelTechnique technique : kAllTechniques) {
    for (FeatureSet set : kAllFeatureSets) {
      const ModelId id{technique, set};
      ml::ValidationJob job;
      job.options = config.validation;
      job.options.collect_test_predictions =
          collect_predictions_for && collect_predictions_for->technique ==
                                         technique &&
          collect_predictions_for->feature_set == set;
      const auto& columns = feature_set_columns(set);
      job.columns.assign(columns.begin(), columns.end());
      job.factory = make_model_factory(id, config.zoo, salt++);
      ids.push_back(id);
      jobs.push_back(std::move(job));
    }
  }

  auto results = ml::repeated_subsampling_validation_batch(dataset, jobs);

  EvaluationSuite suite;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ModelEvaluation evaluation;
    evaluation.id = ids[i];
    evaluation.result = std::move(results[i]);
    suite.evaluations.push_back(std::move(evaluation));
  }
  return suite;
}

ColocationPredictor ColocationPredictor::train(const ml::Dataset& dataset,
                                               const ModelId& id,
                                               const ModelZooOptions& options) {
  const auto& columns = feature_set_columns(id.feature_set);
  return ColocationPredictor(id, train_on_all_rows(dataset, id, options),
                             {columns.begin(), columns.end()});
}

ColocationPredictor ColocationPredictor::from_model(const ModelId& id,
                                                    ml::RegressorPtr model) {
  COLOC_CHECK_MSG(model != nullptr, "predictor needs a model");
  const auto& columns = feature_set_columns(id.feature_set);
  return ColocationPredictor(id, std::move(model),
                             {columns.begin(), columns.end()});
}

double ColocationPredictor::predict_time(
    const BaselineProfile& target,
    const std::vector<const BaselineProfile*>& coapps,
    std::size_t pstate_index) const {
  const auto all_features = compute_features(target, coapps, pstate_index);
  std::vector<double> selected;
  selected.reserve(columns_.size());
  for (std::size_t c : columns_) selected.push_back(all_features[c]);
  return model_->predict(selected);
}

double ColocationPredictor::predict_slowdown(
    const BaselineProfile& target,
    const std::vector<const BaselineProfile*>& coapps,
    std::size_t pstate_index) const {
  const double baseline = target.time_at(pstate_index);
  COLOC_CHECK_MSG(baseline > 0.0, "baseline time must be positive");
  return predict_time(target, coapps, pstate_index) / baseline;
}

ml::PcaResult analyze_features(const ml::Dataset& dataset) {
  std::vector<std::size_t> rows(dataset.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<std::size_t> columns(dataset.num_features());
  std::iota(columns.begin(), columns.end(), 0);
  const linalg::Matrix x = dataset.design_matrix(rows, columns);
  return ml::pca_fit(x);
}

}  // namespace coloc::core
