#include "core/model_zoo.hpp"

#include <memory>
#include <numeric>

#include "ml/linear_model.hpp"

namespace coloc::core {

std::string to_string(ModelTechnique technique) {
  return technique == ModelTechnique::kLinear ? "linear" : "nn";
}

std::size_t hidden_units_for(FeatureSet set) {
  const std::size_t features = feature_set_columns(set).size();
  // 1 feature -> 10 units, 8 features -> 20 units, linear in between.
  return 10 + (features - 1) * 10 / 7;
}

ml::ModelFactory make_model_factory(const ModelId& id,
                                    const ModelZooOptions& options,
                                    std::uint64_t seed_salt) {
  if (id.technique == ModelTechnique::kLinear) {
    return [](const linalg::Matrix& x,
              std::span<const double> y) -> ml::RegressorPtr {
      return std::make_unique<ml::LinearModel>(ml::LinearModel::fit(x, y));
    };
  }

  ml::MlpOptions mlp = options.mlp;
  if (!options.fixed_hidden_units) {
    mlp.hidden_units = hidden_units_for(id.feature_set);
  }
  mlp.seed ^= seed_salt * 0x9e3779b97f4a7c15ULL +
              static_cast<std::uint64_t>(id.feature_set) * 1315423911ULL;
  return [mlp](const linalg::Matrix& x,
               std::span<const double> y) -> ml::RegressorPtr {
    return std::make_unique<ml::MlpRegressor>(ml::MlpRegressor::fit(x, y, mlp));
  };
}

ml::RegressorPtr train_on_all_rows(const ml::Dataset& dataset,
                                   const ModelId& id,
                                   const ModelZooOptions& options) {
  const auto& columns = feature_set_columns(id.feature_set);
  std::vector<std::size_t> rows(dataset.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  const linalg::Matrix x = dataset.design_matrix(rows, columns);
  return make_model_factory(id, options)(x, dataset.targets());
}

}  // namespace coloc::core
