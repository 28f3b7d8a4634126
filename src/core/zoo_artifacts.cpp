#include "core/zoo_artifacts.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace coloc::core {

namespace {

obs::Counter& retrained_counter() {
  return obs::Registry::global().counter("zoo_models_retrained_total");
}

}  // namespace

ModelId parse_model_id(const std::string& name) {
  const std::size_t dash = name.rfind('-');
  if (dash == std::string::npos || dash == 0 || dash + 1 >= name.size()) {
    throw coloc::invalid_argument_error(
        "model id must look like 'linear-A' or 'nn-F', got '" + name + "'");
  }
  const std::string technique = name.substr(0, dash);
  ModelId id;
  if (technique == "linear") {
    id.technique = ModelTechnique::kLinear;
  } else if (technique == "nn") {
    id.technique = ModelTechnique::kNeuralNetwork;
  } else {
    throw coloc::invalid_argument_error("unknown model technique: '" +
                                        technique + "'");
  }
  id.feature_set = parse_feature_set(name.substr(dash + 1));
  return id;
}

std::vector<ModelId> all_model_ids() {
  std::vector<ModelId> ids;
  for (ModelTechnique technique : kAllTechniques) {
    for (FeatureSet set : kAllFeatureSets) {
      ids.push_back(ModelId{technique, set});
    }
  }
  return ids;
}

const ml::Regressor* TrainedZoo::find(const std::string& name) const {
  const auto it = models.find(name);
  return it == models.end() ? nullptr : it->second.get();
}

TrainedZoo train_full_zoo(const ml::Dataset& dataset,
                          const ModelZooOptions& options,
                          const std::vector<ModelId>& ids) {
  COLOC_CHECK_MSG(dataset.num_rows() > 0, "cannot train a zoo on no rows");
  TrainedZoo zoo;
  zoo.ids = ids;
  // Each identity trains independently and deterministically (per-identity
  // seed salts), so the twelve models fan out over the shared pool as flat
  // tasks — restart-level parallelism lives inside each fit as the fused
  // batched kernels, never as a nested pool. Commit stays strictly in ids
  // order, so the zoo is byte-identical to the historical serial loop.
  std::vector<ml::RegressorPtr> trained(ids.size());
  auto train_task = [&](std::size_t i) {
    trained[i] = train_on_all_rows(dataset, ids[i], options);
  };
  parallel_for(global_pool(), ids.size(), train_task, 1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    zoo.models.emplace(ids[i].name(), std::move(trained[i]));
  }
  return zoo;
}

store::ZooSaveResult save_trained_zoo(
    const std::string& dir, const TrainedZoo& zoo,
    std::vector<std::pair<std::string, std::string>> provenance) {
  std::vector<store::ZooModel> models;
  models.reserve(zoo.models.size());
  for (const auto& [name, model] : zoo.models) {
    models.push_back(store::ZooModel{name, model.get()});
  }
  provenance.emplace_back("format", "coloc-zoo");
  provenance.emplace_back("models", std::to_string(models.size()));
  return store::save_zoo(dir, models, provenance);
}

ZooLoadOutcome load_or_repair_zoo(
    const std::string& dir, const ml::Dataset& dataset,
    const ModelZooOptions& options, const std::vector<ModelId>& ids,
    std::vector<std::pair<std::string, std::string>> provenance) {
  ZooLoadOutcome outcome;
  outcome.report = store::load_zoo(dir);
  outcome.zoo.ids = ids;

  for (const ModelId& id : ids) {
    const std::string name = id.name();
    const auto it = outcome.report.models.find(name);
    if (it != outcome.report.models.end()) {
      outcome.zoo.models.emplace(name, std::move(it->second));
      continue;
    }
    // Quarantined, missing, absent from the manifest, or the bundle had
    // no manifest at all: retrain exactly this identity. Training is
    // deterministic, so the repaired entry is bit-identical to what an
    // undamaged save would have produced.
    outcome.zoo.models.emplace(name, train_on_all_rows(dataset, id, options));
    outcome.retrained.push_back(name);
    retrained_counter().inc();
  }
  outcome.report.models.clear();  // ownership moved into the zoo

  if (!outcome.retrained.empty()) {
    COLOC_LOG_WARN << "zoo bundle " << dir << ": retrained "
                   << outcome.retrained.size() << " of " << ids.size()
                   << " models after verification failures";
    save_trained_zoo(dir, outcome.zoo, std::move(provenance));
    outcome.repaired = true;
  }
  return outcome;
}

}  // namespace coloc::core
