// Bridges the model zoo (src/core) to the crash-safe artifact store
// (src/store): train the full {technique x feature set} zoo on a campaign
// dataset, persist it as a checksummed bundle, and reload it with
// targeted repair — a quarantined or missing entry retrains just that one
// model (deterministically, so the repaired bytes match the originals)
// instead of throwing the whole zoo away.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/model_zoo.hpp"
#include "ml/dataset.hpp"
#include "store/zoo_store.hpp"

namespace coloc::core {

/// Parses a ModelId::name() string ("linear-A" ... "nn-F"). Throws
/// coloc::invalid_argument_error on unknown technique or feature set.
ModelId parse_model_id(const std::string& name);

/// The twelve paper identities, technique-major then set A-F.
std::vector<ModelId> all_model_ids();

/// A trained zoo keyed by ModelId::name().
struct TrainedZoo {
  std::vector<ModelId> ids;
  std::map<std::string, ml::RegressorPtr> models;

  const ml::Regressor* find(const std::string& name) const;
};

/// Trains every identity in `ids` on the full dataset. Deterministic:
/// the same dataset + options + ids always yield bit-identical models
/// (training factories are seeded, never clocked).
TrainedZoo train_full_zoo(const ml::Dataset& dataset,
                          const ModelZooOptions& options = {},
                          const std::vector<ModelId>& ids = all_model_ids());

/// Persists a trained zoo as a store bundle under `dir`.
store::ZooSaveResult save_trained_zoo(
    const std::string& dir, const TrainedZoo& zoo,
    std::vector<std::pair<std::string, std::string>> provenance = {});

struct ZooLoadOutcome {
  TrainedZoo zoo;
  store::LoadReport report;  // what the store found on disk
  /// Entries retrained because they were quarantined, missing, or the
  /// bundle had no (valid) manifest at all.
  std::vector<std::string> retrained;
  /// True when the on-disk bundle was rewritten after repair.
  bool repaired = false;
};

/// Loads the zoo bundle at `dir`, verifying every entry. Corrupt or
/// missing entries are retrained from `dataset` (counted in the
/// zoo_models_retrained_total metric); when anything was retrained the
/// bundle is re-saved so the on-disk state is whole again. Never returns
/// a model whose bytes failed verification.
ZooLoadOutcome load_or_repair_zoo(
    const std::string& dir, const ml::Dataset& dataset,
    const ModelZooOptions& options = {},
    const std::vector<ModelId>& ids = all_model_ids(),
    std::vector<std::pair<std::string, std::string>> provenance = {});

}  // namespace coloc::core
