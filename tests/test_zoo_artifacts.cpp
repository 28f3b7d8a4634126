// The zoo <-> store bridge: deterministic training, bundle persistence,
// and targeted repair of quarantined entries.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/zoo_artifacts.hpp"
#include "ml/dataset.hpp"
#include "obs/metrics.hpp"
#include "store/file_ops.hpp"
#include "store/zoo_store.hpp"

namespace coloc::core {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/coloc_zoo_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A synthetic campaign-shaped dataset: 8 features, smooth target.
ml::Dataset synthetic_dataset(std::size_t rows = 40) {
  ml::Dataset dataset({"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"},
                      "colocExTime");
  coloc::Rng rng(42);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> features(8);
    for (double& f : features) f = rng.uniform(0.1, 2.0);
    const double target = 10.0 + 3.0 * features[0] - features[3] +
                          0.5 * features[0] * features[7];
    dataset.add_row(features, target, "row" + std::to_string(r));
  }
  return dataset;
}

ModelZooOptions fast_options() {
  ModelZooOptions options;
  options.mlp.max_iterations = 40;
  options.mlp.restarts = 1;
  return options;
}

std::vector<ModelId> small_ids() {
  return {parse_model_id("linear-A"), parse_model_id("linear-F"),
          parse_model_id("nn-A")};
}

TEST(ZooArtifacts, ParseModelIdRoundTripsAllTwelve) {
  const std::vector<ModelId> ids = all_model_ids();
  ASSERT_EQ(ids.size(), 12u);
  for (const ModelId& id : ids) {
    const ModelId parsed = parse_model_id(id.name());
    EXPECT_EQ(parsed.technique, id.technique);
    EXPECT_EQ(parsed.feature_set, id.feature_set);
  }
}

TEST(ZooArtifacts, ParseModelIdRejectsGarbage) {
  EXPECT_THROW(parse_model_id("forest-A"), coloc::invalid_argument_error);
  EXPECT_THROW(parse_model_id("linear-Z"), coloc::invalid_argument_error);
  EXPECT_THROW(parse_model_id("linearA"), coloc::invalid_argument_error);
  EXPECT_THROW(parse_model_id(""), coloc::invalid_argument_error);
}

TEST(ZooArtifacts, TrainingIsDeterministic) {
  const ml::Dataset dataset = synthetic_dataset();
  const TrainedZoo one = train_full_zoo(dataset, fast_options(), small_ids());
  const TrainedZoo two = train_full_zoo(dataset, fast_options(), small_ids());
  const std::vector<double> probe(8, 1.0);
  for (const ModelId& id : small_ids()) {
    const std::vector<double> sub(
        feature_set_columns(id.feature_set).size(), 1.0);
    EXPECT_DOUBLE_EQ(one.models.at(id.name())->predict(sub),
                     two.models.at(id.name())->predict(sub))
        << id.name();
  }
}

TEST(ZooArtifacts, SaveThenLoadIsComplete) {
  const std::string dir = fresh_dir("save_load");
  const ml::Dataset dataset = synthetic_dataset();
  const TrainedZoo zoo = train_full_zoo(dataset, fast_options(), small_ids());
  const store::ZooSaveResult saved =
      save_trained_zoo(dir + "/zoo", zoo, {{"seed", "42"}});
  EXPECT_EQ(saved.manifest.entries.size(), 3u);

  const ZooLoadOutcome outcome = load_or_repair_zoo(
      dir + "/zoo", dataset, fast_options(), small_ids());
  EXPECT_TRUE(outcome.retrained.empty());
  EXPECT_FALSE(outcome.repaired);
  EXPECT_EQ(outcome.report.bundle_digest, saved.bundle_digest);
  EXPECT_EQ(outcome.zoo.models.size(), 3u);
}

TEST(ZooArtifacts, CorruptEntryIsRetrainedToIdenticalBytes) {
  const std::string dir = fresh_dir("repair");
  const ml::Dataset dataset = synthetic_dataset();
  const TrainedZoo zoo = train_full_zoo(dataset, fast_options(), small_ids());
  save_trained_zoo(dir + "/zoo", zoo);

  const std::string victim = dir + "/zoo/models/nn-A.model";
  const std::string original_bytes = store::read_file(victim);
  std::string corrupted = original_bytes;
  corrupted[corrupted.size() / 3] ^= 0x40;
  store::write_file_atomic(victim, corrupted);

  auto& retrained_counter =
      obs::Registry::global().counter("zoo_models_retrained_total");
  const std::uint64_t before = retrained_counter.value();

  const ZooLoadOutcome outcome = load_or_repair_zoo(
      dir + "/zoo", dataset, fast_options(), small_ids());
  EXPECT_EQ(outcome.retrained, std::vector<std::string>{"nn-A"});
  EXPECT_TRUE(outcome.repaired);
  EXPECT_EQ(retrained_counter.value(), before + 1);
  // Deterministic retraining: the repaired file matches the original
  // byte for byte, so a warm restart stays bit-identical.
  EXPECT_EQ(store::read_file(victim), original_bytes);

  // And the bundle on disk is whole again.
  const store::LoadReport reloaded = store::load_zoo(dir + "/zoo");
  EXPECT_TRUE(reloaded.complete()) << reloaded.summary();
}

TEST(ZooArtifacts, AbsentBundleRetrainsEverythingAndWritesIt) {
  const std::string dir = fresh_dir("absent");
  const ml::Dataset dataset = synthetic_dataset();

  const ZooLoadOutcome outcome = load_or_repair_zoo(
      dir + "/zoo", dataset, fast_options(), small_ids());
  EXPECT_FALSE(outcome.report.manifest_ok);
  EXPECT_EQ(outcome.retrained.size(), 3u);
  EXPECT_TRUE(outcome.repaired);
  EXPECT_EQ(outcome.zoo.models.size(), 3u);

  const store::LoadReport reloaded = store::load_zoo(dir + "/zoo");
  EXPECT_TRUE(reloaded.complete()) << reloaded.summary();
}

TEST(ZooArtifacts, NeverServesCorruptModelBytes) {
  // Under a storage-fault barrage at rate 1.0 the bundle may be damaged in
  // arbitrary ways, but load_or_repair must only ever return models that
  // verify — retrained in memory if the disk copy is bad.
  const std::string dir = fresh_dir("chaos");
  const ml::Dataset dataset = synthetic_dataset();
  const TrainedZoo zoo = train_full_zoo(dataset, fast_options(), small_ids());
  save_trained_zoo(dir + "/zoo", zoo);

  // Trash every model file a different way.
  store::write_file_atomic(dir + "/zoo/models/linear-A.model", "");
  store::remove_file(dir + "/zoo/models/linear-F.model");
  std::string nn = store::read_file(dir + "/zoo/models/nn-A.model");
  store::write_file_atomic(dir + "/zoo/models/nn-A.model",
                           nn.substr(0, nn.size() / 2));

  const ZooLoadOutcome outcome = load_or_repair_zoo(
      dir + "/zoo", dataset, fast_options(), small_ids());
  EXPECT_EQ(outcome.retrained.size(), 3u);
  EXPECT_EQ(outcome.zoo.models.size(), 3u);
  // Every served model predicts exactly like a fresh deterministic train.
  const TrainedZoo fresh = train_full_zoo(dataset, fast_options(),
                                          small_ids());
  for (const ModelId& id : small_ids()) {
    const std::vector<double> probe(
        feature_set_columns(id.feature_set).size(), 0.5);
    EXPECT_DOUBLE_EQ(outcome.zoo.models.at(id.name())->predict(probe),
                     fresh.models.at(id.name())->predict(probe));
  }
}

}  // namespace
}  // namespace coloc::core
