// The crash-safe artifact store: durable-atomic file writes, FNV-1a
// digests, and the checksummed zoo bundle's save/load/quarantine protocol.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "ml/linear_model.hpp"
#include "obs/metrics.hpp"
#include "store/digest.hpp"
#include "store/file_ops.hpp"
#include "store/zoo_store.hpp"

namespace coloc::store {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/coloc_store_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(Digest, HexIsSixteenCharsAndContentSensitive) {
  EXPECT_EQ(digest_hex("").size(), 16u);
  EXPECT_EQ(digest_hex("abc"), digest_hex("abc"));
  EXPECT_NE(digest_hex("abc"), digest_hex("abd"));
  EXPECT_NE(digest_hex(""), digest_hex(std::string(1, '\0')));
}

TEST(FileOps, WriteAtomicRoundTripAndOverwrite) {
  const std::string dir = fresh_dir("atomic");
  const std::string path = dir + "/data.txt";
  write_file_atomic(path, "first");
  EXPECT_TRUE(file_exists(path));
  EXPECT_EQ(read_file(path), "first");
  write_file_atomic(path, "second, longer payload");
  EXPECT_EQ(read_file(path), "second, longer payload");
  // The atomic discipline must not strand temp files next to the target.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(dir)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(FileOps, MissingFileBehaviour) {
  const std::string dir = fresh_dir("missing");
  EXPECT_FALSE(file_exists(dir + "/nope"));
  EXPECT_FALSE(read_file_if_exists(dir + "/nope").has_value());
  EXPECT_THROW(read_file(dir + "/nope"), coloc::runtime_error);
}

TEST(FileOps, AppendDurableExtends) {
  const std::string dir = fresh_dir("append");
  const std::string path = dir + "/log.wal";
  append_file_durable(path, "one\n");
  append_file_durable(path, "two\n");
  EXPECT_EQ(read_file(path), "one\ntwo\n");
}

TEST(FileOps, RemoveDeletes) {
  const std::string dir = fresh_dir("remove");
  const std::string path = dir + "/gone.txt";
  write_file_atomic(path, "x");
  remove_file(path);
  EXPECT_FALSE(file_exists(path));
}

// --- zoo bundle -----------------------------------------------------------

ml::LinearModel model_a() {
  return ml::LinearModel::from_params({1.5, -2.25, 0.125}, 7.75);
}
ml::LinearModel model_b() {
  return ml::LinearModel::from_params({0.5}, -3.5);
}

std::vector<ZooModel> two_models(const ml::LinearModel& a,
                                 const ml::LinearModel& b) {
  return {{"linear-A", &b}, {"linear-C", &a}};
}

TEST(ZooStore, SaveLoadRoundTrip) {
  const std::string dir = fresh_dir("roundtrip");
  const ml::LinearModel a = model_a();
  const ml::LinearModel b = model_b();
  const ZooSaveResult saved = save_zoo(dir + "/zoo", two_models(a, b),
                                       {{"seed", "99"}});

  const LoadReport report = load_zoo(dir + "/zoo");
  ASSERT_TRUE(report.manifest_ok) << report.error;
  EXPECT_TRUE(report.complete()) << report.summary();
  EXPECT_EQ(report.bundle_digest, saved.bundle_digest);
  ASSERT_EQ(report.models.size(), 2u);
  const std::vector<double> probe = {2.0};
  EXPECT_DOUBLE_EQ(report.models.at("linear-A")->predict(probe),
                   b.predict(probe));
  bool saw_seed = false;
  for (const auto& [k, v] : report.provenance) {
    saw_seed |= k == "seed" && v == "99";
  }
  EXPECT_TRUE(saw_seed);
}

TEST(ZooStore, BundleDigestCoversManifestBytes) {
  const std::string dir = fresh_dir("digest");
  const ml::LinearModel a = model_a();
  const ml::LinearModel b = model_b();
  const ZooSaveResult saved = save_zoo(dir + "/zoo", two_models(a, b));
  EXPECT_EQ(saved.bundle_digest,
            digest_hex(read_file(dir + "/zoo/MANIFEST.json")));
}

TEST(ZooStore, IdenticalZoosSerializeByteIdentically) {
  const std::string dir = fresh_dir("determinism");
  const ml::LinearModel a = model_a();
  const ml::LinearModel b = model_b();
  const ZooSaveResult first = save_zoo(dir + "/one", two_models(a, b));
  const ZooSaveResult second = save_zoo(dir + "/two", two_models(a, b));
  EXPECT_EQ(first.bundle_digest, second.bundle_digest);
  EXPECT_EQ(read_file(dir + "/one/MANIFEST.json"),
            read_file(dir + "/two/MANIFEST.json"));
}

TEST(ZooStore, CorruptEntryIsQuarantinedAloneAndCounted) {
  const std::string dir = fresh_dir("quarantine");
  const ml::LinearModel a = model_a();
  const ml::LinearModel b = model_b();
  save_zoo(dir + "/zoo", two_models(a, b));

  // Flip one byte of one entry; the manifest digest must catch it.
  const std::string victim = dir + "/zoo/models/linear-C.model";
  std::string bytes = read_file(victim);
  bytes[bytes.size() / 2] ^= 0x01;
  write_file_atomic(victim, bytes);

  auto& counter =
      obs::Registry::global().counter("store_corruption_detected_total",
                                      {{"reason", "digest"}});
  const std::uint64_t before = counter.value();
  const LoadReport report = load_zoo(dir + "/zoo");
  ASSERT_TRUE(report.manifest_ok);
  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.names_in_state(ZooEntryState::kQuarantined),
            std::vector<std::string>{"linear-C"});
  EXPECT_EQ(report.names_in_state(ZooEntryState::kLoaded),
            std::vector<std::string>{"linear-A"});
  EXPECT_EQ(report.models.count("linear-C"), 0u);
  EXPECT_EQ(report.models.count("linear-A"), 1u);
  EXPECT_GT(counter.value(), before);
}

TEST(ZooStore, MissingEntryIsReportedMissing) {
  const std::string dir = fresh_dir("missing_entry");
  const ml::LinearModel a = model_a();
  const ml::LinearModel b = model_b();
  save_zoo(dir + "/zoo", two_models(a, b));
  remove_file(dir + "/zoo/models/linear-A.model");

  const LoadReport report = load_zoo(dir + "/zoo");
  ASSERT_TRUE(report.manifest_ok);
  EXPECT_EQ(report.names_in_state(ZooEntryState::kMissing),
            std::vector<std::string>{"linear-A"});
  EXPECT_EQ(report.models.size(), 1u);
}

TEST(ZooStore, CorruptManifestFailsClosed) {
  const std::string dir = fresh_dir("bad_manifest");
  const ml::LinearModel a = model_a();
  const ml::LinearModel b = model_b();
  save_zoo(dir + "/zoo", two_models(a, b));
  write_file_atomic(dir + "/zoo/MANIFEST.json", "{not json");

  const LoadReport report = load_zoo(dir + "/zoo");
  EXPECT_FALSE(report.manifest_ok);
  EXPECT_FALSE(report.error.empty());
  EXPECT_TRUE(report.models.empty());
}

TEST(ZooStore, AbsentBundleFailsClosed) {
  const LoadReport report =
      load_zoo(::testing::TempDir() + "/no_such_bundle");
  EXPECT_FALSE(report.manifest_ok);
  EXPECT_TRUE(report.models.empty());
}

}  // namespace
}  // namespace coloc::store
