#include "fault/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "test_helpers.hpp"

namespace coloc::fault {
namespace {

using testing_helpers::tiny_machine;
using testing_helpers::tiny_suite;

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

TEST(CampaignCheckpoint, MissingFileLoadsEmpty) {
  CampaignCheckpoint checkpoint(temp_path("absent.csv"), {"f0", "f1"},
                                "target");
  EXPECT_EQ(checkpoint.load(), 0u);
  EXPECT_EQ(checkpoint.size(), 0u);
}

TEST(CampaignCheckpoint, RoundTripsDoublesBitForBit) {
  const std::string path = temp_path("roundtrip.csv");
  std::filesystem::remove(path);
  // Values chosen to break naive %.6g serialization, and the extremes:
  // strtod flags a subnormal with ERANGE although it parses it exactly.
  const std::vector<std::string> names = {"a", "b", "c", "d", "e",
                                          "f", "g", "h", "i"};
  const std::vector<double> features = {
      1.0 / 3.0,
      6.02214076e23,
      -7.25e-12,
      279.4123456789012,
      std::numeric_limits<double>::denorm_min(),
      -2.2250738585072009e-308,  // the largest subnormal, negated
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -0.0};
  const double target = 0.1 + 0.2;  // famously not 0.3

  {
    CampaignCheckpoint checkpoint(path, names, "colocExTime");
    checkpoint.record("canneal|cg|x4|p0", features, target);
    checkpoint.flush();
  }

  CampaignCheckpoint reloaded(path, names, "colocExTime");
  EXPECT_EQ(reloaded.load(), 1u);
  ASSERT_TRUE(reloaded.has("canneal|cg|x4|p0"));
  const CheckpointRow* row = reloaded.find("canneal|cg|x4|p0");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->target, target);
  ASSERT_EQ(row->features.size(), features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    EXPECT_EQ(row->features[i], features[i]) << "feature " << i;
    EXPECT_EQ(std::signbit(row->features[i]), std::signbit(features[i]))
        << "feature " << i;
  }
  std::filesystem::remove(path);
}

TEST(CampaignCheckpoint, FindUnknownTagReturnsNull) {
  CampaignCheckpoint checkpoint(temp_path("unknown.csv"), {"f"}, "t");
  EXPECT_FALSE(checkpoint.has("nope"));
  EXPECT_EQ(checkpoint.find("nope"), nullptr);
}

TEST(CampaignCheckpoint, FlushLeavesNoTempFile) {
  const std::string path = temp_path("atomic.csv");
  std::filesystem::remove(path);
  CampaignCheckpoint checkpoint(path, {"f"}, "t");
  const std::vector<double> features = {1.5};
  checkpoint.record("a|b|x1|p0", features, 2.5);
  checkpoint.flush();
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "write-temp-then-rename must not leave the temp file behind";
  std::filesystem::remove(path);
}

TEST(CampaignCheckpoint, PeriodicFlushPersistsWithoutExplicitFlush) {
  const std::string path = temp_path("periodic.csv");
  std::filesystem::remove(path);
  CampaignCheckpoint checkpoint(path, {"f"}, "t", /*flush_every=*/2);
  const std::vector<double> features = {1.0};
  checkpoint.record("r1", features, 1.0);
  EXPECT_FALSE(std::filesystem::exists(path)) << "one row is below period";
  checkpoint.record("r2", features, 2.0);
  EXPECT_TRUE(std::filesystem::exists(path)) << "period reached: must flush";
  std::filesystem::remove(path);
}

TEST(CampaignCheckpoint, MismatchedHeaderRejected) {
  const std::string path = temp_path("mismatch.csv");
  std::filesystem::remove(path);
  {
    CampaignCheckpoint checkpoint(path, {"old_feature"}, "t");
    const std::vector<double> features = {1.0};
    checkpoint.record("r", features, 1.0);
    checkpoint.flush();
  }
  CampaignCheckpoint wrong(path, {"new_feature"}, "t");
  EXPECT_THROW(wrong.load(), coloc::data_error);
  std::filesystem::remove(path);
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

// Every field must parse whole and finite; anything else is a data_error
// that names the file, the row and the column, whether the bad text sits
// in a feature or in the target.
TEST(CampaignCheckpoint, RejectsMalformedFields) {
  const std::string path = temp_path("malformed.csv");
  for (const std::string bad : {"1.5u", "abc", "1e999", "nan", "-inf", "",
                                " 1.5", "1.5 "}) {
    for (const std::string column : {"t", "f1"}) {
      const std::string target = column == "t" ? bad : "2.5";
      const std::string feature = column == "f1" ? bad : "0.25";
      write_bytes(path, "tag,t,f0,f1\nok,1.0,1.0,1.0\nbad," + target +
                            ",0.5," + feature + "\n");
      CampaignCheckpoint checkpoint(path, {"f0", "f1"}, "t");
      try {
        checkpoint.load();
        ADD_FAILURE() << "'" << bad << "' in column " << column << " loaded";
      } catch (const coloc::data_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("row 1"), std::string::npos) << what;
        EXPECT_NE(what.find("column " + column), std::string::npos) << what;
      }
    }
  }
  std::filesystem::remove(path);
}

// Seeded fuzzing of the checkpoint reader: a real campaign checkpoint
// under bit flips, byte insertions and deletions, truncations, and
// duplicated and swapped lines. A mutated file either loads rows that a
// resumed campaign can replay into its dataset, or throws data_error;
// nothing else may escape.
TEST(CampaignCheckpoint, SeededMutationsLoadOrThrowDataError) {
  const std::string path = temp_path("fuzz_source.csv");
  std::filesystem::remove(path);
  core::CampaignConfig config;
  config.targets = tiny_suite();
  config.coapps = {config.targets[0], config.targets[3]};
  core::CampaignRobustness robustness;
  robustness.checkpoint_path = path;
  sim::AppMrcLibrary library;
  sim::Simulator simulator(tiny_machine(), &library);
  const core::CampaignResult campaign =
      core::run_campaign(simulator, config, robustness);
  const std::string original = read_bytes(path);
  ASSERT_FALSE(original.empty());
  std::filesystem::remove(path);

  coloc::Rng rng(20261020);
  const std::string mutated_path = temp_path("fuzz_mutated.csv");
  std::size_t loaded = 0, rejected = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::string applied;
    write_bytes(mutated_path,
                testing_helpers::mutate_bytes(original, rng, applied));

    CampaignCheckpoint checkpoint(mutated_path, core::feature_names(),
                                  "colocExTime");
    try {
      checkpoint.load();
    } catch (const coloc::data_error&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << " (mutations " << applied
                    << ") threw a non-data error: " << e.what();
      continue;
    }
    ++loaded;
    // Replay every checkpointed cell of the sweep, as a resumed campaign
    // commits it.
    ml::Dataset replay(core::feature_names(), "colocExTime");
    for (std::size_t r = 0; r < campaign.dataset.num_rows(); ++r) {
      const std::string& tag = campaign.dataset.tag(r);
      if (const CheckpointRow* row = checkpoint.find(tag)) {
        EXPECT_NO_THROW(replay.add_row(row->features, row->target, tag))
            << "trial " << trial << " (mutations " << applied << "), " << tag;
      }
    }
  }
  std::filesystem::remove(mutated_path);
  // The mutations reach both outcomes.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

class CampaignResumeTest : public ::testing::Test {
 protected:
  CampaignResumeTest() {
    config_.targets = tiny_suite();
    config_.coapps = {config_.targets[0], config_.targets[3]};
  }

  core::CampaignResult run(const core::CampaignRobustness& robustness) {
    // Fresh simulator per run: resume must not depend on shared RNG state.
    sim::AppMrcLibrary library;
    sim::Simulator simulator(tiny_machine(), &library);
    return core::run_campaign(simulator, config_, robustness);
  }

  core::CampaignConfig config_;
};

TEST_F(CampaignResumeTest, InterruptedThenResumedIsByteIdentical) {
  const std::string path = temp_path("resume_state.csv");
  std::filesystem::remove(path);

  // Reference: one uninterrupted sweep (no checkpoint involved).
  const core::CampaignResult reference = run(core::CampaignRobustness{});

  // "Crash" after 10 measured cells: the abort hook flushes and throws,
  // exactly like a kill would after the last periodic flush.
  core::CampaignRobustness interrupted;
  interrupted.checkpoint_path = path;
  interrupted.checkpoint_every = 4;
  interrupted.abort_after_cells = 10;
  EXPECT_THROW(run(interrupted), coloc::runtime_error);
  ASSERT_TRUE(std::filesystem::exists(path));

  // Resume and finish the sweep.
  core::CampaignRobustness resumed;
  resumed.checkpoint_path = path;
  resumed.resume = true;
  const core::CampaignResult result = run(resumed);

  EXPECT_GE(result.completeness.cells_resumed, 10u);
  ASSERT_EQ(result.dataset.num_rows(), reference.dataset.num_rows());
  for (std::size_t r = 0; r < result.dataset.num_rows(); ++r) {
    EXPECT_EQ(result.dataset.tag(r), reference.dataset.tag(r));
    EXPECT_EQ(result.dataset.target(r), reference.dataset.target(r))
        << "row " << r << " (" << result.dataset.tag(r) << ")";
    const auto got = result.dataset.features(r);
    const auto want = reference.dataset.features(r);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < got.size(); ++c) {
      EXPECT_EQ(got[c], want[c])
          << "row " << r << " col " << c << " (" << result.dataset.tag(r)
          << ")";
    }
  }
  std::filesystem::remove(path);
}

TEST_F(CampaignResumeTest, ResumeSkipsMeasuredCells) {
  const std::string path = temp_path("skip_state.csv");
  std::filesystem::remove(path);

  core::CampaignRobustness first;
  first.checkpoint_path = path;
  const core::CampaignResult full = run(first);
  EXPECT_EQ(full.completeness.cells_resumed, 0u);

  core::CampaignRobustness again;
  again.checkpoint_path = path;
  again.resume = true;
  const core::CampaignResult rerun = run(again);
  // Every campaign cell was checkpointed; only baselines are re-measured.
  EXPECT_EQ(rerun.completeness.cells_resumed, full.dataset.num_rows());
  EXPECT_EQ(rerun.dataset.num_rows(), full.dataset.num_rows());
  std::filesystem::remove(path);
}

TEST_F(CampaignResumeTest, CheckpointWithoutResumeRestartsCleanly) {
  const std::string path = temp_path("no_resume.csv");
  std::filesystem::remove(path);

  core::CampaignRobustness robustness;
  robustness.checkpoint_path = path;
  robustness.abort_after_cells = 5;
  EXPECT_THROW(run(robustness), coloc::runtime_error);

  // resume = false: the old state is ignored and overwritten.
  robustness.abort_after_cells = 0;
  const core::CampaignResult result = run(robustness);
  EXPECT_EQ(result.completeness.cells_resumed, 0u);
  EXPECT_GT(result.dataset.num_rows(), 0u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace coloc::fault
