// The write-ahead stage journal and the pipeline supervisor's
// skip / replay / stop decisions.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/supervisor.hpp"
#include "store/file_ops.hpp"

namespace coloc::core {
namespace {

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/coloc_supervisor_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    PipelineSupervisor::clear_stop_request();
  }
  void TearDown() override { PipelineSupervisor::clear_stop_request(); }

  PipelineSupervisor::Options options(bool resume) const {
    PipelineSupervisor::Options o;
    o.journal_path = dir_ + "/journal.wal";
    o.resume = resume;
    return o;
  }

  std::string dir_;
};

TEST_F(SupervisorTest, ParseDropsTornTail) {
  const JournalState state = StageJournal::parse(
      "coloc-journal v1\n"
      "start campaign\n"
      "artifact campaign data.csv 10 0123456789abcdef\n"
      "done campaign\n"
      "start train\n"
      "artifact train zoo/MAN");  // crash mid-append: no trailing newline
  ASSERT_EQ(state.completed.size(), 1u);
  EXPECT_EQ(state.completed[0].name, "campaign");
  ASSERT_EQ(state.completed[0].artifacts.size(), 1u);
  EXPECT_EQ(state.completed[0].artifacts[0].bytes, 10u);
  EXPECT_FALSE(state.clean_stop);
}

TEST_F(SupervisorTest, ParseSeesStopMarker) {
  const JournalState state = StageJournal::parse(
      "coloc-journal v1\nstart a\ndone a\nstop\n");
  EXPECT_TRUE(state.clean_stop);
  EXPECT_EQ(state.completed.size(), 1u);
}

TEST_F(SupervisorTest, ParseRejectsForeignFile) {
  EXPECT_THROW(StageJournal::parse("some,other,csv\n1,2,3\n"),
               coloc::data_error);
}

TEST_F(SupervisorTest, JournalRoundTripsThroughDisk) {
  {
    StageJournal journal(dir_ + "/journal.wal", /*resume=*/false);
    journal.record_start("campaign");
    journal.record_done("campaign", {{"data.csv", 42, "deadbeefdeadbeef"}});
  }
  StageJournal reloaded(dir_ + "/journal.wal", /*resume=*/true);
  const JournalStage* stage = reloaded.state().find("campaign");
  ASSERT_NE(stage, nullptr);
  ASSERT_EQ(stage->artifacts.size(), 1u);
  EXPECT_EQ(stage->artifacts[0].path, "data.csv");
  EXPECT_EQ(stage->artifacts[0].digest, "deadbeefdeadbeef");
}

TEST_F(SupervisorTest, ResetFromDropsThatStageAndLaterOnes) {
  StageJournal journal(dir_ + "/journal.wal", /*resume=*/false);
  journal.record_start("a");
  journal.record_done("a", {});
  journal.record_start("b");
  journal.record_done("b", {});
  journal.record_start("c");
  journal.record_done("c", {});
  journal.reset_from("b");
  EXPECT_NE(journal.state().find("a"), nullptr);
  EXPECT_EQ(journal.state().find("b"), nullptr);
  EXPECT_EQ(journal.state().find("c"), nullptr);
  // And the on-disk file agrees.
  const JournalState reloaded =
      StageJournal::parse(store::read_file(dir_ + "/journal.wal"));
  EXPECT_EQ(reloaded.completed.size(), 1u);
}

TEST_F(SupervisorTest, StageNamesWithWhitespaceAreRejected) {
  StageJournal journal(dir_ + "/journal.wal", /*resume=*/false);
  EXPECT_THROW(journal.record_start("two words"), coloc::runtime_error);
}

TEST_F(SupervisorTest, RunStageExecutesBodyAndJournalsArtifacts) {
  PipelineSupervisor supervisor(options(/*resume=*/false));
  const std::string artifact = dir_ + "/out.txt";
  const StageOutcome outcome =
      supervisor.run_stage("build", {artifact}, [&] {
        store::write_file_atomic(artifact, "payload");
      });
  EXPECT_EQ(outcome, StageOutcome::kRan);
  EXPECT_EQ(supervisor.stages_executed(), 1u);
  const JournalStage* record = supervisor.journal().state().find("build");
  ASSERT_NE(record, nullptr);
  ASSERT_EQ(record->artifacts.size(), 1u);
  EXPECT_EQ(record->artifacts[0].bytes, 7u);
}

TEST_F(SupervisorTest, MissingPromisedArtifactFailsTheStage) {
  PipelineSupervisor supervisor(options(/*resume=*/false));
  EXPECT_THROW(
      supervisor.run_stage("build", {dir_ + "/never_written.txt"}, [] {}),
      coloc::runtime_error);
}

TEST_F(SupervisorTest, ResumeSkipsStageWithVerifiedArtifacts) {
  const std::string artifact = dir_ + "/out.txt";
  {
    PipelineSupervisor first(options(/*resume=*/false));
    first.run_stage("build", {artifact},
                    [&] { store::write_file_atomic(artifact, "payload"); });
  }
  PipelineSupervisor resumed(options(/*resume=*/true));
  const StageOutcome outcome = resumed.run_stage(
      "build", {artifact}, [] { FAIL() << "skipped stage ran its body"; });
  EXPECT_EQ(outcome, StageOutcome::kSkippedValid);
  EXPECT_EQ(resumed.stages_skipped(), 1u);
}

TEST_F(SupervisorTest, CorruptedArtifactForcesReplay) {
  const std::string artifact = dir_ + "/out.txt";
  {
    PipelineSupervisor first(options(/*resume=*/false));
    first.run_stage("build", {artifact},
                    [&] { store::write_file_atomic(artifact, "payload"); });
  }
  store::write_file_atomic(artifact, "tampered");
  PipelineSupervisor resumed(options(/*resume=*/true));
  bool ran = false;
  const StageOutcome outcome = resumed.run_stage("build", {artifact}, [&] {
    ran = true;
    store::write_file_atomic(artifact, "payload");
  });
  EXPECT_EQ(outcome, StageOutcome::kRan);
  EXPECT_TRUE(ran);
  EXPECT_EQ(resumed.stages_replayed(), 1u);
}

TEST_F(SupervisorTest, InvalidStageInvalidatesEverythingAfterIt) {
  const std::string a = dir_ + "/a.txt";
  const std::string b = dir_ + "/b.txt";
  {
    PipelineSupervisor first(options(/*resume=*/false));
    first.run_stage("one", {a}, [&] { store::write_file_atomic(a, "aaa"); });
    first.run_stage("two", {b}, [&] { store::write_file_atomic(b, "bbb"); });
  }
  store::remove_file(a);  // stage one's output vanishes
  PipelineSupervisor resumed(options(/*resume=*/true));
  bool one_ran = false, two_ran = false;
  resumed.run_stage("one", {a}, [&] {
    one_ran = true;
    store::write_file_atomic(a, "aaa");
  });
  resumed.run_stage("two", {b}, [&] {
    two_ran = true;
    store::write_file_atomic(b, "bbb");
  });
  EXPECT_TRUE(one_ran);
  EXPECT_TRUE(two_ran) << "stage two consumed invalidated inputs; it must "
                          "replay when an earlier stage does";
}

TEST_F(SupervisorTest, WithoutResumeEverythingReruns) {
  const std::string artifact = dir_ + "/out.txt";
  {
    PipelineSupervisor first(options(/*resume=*/false));
    first.run_stage("build", {artifact},
                    [&] { store::write_file_atomic(artifact, "payload"); });
  }
  PipelineSupervisor fresh(options(/*resume=*/false));
  bool ran = false;
  fresh.run_stage("build", {artifact}, [&] {
    ran = true;
    store::write_file_atomic(artifact, "payload");
  });
  EXPECT_TRUE(ran);
}

TEST_F(SupervisorTest, StopRequestHaltsBeforeTheNextStage) {
  PipelineSupervisor supervisor(options(/*resume=*/false));
  const std::string artifact = dir_ + "/out.txt";
  supervisor.run_stage("one", {artifact},
                       [&] { store::write_file_atomic(artifact, "x"); });
  PipelineSupervisor::request_stop();
  bool ran = false;
  const StageOutcome outcome =
      supervisor.run_stage("two", {}, [&] { ran = true; });
  EXPECT_EQ(outcome, StageOutcome::kStopped);
  EXPECT_FALSE(ran);
  EXPECT_TRUE(supervisor.stopped_cleanly());
  EXPECT_TRUE(supervisor.journal().state().clean_stop);
}

TEST_F(SupervisorTest, ResumeAfterCleanStopContinues) {
  const std::string a = dir_ + "/a.txt";
  {
    PipelineSupervisor first(options(/*resume=*/false));
    first.run_stage("one", {a}, [&] { store::write_file_atomic(a, "x"); });
    PipelineSupervisor::request_stop();
    first.run_stage("two", {}, [] {});
  }
  PipelineSupervisor::clear_stop_request();
  PipelineSupervisor resumed(options(/*resume=*/true));
  EXPECT_EQ(resumed.run_stage("one", {a}, [] {}),
            StageOutcome::kSkippedValid);
  bool ran = false;
  const std::string b = dir_ + "/b.txt";
  EXPECT_EQ(resumed.run_stage("two", {b},
                              [&] {
                                ran = true;
                                store::write_file_atomic(b, "y");
                              }),
            StageOutcome::kRan);
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace coloc::core
