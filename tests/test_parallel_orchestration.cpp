// Serial-vs-parallel equivalence suite for the task-parallel orchestration
// layers: the campaign's sequenced collector and the validation batch
// runner must produce byte-identical outputs at any thread count — the
// whole point of the deterministic-commit design.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/campaign.hpp"
#include "core/methodology.hpp"
#include "core/zoo_artifacts.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "ml/serialization.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace coloc::core {
namespace {

using testing_helpers::expect_datasets_identical;
using testing_helpers::tiny_machine;
using testing_helpers::tiny_suite;

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

CampaignConfig tiny_config(std::size_t jobs) {
  CampaignConfig config;
  config.targets = tiny_suite();
  config.coapps = {config.targets[0], config.targets[3]};
  config.jobs = jobs;
  return config;
}

/// Fresh simulator per run so no RNG or cache state leaks between the
/// configurations being compared.
CampaignResult run_with(std::size_t jobs, double fault_rate = 0.0,
                        const CampaignRobustness& robustness = {}) {
  sim::AppMrcLibrary library;
  sim::Simulator simulator(tiny_machine(), &library);
  const CampaignConfig config = tiny_config(jobs);
  if (fault_rate > 0.0) {
    fault::FaultPlanConfig fault_config;
    fault_config.rate = fault_rate;
    fault_config.seed = 1234;
    const fault::FaultPlan plan(fault_config);
    fault::FaultInjector injector(simulator, plan);
    return run_campaign(injector, config, robustness);
  }
  return run_campaign(simulator, config, robustness);
}

void expect_reports_identical(const fault::CompletenessReport& got,
                              const fault::CompletenessReport& want) {
  EXPECT_EQ(got.cells_attempted, want.cells_attempted);
  EXPECT_EQ(got.cells_ok, want.cells_ok);
  EXPECT_EQ(got.cells_quarantined, want.cells_quarantined);
  EXPECT_EQ(got.cells_resumed, want.cells_resumed);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.transient_faults, want.transient_faults);
  EXPECT_EQ(got.corrupted_readings, want.corrupted_readings);
  EXPECT_EQ(got.deadline_overruns, want.deadline_overruns);
  ASSERT_EQ(got.quarantined.size(), want.quarantined.size());
  for (std::size_t i = 0; i < got.quarantined.size(); ++i) {
    EXPECT_EQ(got.quarantined[i].tag, want.quarantined[i].tag) << i;
    EXPECT_EQ(got.quarantined[i].reason, want.quarantined[i].reason) << i;
    EXPECT_EQ(got.quarantined[i].attempts, want.quarantined[i].attempts) << i;
  }
}

TEST(ParallelCampaign, DatasetIdenticalAcrossJobCounts) {
  const CampaignResult serial = run_with(1);
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{4},
                                 configured_jobs()}) {
    const CampaignResult parallel = run_with(jobs);
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    EXPECT_EQ(parallel.total_runs, serial.total_runs);
    expect_datasets_identical(parallel.dataset, serial.dataset);
    expect_reports_identical(parallel.completeness, serial.completeness);
  }
}

TEST(ParallelCampaign, FaultyRunStaysIdenticalAcrossJobCounts) {
  // 5% injected faults: retries, quarantines, and their report ordering
  // must still be a pure function of the sweep, not of scheduling.
  const CampaignResult serial = run_with(1, 0.05);
  const CampaignResult parallel = run_with(4, 0.05);
  expect_datasets_identical(parallel.dataset, serial.dataset);
  expect_reports_identical(parallel.completeness, serial.completeness);
}

TEST(ParallelCampaign, HangFaultsOverrunDeadlinesIdenticallyAcrossJobCounts) {
  // Injected hangs stall until their attempt's deadline; the runner counts
  // each as one overrun and retries it, identically at any job count.
  // Curves are profiled up front so no attempt spends its deadline
  // profiling.
  struct HangRun {
    CampaignResult result;
    std::uint64_t hangs = 0;
  };
  auto run = [](std::size_t jobs) {
    sim::AppMrcLibrary library;
    library.profile_all(tiny_suite());
    sim::Simulator simulator(tiny_machine(), &library);
    fault::FaultPlanConfig fault_config;
    fault_config.rate = 0.05;
    fault_config.seed = 1234;
    fault_config.kinds = {fault::FaultKind::kHang};
    fault_config.hang_cap_ms = 5000.0;
    const fault::FaultPlan plan(fault_config);
    fault::FaultInjector injector(simulator, plan);
    CampaignRobustness robustness;
    robustness.retry.deadline_ms = 250.0;
    robustness.retry.base_backoff_ms = 0.1;
    robustness.retry.max_backoff_ms = 0.5;
    HangRun out;
    out.result = run_campaign(injector, tiny_config(jobs), robustness);
    out.hangs = injector.injected(fault::FaultKind::kHang);
    return out;
  };
  const HangRun serial = run(1);
  const HangRun parallel = run(4);
  expect_datasets_identical(parallel.result.dataset, serial.result.dataset);
  expect_reports_identical(parallel.result.completeness,
                           serial.result.completeness);
  EXPECT_GT(serial.hangs, 0u);
  EXPECT_EQ(serial.result.completeness.deadline_overruns, serial.hangs);
  EXPECT_EQ(parallel.result.completeness.deadline_overruns, parallel.hangs);
}

TEST(ParallelCampaign, CheckpointFileBytesIdentical) {
  const std::string serial_path = temp_path("ckpt_serial.csv");
  const std::string parallel_path = temp_path("ckpt_parallel.csv");
  std::filesystem::remove(serial_path);
  std::filesystem::remove(parallel_path);

  CampaignRobustness serial;
  serial.checkpoint_path = serial_path;
  run_with(1, 0.0, serial);

  CampaignRobustness parallel;
  parallel.checkpoint_path = parallel_path;
  run_with(4, 0.0, parallel);

  EXPECT_EQ(file_bytes(parallel_path), file_bytes(serial_path));
  std::filesystem::remove(serial_path);
  std::filesystem::remove(parallel_path);
}

TEST(ParallelCampaign, ResumeMidParallelRunMatchesUninterruptedSerial) {
  const std::string path = temp_path("ckpt_resume_parallel.csv");
  std::filesystem::remove(path);

  const CampaignResult reference = run_with(1);

  // "Crash" a 4-worker run after 10 committed cells; in-flight
  // speculative measurements past the commit cursor are discarded.
  CampaignRobustness interrupted;
  interrupted.checkpoint_path = path;
  interrupted.checkpoint_every = 4;
  interrupted.abort_after_cells = 10;
  EXPECT_THROW(run_with(4, 0.0, interrupted), coloc::runtime_error);
  ASSERT_TRUE(std::filesystem::exists(path));

  CampaignRobustness resumed;
  resumed.checkpoint_path = path;
  resumed.resume = true;
  const CampaignResult result = run_with(4, 0.0, resumed);

  EXPECT_GE(result.completeness.cells_resumed, 10u);
  expect_datasets_identical(result.dataset, reference.dataset);
  std::filesystem::remove(path);
}

TEST(ParallelCampaign, AbortCommitsNothingPastItsCutoffAtAnyJobs) {
  // Workers may measure past the cut-off; only the first ten cells in
  // sweep order may reach the checkpoint, whatever the job count.
  auto aborted_checkpoint = [](std::size_t jobs) {
    const std::string path =
        temp_path("ckpt_abort_jobs" + std::to_string(jobs) + ".csv");
    std::filesystem::remove(path);
    CampaignRobustness robustness;
    robustness.checkpoint_path = path;
    robustness.checkpoint_every = 4;
    robustness.abort_after_cells = 10;
    EXPECT_THROW(run_with(jobs, 0.0, robustness), coloc::runtime_error);
    const std::string bytes = file_bytes(path);
    std::filesystem::remove(path);
    return bytes;
  };
  const std::string serial = aborted_checkpoint(1);
  const std::string parallel = aborted_checkpoint(4);
  EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'), 1 + 10)
      << "a header line and exactly ten rows";
  EXPECT_EQ(parallel, serial);
}

/// Counts run_colocated calls in flight through a real measurement source.
class InFlightCounter : public sim::MeasurementSource {
 public:
  explicit InFlightCounter(sim::MeasurementSource& inner) : inner_(inner) {}

  const sim::MachineConfig& machine() const override {
    return inner_.machine();
  }
  sim::RunMeasurement run_alone(const sim::ApplicationSpec& app,
                                std::size_t pstate_index,
                                std::uint64_t repetition) override {
    return inner_.run_alone(app, pstate_index, repetition);
  }
  sim::RunMeasurement run_colocated(
      const sim::ApplicationSpec& target,
      const std::vector<sim::ApplicationSpec>& coapps,
      std::size_t pstate_index, std::uint64_t repetition) override {
    const int now = ++in_flight_;
    int seen = peak_.load();
    while (now > seen && !peak_.compare_exchange_weak(seen, now)) {
    }
    // Hold each call open long enough for overlapping workers to show.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const sim::RunMeasurement m =
        inner_.run_colocated(target, coapps, pstate_index, repetition);
    --in_flight_;
    ++calls_;
    return m;
  }

  int peak() const { return peak_.load(); }
  int calls() const { return calls_.load(); }

 private:
  sim::MeasurementSource& inner_;
  std::atomic<int> in_flight_{0};
  std::atomic<int> peak_{0};
  std::atomic<int> calls_{0};
};

TEST(ParallelCampaign, NeverMeasuresMoreCellsAtOnceThanItsJobs) {
  if (global_pool().size() < 3) {
    GTEST_SKIP() << "needs a global pool of at least 3 workers";
  }
  sim::AppMrcLibrary library;
  sim::Simulator simulator(tiny_machine(), &library);
  InFlightCounter counter(simulator);
  const CampaignResult result = run_campaign(counter, tiny_config(2));
  EXPECT_GT(counter.calls(), 0);
  EXPECT_LE(counter.peak(), 2);
  expect_datasets_identical(result.dataset, run_with(1).dataset);
}

TEST(ParallelCampaign, ExportsStagePoolGaugesFromItsOwnCall) {
  if (global_pool().size() < 2) {
    GTEST_SKIP() << "needs a global pool of at least 2 workers";
  }
  run_with(2);
  auto& registry = obs::Registry::global();
  const obs::Labels labels = {{"stage", "campaign"}};
  EXPECT_EQ(registry.gauge("stage_pool_workers", labels).value(), 2.0);
  EXPECT_GT(registry.gauge("stage_pool_busy_seconds", labels).value(), 0.0);
  const double utilization =
      registry.gauge("stage_pool_utilization", labels).value();
  EXPECT_GT(utilization, 0.0);
  EXPECT_LE(utilization, 1.0);
}

TEST(ParallelCampaign, AloneRowsAndExplicitSubsweepStayIdentical) {
  // A non-default sweep shape: some co-runner counts, some P-states.
  auto run_shaped = [&](std::size_t jobs) {
    sim::AppMrcLibrary library;
    sim::Simulator simulator(tiny_machine(), &library);
    CampaignConfig config = tiny_config(jobs);
    config.colocation_counts = {1, 3};
    config.pstate_indices = {0, 2};
    return run_campaign(simulator, config);
  };
  const CampaignResult serial = run_shaped(1);
  const CampaignResult parallel = run_shaped(3);
  expect_datasets_identical(parallel.dataset, serial.dataset);
  expect_reports_identical(parallel.completeness, serial.completeness);
}

TEST(ParallelZoo, AllTwelveModelsIdenticalAcrossJobCounts) {
  // One small campaign dataset, then the full 12-model evaluation with
  // the validation stage serial vs. 4-way parallel: every error metric of
  // every model must match exactly, not approximately.
  const CampaignResult campaign = run_with(1);

  EvaluationConfig serial_config;
  serial_config.validation.partitions = 3;
  serial_config.validation.jobs = 1;
  serial_config.zoo.mlp.max_iterations = 60;
  serial_config.zoo.mlp.restarts = 1;

  EvaluationConfig parallel_config = serial_config;
  parallel_config.validation.jobs = 4;

  const EvaluationSuite serial =
      evaluate_model_zoo(campaign.dataset, serial_config);
  const EvaluationSuite parallel =
      evaluate_model_zoo(campaign.dataset, parallel_config);

  ASSERT_EQ(serial.evaluations.size(), 12u);
  ASSERT_EQ(parallel.evaluations.size(), serial.evaluations.size());
  for (std::size_t i = 0; i < serial.evaluations.size(); ++i) {
    const ModelEvaluation& a = serial.evaluations[i];
    const ModelEvaluation& b = parallel.evaluations[i];
    SCOPED_TRACE(a.id.name());
    EXPECT_EQ(b.id.name(), a.id.name());
    EXPECT_EQ(b.result.train_mpe, a.result.train_mpe);
    EXPECT_EQ(b.result.test_mpe, a.result.test_mpe);
    EXPECT_EQ(b.result.train_nrmse, a.result.train_nrmse);
    EXPECT_EQ(b.result.test_nrmse, a.result.test_nrmse);
    EXPECT_EQ(b.result.test_mpe_stddev, a.result.test_mpe_stddev);
    EXPECT_EQ(b.result.test_nrmse_stddev, a.result.test_nrmse_stddev);
  }
}

TEST(ParallelZoo, FusedMultiRestartZooIdenticalToSequentialLoop) {
  // The bench's zoo race at test scale: three-restart fused fits with the
  // validation stage on one worker versus the flat model x partition task
  // graph on 4 workers. (fit is bit-identical to the sequential restart
  // loop itself; test_mlp_batched checks that against a test-side
  // reference.) Every metric of every model must match bit for bit, and
  // under TSan this races concurrent fused fits against the in-order
  // commit path.
  const CampaignResult campaign = run_with(1);

  EvaluationConfig sequential_config;
  sequential_config.validation.partitions = 3;
  sequential_config.validation.jobs = 1;
  sequential_config.zoo.mlp.max_iterations = 60;
  sequential_config.zoo.mlp.restarts = 3;

  EvaluationConfig fused_config = sequential_config;
  fused_config.validation.jobs = 4;

  const EvaluationSuite sequential =
      evaluate_model_zoo(campaign.dataset, sequential_config);
  const EvaluationSuite fused =
      evaluate_model_zoo(campaign.dataset, fused_config);

  ASSERT_EQ(sequential.evaluations.size(), 12u);
  ASSERT_EQ(fused.evaluations.size(), sequential.evaluations.size());
  for (std::size_t i = 0; i < sequential.evaluations.size(); ++i) {
    const ModelEvaluation& a = sequential.evaluations[i];
    const ModelEvaluation& b = fused.evaluations[i];
    SCOPED_TRACE(a.id.name());
    EXPECT_EQ(b.id.name(), a.id.name());
    EXPECT_EQ(b.result.train_mpe, a.result.train_mpe);
    EXPECT_EQ(b.result.test_mpe, a.result.test_mpe);
    EXPECT_EQ(b.result.train_nrmse, a.result.train_nrmse);
    EXPECT_EQ(b.result.test_nrmse, a.result.test_nrmse);
    EXPECT_EQ(b.result.test_mpe_stddev, a.result.test_mpe_stddev);
    EXPECT_EQ(b.result.test_nrmse_stddev, a.result.test_nrmse_stddev);
  }
}

TEST(ParallelZoo, ConcurrentFullZooTrainingIsDeterministic) {
  // train_full_zoo fans the twelve fits across global_pool() and commits
  // them strictly in id order; two runs must serialize every model to
  // identical bytes. Under TSan this is the concurrent-training suite:
  // workers write disjoint slots while the commit loop reads them only
  // after the pool joins.
  const CampaignResult campaign = run_with(1);
  ml::MlpOptions mlp;
  mlp.max_iterations = 50;
  mlp.restarts = 2;
  ModelZooOptions options;
  options.mlp = mlp;

  const TrainedZoo first = train_full_zoo(campaign.dataset, options);
  const TrainedZoo second = train_full_zoo(campaign.dataset, options);
  ASSERT_EQ(first.models.size(), 12u);
  ASSERT_EQ(second.models.size(), first.models.size());
  for (const auto& [name, model] : first.models) {
    SCOPED_TRACE(name);
    const auto it = second.models.find(name);
    ASSERT_NE(it, second.models.end());
    std::ostringstream a, b;
    ml::save_model(a, *model);
    ml::save_model(b, *it->second);
    EXPECT_EQ(a.str(), b.str());
  }
}

}  // namespace
}  // namespace coloc::core
