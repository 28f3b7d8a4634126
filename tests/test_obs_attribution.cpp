// Tests for the perf-attribution layer: metrics/manifest round trips, the
// stage accounting check behind `obs_report BUNDLE` (including the tool's
// exit status), and the regression gate behind `obs_report A B`.
#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/attribution.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace coloc;

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(HistogramStats, QuantilesAccumulatePerBucketCounts) {
  obs::HistogramStats h;
  h.count = 100;
  h.sum = 0.15;
  h.buckets = {{1e-3, 50}, {2e-3, 49}, {kInf, 1}};
  EXPECT_DOUBLE_EQ(h.mean(), 0.0015);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1e-3);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2e-3);
  // The +inf bucket reports the last finite bound, not infinity.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2e-3);
  EXPECT_DOUBLE_EQ(obs::HistogramStats{}.quantile(0.5), 0.0);
}

TEST(MetricsDoc, RoundTripsThroughJsonExport) {
  obs::Registry registry;
  registry.counter("tasks_total").inc(3);
  registry.gauge("stage_pool_utilization", {{"stage", "campaign"}}).set(0.75);
  auto& hist = registry.histogram("pool_queue_wait_seconds");
  hist.observe(0.5e-3);
  hist.observe(0.5e-3);
  hist.observe(4.0);

  const std::string path =
      testing::TempDir() + "coloc_attribution_metrics.json";
  ASSERT_TRUE(obs::write_metrics_file(registry.snapshot(), path));

  const obs::MetricsDoc doc = obs::MetricsDoc::load_file(path);
  const obs::MetricEntry* tasks = doc.find("tasks_total");
  ASSERT_NE(tasks, nullptr);
  EXPECT_DOUBLE_EQ(tasks->value, 3.0);
  const obs::MetricEntry* util =
      doc.find("stage_pool_utilization", {{"stage", "campaign"}});
  ASSERT_NE(util, nullptr);
  EXPECT_DOUBLE_EQ(util->value, 0.75);
  // Label-subset match must not cross label values.
  EXPECT_EQ(doc.find("stage_pool_utilization", {{"stage", "validation"}}),
            nullptr);
  const obs::MetricEntry* q = doc.find("pool_queue_wait_seconds");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->type, "histogram");
  EXPECT_EQ(q->histogram.count, 3u);
  EXPECT_NEAR(q->histogram.sum, 4.001, 1e-9);
  EXPECT_LE(q->histogram.quantile(0.5), 1e-3);
  EXPECT_GE(q->histogram.quantile(0.99), 4.0);
}

TEST(Fnv1a64, KnownAnswersAndChaining) {
  EXPECT_EQ(obs::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(obs::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(obs::fnv1a64("foobar"), 0x85944171f73967e8ULL);
  // A previous result as the basis continues the hash.
  EXPECT_EQ(obs::fnv1a64("ab"), obs::fnv1a64("b", obs::fnv1a64("a")));
}

TEST(Manifest, RoundTripsThroughJsonFile) {
  obs::Registry registry;
  registry.gauge("stage_wall_seconds", {{"stage", "validation"}}).set(1.25);
  registry.gauge("stage_wall_seconds", {{"stage", "campaign"}}).set(2.5);

  obs::ManifestInfo info;
  info.program = "test_bench";
  info.machine_preset = "xeon_e5649";
  info.seed = 99;
  info.jobs = 4;
  info.fault_rate = 0.05;
  info.extra.emplace_back("partitions", "100");

  const obs::Manifest written =
      obs::Manifest::collect(info, registry.snapshot(), 3.75);
  EXPECT_EQ(written.metrics_digest.size(), 16u);
  // Stages harvested from the gauges, sorted by name.
  ASSERT_EQ(written.stages.size(), 2u);
  EXPECT_EQ(written.stages[0].stage, "campaign");
  EXPECT_EQ(written.stages[1].stage, "validation");

  const std::string path =
      testing::TempDir() + "coloc_attribution_manifest.json";
  ASSERT_TRUE(written.write(path));
  const obs::Manifest read = obs::Manifest::from_json_file(path);

  EXPECT_EQ(read.info.program, "test_bench");
  EXPECT_EQ(read.info.machine_preset, "xeon_e5649");
  EXPECT_EQ(read.info.seed, 99u);
  EXPECT_EQ(read.info.jobs, 4u);
  EXPECT_DOUBLE_EQ(read.info.fault_rate, 0.05);
  ASSERT_EQ(read.info.extra.size(), 1u);
  EXPECT_EQ(read.info.extra[0].first, "partitions");
  EXPECT_EQ(read.git_describe, written.git_describe);
  EXPECT_DOUBLE_EQ(read.total_wall_seconds, 3.75);
  EXPECT_DOUBLE_EQ(read.stage_wall("campaign"), 2.5);
  EXPECT_DOUBLE_EQ(read.stage_wall("validation"), 1.25);
  EXPECT_DOUBLE_EQ(read.stage_wall("absent"), -1.0);
  EXPECT_EQ(read.metrics_digest, written.metrics_digest);
}

TEST(Manifest, TrainingSectionRoundTripsThroughJsonFile) {
  obs::Registry registry;
  registry.counter("scg_runs_total").inc(12);
  registry.counter("scg_fused_restarts_total").inc(48);
  registry.counter("validation_design_memo_hits_total").inc(5);
  auto& gemm = registry.histogram("train_gemm_seconds");
  gemm.observe(0.25);
  gemm.observe(0.75);

  obs::ManifestInfo info;
  info.program = "test_bench";
  const obs::Manifest written =
      obs::Manifest::collect(info, registry.snapshot(), 1.0);
  EXPECT_DOUBLE_EQ(written.training_value("scg_runs_total"), 12.0);
  EXPECT_DOUBLE_EQ(written.training_value("scg_fused_restarts_total"), 48.0);
  EXPECT_DOUBLE_EQ(
      written.training_value("validation_design_memo_hits_total"), 5.0);
  EXPECT_DOUBLE_EQ(written.training_value("train_gemm_seconds_sum"), 1.0);
  EXPECT_DOUBLE_EQ(written.training_value("train_gemm_seconds_count"), 2.0);
  // Zero-valued counters stay out of the section entirely.
  EXPECT_DOUBLE_EQ(written.training_value("scg_epochs_total"), -1.0);

  const std::string path =
      testing::TempDir() + "coloc_attribution_training_manifest.json";
  ASSERT_TRUE(written.write(path));
  const obs::Manifest read = obs::Manifest::from_json_file(path);
  ASSERT_EQ(read.training.size(), written.training.size());
  for (std::size_t i = 0; i < written.training.size(); ++i) {
    EXPECT_EQ(read.training[i].metric, written.training[i].metric) << i;
    EXPECT_DOUBLE_EQ(read.training[i].value, written.training[i].value) << i;
  }
}

obs::BundleData synthetic_bundle(double campaign_wall_s,
                                 double queue_wait_bound_s) {
  obs::BundleData b;
  b.dir = "synthetic";
  b.manifest.info.program = "test_bench";
  b.manifest.total_wall_seconds = 10.0;
  b.manifest.stages.push_back({"campaign", campaign_wall_s});
  b.manifest.stages.push_back({"validation", 2.0});
  obs::MetricEntry q;
  q.name = "pool_queue_wait_seconds";
  q.type = "histogram";
  q.histogram.count = 100;
  q.histogram.sum = queue_wait_bound_s * 100;
  q.histogram.buckets = {{queue_wait_bound_s, 100}};
  b.metrics.entries.push_back(std::move(q));
  return b;
}

TEST(DiffBundles, IdenticalBundlesPassTheGate) {
  const obs::BundleData a = synthetic_bundle(1.0, 1e-3);
  const obs::DiffResult diff = obs::diff_bundles(a, a);
  EXPECT_FALSE(diff.regression);
  EXPECT_TRUE(diff.regressions.empty());
  EXPECT_NE(diff.text.find("OK: no thresholds tripped"), std::string::npos);
}

TEST(DiffBundles, ExactlyTenPercentStageRegressionTrips) {
  const obs::BundleData baseline = synthetic_bundle(1.0, 1e-3);
  const obs::BundleData current = synthetic_bundle(1.1, 1e-3);
  const obs::DiffResult diff = obs::diff_bundles(baseline, current);
  ASSERT_TRUE(diff.regression);
  ASSERT_EQ(diff.regressions.size(), 1u);
  EXPECT_NE(diff.regressions[0].find("campaign"), std::string::npos);
  EXPECT_NE(diff.text.find("REGRESSION"), std::string::npos);
}

TEST(DiffBundles, BelowThresholdGrowthDoesNotTrip) {
  const obs::BundleData baseline = synthetic_bundle(1.0, 1e-3);
  const obs::BundleData current = synthetic_bundle(1.09, 1e-3);
  EXPECT_FALSE(obs::diff_bundles(baseline, current).regression);
}

TEST(DiffBundles, QueueWaitP99RegressionTrips) {
  const obs::BundleData baseline = synthetic_bundle(1.0, 1e-3);
  // p99 jumps 1ms -> 4ms (+300%), well past the 25% default threshold,
  // while stage walls stay flat.
  const obs::BundleData current = synthetic_bundle(1.0, 4e-3);
  const obs::DiffResult diff = obs::diff_bundles(baseline, current);
  ASSERT_TRUE(diff.regression);
  ASSERT_EQ(diff.regressions.size(), 1u);
  EXPECT_NE(diff.regressions[0].find("pool_queue_wait_seconds"),
            std::string::npos);
}

TEST(DiffBundles, TrainGemmSumRegressionTrips) {
  obs::BundleData baseline = synthetic_bundle(1.0, 1e-3);
  baseline.manifest.training.push_back({"train_gemm_seconds_sum", 1.0});
  obs::BundleData current = synthetic_bundle(1.0, 1e-3);
  current.manifest.training.push_back({"train_gemm_seconds_sum", 1.5});
  const obs::DiffResult diff = obs::diff_bundles(baseline, current);
  ASSERT_TRUE(diff.regression);
  ASSERT_EQ(diff.regressions.size(), 1u);
  EXPECT_NE(diff.regressions[0].find("train_gemm_seconds_sum"),
            std::string::npos);

  // Below the default +25% threshold: no trip. Absent sections never gate.
  obs::BundleData mild = synthetic_bundle(1.0, 1e-3);
  mild.manifest.training.push_back({"train_gemm_seconds_sum", 1.2});
  EXPECT_FALSE(obs::diff_bundles(baseline, mild).regression);
  const obs::BundleData untrained = synthetic_bundle(1.0, 1e-3);
  EXPECT_FALSE(obs::diff_bundles(untrained, current).regression);
}

/// Writes `registry` as a bundle (metrics.json + manifest.json, stages
/// harvested from its stage_wall_seconds gauges) into a fresh temp
/// directory and returns the directory.
std::string write_bundle(const obs::Registry& registry,
                         const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_TRUE(obs::write_metrics_file(snapshot, dir + "/metrics.json"));
  obs::ManifestInfo info;
  info.program = "test_bench";
  EXPECT_TRUE(obs::Manifest::collect(info, snapshot, 5.0)
                  .write(dir + "/manifest.json"));
  return dir;
}

/// Exit status of tools/obs_report run on one bundle directory.
int obs_report_exit_status(const std::string& dir) {
  const std::string command =
      std::string(COLOC_OBS_REPORT) + " " + dir + " > /dev/null";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(BundleData, LoadsFromDiskWithoutATrace) {
  obs::Registry registry;
  const obs::Labels labels = {{"stage", "campaign"}};
  registry.gauge("stage_wall_seconds", labels).set(2.5);
  registry.gauge("stage_pool_workers", labels).set(2);
  registry.gauge("stage_pool_wall_seconds", labels).set(2.5);
  registry.gauge("stage_pool_busy_seconds", labels).set(4.0);
  registry.gauge("stage_pool_idle_seconds", labels).set(1.0);
  registry.gauge("stage_pool_wait_seconds", labels).set(0.25);
  registry.gauge("stage_pool_utilization", labels).set(0.8);
  const std::string dir = write_bundle(registry, "coloc_attribution_bundle");

  const obs::BundleData bundle = obs::BundleData::load(dir);
  EXPECT_FALSE(std::filesystem::exists(dir + "/trace.json"));
  EXPECT_EQ(bundle.manifest.info.program, "test_bench");
  EXPECT_DOUBLE_EQ(bundle.manifest.stage_wall("campaign"), 2.5);

  const obs::ReportResult report = obs::render_report(bundle);
  EXPECT_NE(report.text.find("== stages =="), std::string::npos);
  EXPECT_NE(report.text.find("campaign"), std::string::npos);
  EXPECT_NE(report.text.find("utilization 80%"), std::string::npos);
  EXPECT_TRUE(report.failures.empty());

  // Loading via the manifest path directly lands in the same bundle.
  const obs::BundleData via_manifest =
      obs::BundleData::load(dir + "/manifest.json");
  EXPECT_EQ(via_manifest.manifest.info.program, "test_bench");
}

/// One 2.5 s campaign stage whose 2-worker pool call balances:
/// 2 x 2.0 s = busy 3.5 s + idle 0.5 s (wait 0.1 s + tail 0.4 s).
struct StageGauges {
  double stage_wall = 2.5;
  double call_wall = 2.0;
  double busy = 3.5;
  double idle = 0.5;
  bool with_idle = true;
};

std::string write_stage_bundle(const std::string& name,
                               const StageGauges& g) {
  obs::Registry registry;
  const obs::Labels labels = {{"stage", "campaign"}};
  registry.gauge("stage_wall_seconds", labels).set(g.stage_wall);
  registry.gauge("stage_pool_workers", labels).set(2);
  registry.gauge("stage_pool_wall_seconds", labels).set(g.call_wall);
  registry.gauge("stage_pool_busy_seconds", labels).set(g.busy);
  if (g.with_idle) {
    registry.gauge("stage_pool_idle_seconds", labels).set(g.idle);
  }
  registry.gauge("stage_pool_wait_seconds", labels).set(0.1);
  registry.gauge("stage_pool_utilization", labels)
      .set(g.busy / (g.busy + g.idle));
  // A stage without a pool call is reported, never checked.
  registry.gauge("stage_wall_seconds", {{"stage", "supervisor"}}).set(0.25);
  return write_bundle(registry, name);
}

TEST(StageAccounting, BalancedGaugesPass) {
  const std::string dir =
      write_stage_bundle("coloc_accounting_balanced", StageGauges{});
  const obs::BundleData bundle = obs::BundleData::load(dir);
  const std::vector<obs::StageAccounting> stages =
      obs::account_stages(bundle);
  ASSERT_EQ(stages.size(), 2u);
  const obs::StageAccounting& campaign = stages[0];
  EXPECT_EQ(campaign.stage, "campaign");
  EXPECT_TRUE(campaign.pooled);
  EXPECT_TRUE(campaign.failures.empty());
  EXPECT_NEAR(campaign.outside_seconds(), 0.5, 1e-12);
  EXPECT_NEAR(campaign.capacity_seconds(), 4.0, 1e-12);
  EXPECT_NEAR(campaign.tail_seconds(), 0.4, 1e-12);
  EXPECT_NEAR(campaign.residual_seconds(), 0.0, 1e-12);
  EXPECT_EQ(stages[1].stage, "supervisor");
  EXPECT_FALSE(stages[1].pooled);
  EXPECT_TRUE(stages[1].failures.empty());

  const obs::ReportResult report = obs::render_report(bundle);
  EXPECT_TRUE(report.failures.empty());
  EXPECT_NE(report.text.find("campaign: wall 2.500 s = pool call 2.000 s + "
                             "outside 500.000 ms"),
            std::string::npos)
      << report.text;
  EXPECT_NE(report.text.find("2 workers x 2.000 s = busy 3.500 s + idle "
                             "500.000 ms (wait 100.000 ms + tail 400.000 "
                             "ms) + residual 0.0 us"),
            std::string::npos)
      << report.text;
  EXPECT_NE(report.text.find("supervisor: wall 250.000 ms (no pool call)"),
            std::string::npos);
  EXPECT_EQ(obs_report_exit_status(dir), 0);
}

TEST(StageAccounting, MissingIdleGaugeFailsAndObsReportExitsTwo) {
  StageGauges gauges;
  gauges.with_idle = false;
  const std::string dir =
      write_stage_bundle("coloc_accounting_no_idle", gauges);
  const obs::ReportResult report =
      obs::render_report(obs::BundleData::load(dir));
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].find("missing stage_pool_idle_seconds"),
            std::string::npos)
      << report.failures[0];
  EXPECT_EQ(obs_report_exit_status(dir), 2);
}

TEST(StageAccounting, PoolCallLongerThanItsStageFails) {
  StageGauges gauges;
  gauges.call_wall = 2.6;  // 2 x 2.6 s = busy 4.7 s + idle 0.5 s
  gauges.busy = 4.7;
  const std::vector<obs::StageAccounting> stages = obs::account_stages(
      obs::BundleData::load(write_stage_bundle("coloc_accounting_long_call",
                                               gauges)));
  ASSERT_EQ(stages[0].failures.size(), 1u);
  EXPECT_NE(stages[0].failures[0].find("outlasts"), std::string::npos)
      << stages[0].failures[0];
}

TEST(StageAccounting, DroppedTailFails) {
  // Idle booked as the start delay alone: the 0.4 s tail surfaces as
  // residual, ten times the 40 ms tolerance of a 4 s capacity.
  StageGauges gauges;
  gauges.idle = 0.1;
  const std::vector<obs::StageAccounting> stages = obs::account_stages(
      obs::BundleData::load(write_stage_bundle("coloc_accounting_no_tail",
                                               gauges)));
  EXPECT_NEAR(stages[0].residual_seconds(), 0.4, 1e-12);
  ASSERT_EQ(stages[0].failures.size(), 1u);
  EXPECT_NE(stages[0].failures[0].find("residual"), std::string::npos)
      << stages[0].failures[0];
}

TEST(StageAccounting, ToleranceIsOneMillisecondOrOnePercentOfCapacity) {
  EXPECT_DOUBLE_EQ(obs::residual_tolerance(0.0), 1e-3);
  EXPECT_DOUBLE_EQ(obs::residual_tolerance(0.05), 1e-3);
  EXPECT_DOUBLE_EQ(obs::residual_tolerance(4.0), 0.04);
}

}  // namespace
