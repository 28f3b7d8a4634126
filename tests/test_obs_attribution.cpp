// Tests for the perf-attribution layer: metrics/manifest round trips, the
// run bundle ObsSession writes, the stage accounting check behind
// `obs_report BUNDLE` (including the tool's exit status and the per-call
// check export_stage_pool_gauges feeds), and the regression gate behind
// `obs_report A B`.
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/attribution.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"

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
  EXPECT_EQ(read.metrics_digest, written.metrics_digest);
}

obs::MetricEntry stage_wall_entry(const std::string& stage, double wall_s) {
  obs::MetricEntry e;
  e.name = "stage_wall_seconds";
  e.labels = {{"stage", stage}};
  e.type = "gauge";
  e.value = wall_s;
  return e;
}

/// A histogram entry whose `count` samples all sit in the bucket `bound`.
obs::MetricEntry histogram_entry(const std::string& name, double bound,
                                 std::uint64_t count, double sum) {
  obs::MetricEntry e;
  e.name = name;
  e.type = "histogram";
  e.histogram.count = count;
  e.histogram.sum = sum;
  e.histogram.buckets = {{bound, count}};
  return e;
}

obs::BundleData synthetic_bundle(double campaign_wall_s,
                                 double queue_wait_bound_s) {
  obs::BundleData b;
  b.dir = "synthetic";
  b.manifest.info.program = "test_bench";
  b.manifest.total_wall_seconds = 10.0;
  b.metrics.entries.push_back(stage_wall_entry("campaign", campaign_wall_s));
  b.metrics.entries.push_back(stage_wall_entry("validation", 2.0));
  b.metrics.entries.push_back(
      histogram_entry("pool_queue_wait_seconds", queue_wait_bound_s, 100,
                      queue_wait_bound_s * 100));
  return b;
}

/// synthetic_bundle plus a trained-model GEMM histogram summing to
/// `gemm_sum_s`.
obs::BundleData trained_bundle(double gemm_sum_s) {
  obs::BundleData b = synthetic_bundle(1.0, 1e-3);
  b.metrics.entries.push_back(
      histogram_entry("train_gemm_seconds", 0.5, 4, gemm_sum_s));
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
  const obs::BundleData baseline = trained_bundle(1.0);
  const obs::BundleData current = trained_bundle(1.5);
  const obs::DiffResult diff = obs::diff_bundles(baseline, current);
  ASSERT_TRUE(diff.regression);
  ASSERT_EQ(diff.regressions.size(), 1u);
  EXPECT_NE(diff.regressions[0].find("train_gemm_seconds sum"),
            std::string::npos);

  // Below the +25% threshold: no trip. A bundle that trained nothing
  // never gates.
  EXPECT_FALSE(obs::diff_bundles(baseline, trained_bundle(1.2)).regression);
  const obs::BundleData untrained = synthetic_bundle(1.0, 1e-3);
  EXPECT_FALSE(obs::diff_bundles(untrained, current).regression);
}

/// Writes `registry` as a bundle (metrics.json + manifest.json) into a
/// fresh temp directory and returns the directory.
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

/// Exit status of tools/obs_report run with `args` (bundle directories,
/// or anything else to probe its usage check).
int obs_report_exit_status(const std::string& args) {
  const std::string command =
      std::string(COLOC_OBS_REPORT) + " " + args + " > /dev/null 2>&1";
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
  registry.counter("stage_pool_unbalanced_calls_total", labels);
  const std::string dir = write_bundle(registry, "coloc_attribution_bundle");

  const obs::BundleData bundle = obs::BundleData::load(dir);
  EXPECT_FALSE(std::filesystem::exists(dir + "/trace.json"));
  EXPECT_EQ(bundle.manifest.info.program, "test_bench");
  const obs::MetricEntry* wall =
      bundle.metrics.find("stage_wall_seconds", labels);
  ASSERT_NE(wall, nullptr);
  EXPECT_DOUBLE_EQ(wall->value, 2.5);

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

/// One 2.5 s campaign stage (the last of three calls) whose 2-worker pool
/// call balances: 2 x 2.0 s = busy 3.5 s + idle 0.5 s (wait 0.1 s + tail
/// 0.4 s).
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
  registry.counter("stage_runs_total", labels).inc(3);
  registry.counter("stage_pool_unbalanced_calls_total", labels);
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
  EXPECT_NE(report.text.find("campaign: wall 2.500 s (last of 3 calls) = "
                             "pool call 2.000 s + outside 500.000 ms"),
            std::string::npos)
      << report.text;
  EXPECT_NE(report.text.find("2 workers x 2.000 s = busy 3.500 s + idle "
                             "500.000 ms (wait 100.000 ms + tail 400.000 "
                             "ms) + residual 0.0 us"),
            std::string::npos)
      << report.text;
  EXPECT_NE(report.text.find("unbalanced calls 0: ok"), std::string::npos)
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
  // Two pool calls of one stage through the export path. The first books
  // idle as the start delay alone, so its 0.4 s tail surfaces as residual,
  // ten times the 40 ms tolerance of its 4 s capacity; the second
  // balances. The gauges keep only the balanced last call, so only the
  // per-call check can see the first.
  obs::Registry& registry = obs::Registry::global();
  registry.reset();
  PoolStats dropped_tail;
  dropped_tail.busy_seconds = 3.5;
  dropped_tail.idle_seconds = 0.1;
  dropped_tail.wait_seconds = 0.1;
  dropped_tail.wall_seconds = 2.0;
  dropped_tail.workers = 2;
  PoolStats balanced = dropped_tail;
  balanced.idle_seconds = 0.5;
  export_stage_pool_gauges("campaign", dropped_tail);
  export_stage_pool_gauges("campaign", balanced);
  registry.gauge("stage_wall_seconds", {{"stage", "campaign"}}).set(2.5);
  const std::string dir =
      write_bundle(registry, "coloc_accounting_dropped_tail");

  const obs::BundleData bundle = obs::BundleData::load(dir);
  const std::vector<obs::StageAccounting> stages =
      obs::account_stages(bundle);
  const auto campaign =
      std::find_if(stages.begin(), stages.end(),
                   [](const obs::StageAccounting& s) {
                     return s.stage == "campaign";
                   });
  ASSERT_NE(campaign, stages.end());
  EXPECT_NEAR(campaign->residual_seconds(), 0.0, 1e-12);  // the last call
  EXPECT_DOUBLE_EQ(campaign->unbalanced_calls, 1.0);
  ASSERT_EQ(campaign->failures.size(), 1u);
  EXPECT_NE(campaign->failures[0].find("unbalanced"), std::string::npos)
      << campaign->failures[0];
  EXPECT_FALSE(obs::render_report(bundle).failures.empty());
  EXPECT_EQ(obs_report_exit_status(dir), 2);
}

TEST(StageAccounting, ToleranceIsOneMillisecondOrOnePercentOfCapacity) {
  EXPECT_DOUBLE_EQ(obs::residual_tolerance(0.0), 1e-3);
  EXPECT_DOUBLE_EQ(obs::residual_tolerance(0.05), 1e-3);
  EXPECT_DOUBLE_EQ(obs::residual_tolerance(4.0), 0.04);
}

/// Seconds from a report rendering ("2.500 s", "13.800 ms", "27.0 us"),
/// with the half-unit of its last printed digit as `tolerance`.
double parse_seconds(const std::string& text, double& tolerance) {
  std::istringstream is(text);
  std::string number;
  std::string unit;
  is >> number >> unit;
  const double scale = unit.rfind("ms", 0) == 0   ? 1e-3
                      : unit.rfind("us", 0) == 0 ? 1e-6
                                                 : 1.0;
  const std::size_t point = number.find('.');
  const std::size_t decimals =
      point == std::string::npos ? 0 : number.size() - point - 1;
  tolerance = 0.5 * std::pow(10.0, -static_cast<double>(decimals)) * scale;
  return std::stod(number) * scale;
}

/// The entry a report names as "name" or "name{k=v,...}".
const obs::MetricEntry* find_rendered(const obs::MetricsDoc& doc,
                                      const std::string& rendered) {
  const std::size_t brace = rendered.find('{');
  if (brace == std::string::npos) return doc.find(rendered);
  obs::Labels labels;
  std::istringstream is(
      rendered.substr(brace + 1, rendered.size() - brace - 2));
  for (std::string kv; std::getline(is, kv, ',');) {
    const std::size_t eq = kv.find('=');
    labels.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
  }
  return doc.find(rendered.substr(0, brace), labels);
}

/// Records two stage walls, recovery and training counters, a train-GEMM
/// histogram and two of its kernel timers in the global registry, then
/// writes them as a bundle through an ObsSession into a fresh directory and
/// returns it.
std::string write_session_bundle(const std::string& name) {
  obs::Registry& registry = obs::Registry::global();
  registry.reset();
  registry.gauge("stage_wall_seconds", {{"stage", "campaign"}}).set(0.0138);
  registry.counter("stage_runs_total", {{"stage", "campaign"}}).inc(11);
  registry.gauge("stage_wall_seconds", {{"stage", "validation"}}).set(1.51);
  registry.counter("store_corruption_detected_total", {{"reason", "digest"}})
      .inc(3);
  registry.counter("zoo_models_retrained_total").inc(2);
  registry.counter("scg_runs_total").inc(12);
  registry.counter("scg_fused_restarts_total").inc(48);
  registry.histogram("train_gemm_seconds").observe(0.25);
  registry.histogram("train_gemm_seconds").observe(0.75);
  registry.histogram("train_kernel_seconds", {{"kernel", "tanh"}})
      .observe(0.375);
  registry.histogram("train_kernel_seconds", {{"kernel", "backward"}})
      .observe(0.0625);

  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  obs::ObsOptions options;
  options.bundle_dir = dir;
  options.manifest.program = "test_bench";
  { const obs::ObsSession session(options); }
  return dir;
}

TEST(ObsSession, BundleHoldsExactlyManifestMetricsAndTrace) {
  const std::string dir = write_session_bundle("coloc_session_bundle");
  std::set<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.insert(entry.path().filename().string());
  }
  EXPECT_EQ(files, (std::set<std::string>{"manifest.json", "metrics.json",
                                          "trace.json"}));
  // Every number lives in metrics.json; the manifest copies none of them.
  const obs::JsonValue manifest = obs::json_parse_file(dir + "/manifest.json");
  for (const char* key : {"stages", "recovery", "training"}) {
    EXPECT_EQ(manifest.find(key), nullptr) << key;
  }
  EXPECT_EQ(manifest.at("program").string, "test_bench");
  EXPECT_TRUE(obs::json_parse_file(dir + "/trace.json")
                  .at("traceEvents")
                  .is_array());
}

TEST(ObsSession, ManifestExtrasKeepTheirOrderAndTakeTheLastWrite) {
  const std::string dir = testing::TempDir() + "coloc_session_extras";
  std::filesystem::remove_all(dir);
  obs::ObsOptions options;
  options.bundle_dir = dir;
  options.manifest.extra = {{"partitions", "6"}, {"quick", "0"}};
  {
    obs::ObsSession session(options);
    session.add_manifest_extra("zoo_bundle_digest", "00aa");
    session.add_manifest_extra("partitions", "7");
    session.add_manifest_extra("zoo_bundle_digest", "00bb");
  }
  const std::vector<std::pair<std::string, std::string>> want = {
      {"partitions", "7"}, {"quick", "0"}, {"zoo_bundle_digest", "00bb"}};
  EXPECT_EQ(obs::Manifest::from_json_file(dir + "/manifest.json").info.extra,
            want);
}

TEST(ObsSession, UncreatableBundleDirectoryThrowsNamingIt) {
  // A regular file cannot hold a directory: the session refuses at
  // construction, before the run, and names the path.
  const std::string file = testing::TempDir() + "coloc_bundle_parent_file";
  std::filesystem::remove_all(file);
  { std::ofstream(file) << "not a directory"; }
  obs::ObsOptions options;
  options.bundle_dir = file + "/bundle";
  try {
    const obs::ObsSession session(options);
    FAIL() << "expected invalid_argument_error";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find(options.bundle_dir),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(obs::TraceSink::current(), nullptr);
}

TEST(BundleReport, EveryPrintedNumberEqualsItsMetricsEntry) {
  const obs::BundleData bundle =
      obs::BundleData::load(write_session_bundle("coloc_report_numbers"));
  const std::string text = obs::render_report(bundle).text;

  // Walk the report: each stage wall (and its call count), each surfaced
  // counter, each training kernel's seconds and the train-GEMM histogram's
  // count and sum must equal the metrics.json entry it came from.
  std::size_t checked = 0;
  std::string section;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("== ", 0) == 0) {
      section = line;
      continue;
    }
    if (line.rfind("  ", 0) != 0 || line.rfind("    ", 0) == 0) continue;
    const std::size_t colon = line.find(": ");
    const std::string name = line.substr(2, colon - 2);
    const std::string rest = line.substr(colon + 2);
    if (section == "== stages ==") {
      const obs::Labels labels = {{"stage", name}};
      const obs::MetricEntry* wall =
          bundle.metrics.find("stage_wall_seconds", labels);
      ASSERT_NE(wall, nullptr) << line;
      double tolerance = 0.0;
      const double printed = parse_seconds(rest.substr(5), tolerance);
      EXPECT_NEAR(printed, wall->value, tolerance) << line;
      ++checked;
      if (const std::size_t of = rest.find("last of ");
          of != std::string::npos) {
        const obs::MetricEntry* runs =
            bundle.metrics.find("stage_runs_total", labels);
        ASSERT_NE(runs, nullptr) << line;
        EXPECT_EQ(std::stod(rest.substr(of + 8)), runs->value) << line;
        ++checked;
      }
    } else if (section == "== recovery ==" || section == "== training ==") {
      const obs::MetricEntry* entry = find_rendered(bundle.metrics, name);
      ASSERT_NE(entry, nullptr) << line;
      if (entry->type == "histogram") {
        double tolerance = 0.0;
        const double printed = parse_seconds(rest, tolerance);
        EXPECT_NEAR(printed, entry->histogram.sum, tolerance) << line;
        // Share of the 0.25 + 0.75 = 1 s objective.
        const int share =
            static_cast<int>(entry->histogram.sum * 100.0 + 0.5);
        EXPECT_NE(rest.find("(" + std::to_string(share) + "% of train gemm)"),
                  std::string::npos)
            << line;
      } else {
        EXPECT_EQ(std::stod(rest), entry->value) << line;
      }
      ++checked;
    } else if (name == "train gemm  ") {
      const obs::MetricEntry* gemm = bundle.metrics.find("train_gemm_seconds");
      ASSERT_NE(gemm, nullptr);
      EXPECT_EQ(std::stoull(rest), gemm->histogram.count) << line;
      double tolerance = 0.0;
      const double printed =
          parse_seconds(rest.substr(rest.find("sum ") + 4), tolerance);
      EXPECT_NEAR(printed, gemm->histogram.sum, tolerance) << line;
      checked += 2;
    }
  }
  // Two walls, one call count, four counters, two kernel timers, the GEMM
  // count and sum.
  EXPECT_EQ(checked, 11u) << text;
}

TEST(ObsReport, AnyFlagPrintsUsageAndExitsSixtyFour) {
  const std::string a = write_session_bundle("coloc_obs_report_a");
  const std::string b = write_session_bundle("coloc_obs_report_b");
  EXPECT_EQ(obs_report_exit_status(a + " " + b), 0);
  // The removed --gate and threshold flags must not read as bundles or
  // be skipped: a stale `--gate A B` would otherwise report on B alone.
  EXPECT_EQ(obs_report_exit_status("--gate " + a + " " + b), 64);
  EXPECT_EQ(obs_report_exit_status("--stage-wall-pct=10 " + a + " " + b), 64);
  EXPECT_EQ(obs_report_exit_status(a + " " + b + " --train-gemm-pct=25"), 64);
  EXPECT_EQ(obs_report_exit_status(""), 64);
}

}  // namespace
