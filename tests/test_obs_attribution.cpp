// Tests for the perf-attribution layer: span-graph construction with
// cross-thread task-dependency edges (run under TSan in CI via the
// test_obs binary), the critical-path pass, metrics/manifest round trips,
// and the regression gate behind tools/obs_report.
#include <cstdint>
#include <filesystem>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/attribution.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace coloc;

constexpr double kInf = std::numeric_limits<double>::infinity();

obs::TraceEvent span_event(std::uint64_t id, std::uint64_t parent,
                           const char* name, std::uint64_t start_ns,
                           std::uint64_t duration_ns) {
  obs::TraceEvent e;
  e.name = name;
  e.category = "test";
  e.kind = obs::TraceEvent::Kind::kSpan;
  e.id = id;
  e.parent_id = parent;
  e.start_ns = start_ns;
  e.duration_ns = duration_ns;
  return e;
}

TEST(SpanGraph, ConcurrentSpanEmissionResolvesAllEdges) {
  obs::TraceSink sink;
  sink.install();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 25;
  {
    obs::ScopedSpan root("stage", "test");
    const std::uint64_t root_id = obs::current_span_id();
    ASSERT_NE(root_id, 0u);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([root_id] {
        for (int i = 0; i < kSpansPerThread; ++i) {
          // The cross-thread dependency edge the thread pool records: the
          // submitting span's id captured at enqueue time.
          obs::ScopedSpan task("task", "test", root_id);
          // And a lexically nested child on the worker thread.
          obs::ScopedSpan sub("subtask", "test");
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  obs::TraceSink::uninstall();

  const obs::SpanGraph graph = obs::SpanGraph::build(sink.events());
  EXPECT_EQ(graph.orphaned_edges, 0u);
  ASSERT_EQ(graph.spans.size(), 1u + 2u * kThreads * kSpansPerThread);

  const obs::Span* root = graph.find_by_name("stage");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(graph.children_of(root->id).size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);

  // Every subtask parents some task span (same-thread lexical nesting
  // survives the cross-thread explicit parent of its enclosing task).
  std::size_t subtasks = 0;
  for (const obs::Span& s : graph.spans) {
    if (s.name != "subtask") continue;
    ++subtasks;
    bool parent_is_task = false;
    for (const obs::Span& p : graph.spans) {
      if (p.id == s.parent_id) {
        parent_is_task = p.name == "task";
        break;
      }
    }
    EXPECT_TRUE(parent_is_task) << "subtask " << s.id << " parent "
                                << s.parent_id;
  }
  EXPECT_EQ(subtasks, static_cast<std::size_t>(kThreads) * kSpansPerThread);
}

TEST(SpanGraph, CountsUnresolvableParentsAsOrphans) {
  std::vector<obs::TraceEvent> events;
  events.push_back(span_event(1, 0, "root", 0, 100));
  events.push_back(span_event(2, 1, "child", 10, 20));
  events.push_back(span_event(3, 999, "stray", 40, 20));  // parent missing
  const obs::SpanGraph graph = obs::SpanGraph::build(events);
  EXPECT_EQ(graph.orphaned_edges, 1u);
}

TEST(CriticalPath, PicksHeaviestDependentChain) {
  // stage [0, 100ms); A [0, 40ms) then B [50ms, 90ms) chain to 80ms,
  // beating the single 65ms span C that overlaps both.
  std::vector<obs::TraceEvent> events;
  events.push_back(span_event(1, 0, "stage", 0, 100'000'000));
  events.push_back(span_event(2, 1, "A", 0, 40'000'000));
  events.push_back(span_event(3, 1, "B", 50'000'000, 40'000'000));
  events.push_back(span_event(4, 1, "C", 10'000'000, 65'000'000));
  const obs::CriticalPathResult cp =
      obs::CriticalPath::analyze(obs::SpanGraph::build(events), "stage");
  ASSERT_TRUE(cp.found);
  EXPECT_EQ(cp.tasks, 3u);
  EXPECT_NEAR(cp.wall_seconds, 0.100, 1e-12);
  EXPECT_NEAR(cp.critical_path_seconds, 0.080, 1e-12);
  EXPECT_NEAR(cp.parallel_overhead_seconds, 0.020, 1e-12);
  EXPECT_EQ(cp.chain_length, 2u);
  EXPECT_NEAR(cp.coverage, 1.45, 1e-12);
}

TEST(CriticalPath, SerialChildrenExplainTheEntireWall) {
  std::vector<obs::TraceEvent> events;
  events.push_back(span_event(1, 0, "stage", 0, 100'000'000));
  for (std::uint64_t i = 0; i < 4; ++i) {
    events.push_back(span_event(2 + i, 1, "cell", i * 25'000'000,
                                25'000'000));
  }
  const obs::CriticalPathResult cp =
      obs::CriticalPath::analyze(obs::SpanGraph::build(events), "stage");
  ASSERT_TRUE(cp.found);
  EXPECT_EQ(cp.chain_length, 4u);
  EXPECT_NEAR(cp.critical_path_seconds, cp.wall_seconds, 1e-12);
  EXPECT_NEAR(cp.parallel_overhead_seconds, 0.0, 1e-12);
}

TEST(CriticalPath, MissingRootReportsNotFound) {
  const obs::CriticalPathResult cp =
      obs::CriticalPath::analyze(obs::SpanGraph{}, "stage");
  EXPECT_FALSE(cp.found);
  EXPECT_EQ(cp.critical_path_seconds, 0.0);
}

TEST(CriticalPath, ChildlessRootIsItsOwnChain) {
  std::vector<obs::TraceEvent> events;
  events.push_back(span_event(1, 0, "stage", 0, 42'000'000));
  const obs::CriticalPathResult cp =
      obs::CriticalPath::analyze(obs::SpanGraph::build(events), "stage");
  ASSERT_TRUE(cp.found);
  EXPECT_EQ(cp.chain_length, 1u);
  EXPECT_NEAR(cp.critical_path_seconds, 0.042, 1e-12);
}

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
  EXPECT_DOUBLE_EQ(doc.value_or("tasks_total", {}, -1.0), 3.0);
  EXPECT_DOUBLE_EQ(doc.value_or("stage_pool_utilization",
                                {{"stage", "campaign"}}, -1.0),
                   0.75);
  // Label-subset match must not cross label values.
  EXPECT_DOUBLE_EQ(doc.value_or("stage_pool_utilization",
                                {{"stage", "validation"}}, -1.0),
                   -1.0);
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

TEST(BundleData, LoadsFromDiskWithoutATrace) {
  const std::string dir = testing::TempDir() + "coloc_attribution_bundle";
  std::filesystem::create_directories(dir);

  obs::Registry registry;
  registry.gauge("stage_wall_seconds", {{"stage", "campaign"}}).set(2.5);
  registry.gauge("stage_pool_workers", {{"stage", "campaign"}}).set(2);
  registry.gauge("stage_pool_busy_seconds", {{"stage", "campaign"}}).set(4.0);
  registry.gauge("stage_pool_idle_seconds", {{"stage", "campaign"}}).set(1.0);
  registry.gauge("stage_pool_utilization", {{"stage", "campaign"}}).set(0.8);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_TRUE(obs::write_metrics_file(snapshot, dir + "/metrics.json"));

  obs::ManifestInfo info;
  info.program = "test_bench";
  ASSERT_TRUE(
      obs::Manifest::collect(info, snapshot, 5.0).write(dir + "/manifest.json"));

  const obs::BundleData bundle = obs::BundleData::load(dir);
  EXPECT_FALSE(bundle.has_trace);
  EXPECT_EQ(bundle.manifest.info.program, "test_bench");
  EXPECT_DOUBLE_EQ(bundle.manifest.stage_wall("campaign"), 2.5);

  const std::string report = obs::render_report(bundle);
  EXPECT_NE(report.find("== stages =="), std::string::npos);
  EXPECT_NE(report.find("campaign"), std::string::npos);
  EXPECT_NE(report.find("utilization 80%"), std::string::npos);

  // Loading via the manifest path directly lands in the same bundle.
  const obs::BundleData via_manifest =
      obs::BundleData::load(dir + "/manifest.json");
  EXPECT_EQ(via_manifest.manifest.info.program, "test_bench");
}

}  // namespace
