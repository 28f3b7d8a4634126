// Perf attribution: explains where a run's wall clock went.
//
// BundleData + render_report/diff_bundles load a run bundle (manifest.json
// + metrics.json, as written by obs::ObsSession for --bundle-out), print a
// human-readable attribution report, or diff two bundles against fixed
// regression thresholds for CI gating (tools/obs_report is a thin CLI over
// these). Every number they print comes from metrics.json; the manifest
// contributes only build and run identity and whole-run resources.
//
// Stage accounting. A parallel stage (the campaign, validation) exports
// each parallel_for call's measured PoolStats as stage_pool_*{stage}
// gauges next to its stage_wall_seconds, and the report states the
// stage's last call as
//
//   wall = pool call + outside
//   workers x call wall = busy + idle (wait + tail) + residual
//
// Every call is checked where it is exported: export_stage_pool_gauges
// counts calls whose residual (runner time between chunks: tens of
// microseconds when nothing is lost) exceeds residual_tolerance() in
// stage_pool_unbalanced_calls_total{stage}. account_stages() fails a stage
// whose counter is non-zero or missing, whose last pool call outlasts it,
// or that exports stage_pool_workers without the rest of its pool gauges.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/manifest.hpp"

namespace coloc::obs {

/// Histogram read back from an exported metrics.json: only non-zero
/// buckets are present, each (upper bound, per-bucket count).
struct HistogramStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<std::pair<double, std::uint64_t>> buckets;  // le may be +inf

  double mean() const;
  /// Bucket-resolution quantile, mirroring Histogram::quantile.
  double quantile(double q) const;
};

/// One metric parsed back from metrics.json.
struct MetricEntry {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  std::string type;  // "counter" | "gauge" | "histogram"
  double value = 0.0;  // counter/gauge
  HistogramStats histogram;
};

struct MetricsDoc {
  std::vector<MetricEntry> entries;

  static MetricsDoc load_file(const std::string& path);

  /// First entry matching name whose labels include all of `labels`.
  const MetricEntry* find(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& labels = {})
      const;
};

/// A loaded run bundle: manifest (identity) + metrics (every number).
struct BundleData {
  std::string dir;
  Manifest manifest;
  MetricsDoc metrics;

  /// `path` is a bundle directory (containing manifest.json) or a direct
  /// path to a manifest.json; metrics.json is loaded from the same
  /// directory.
  static BundleData load(const std::string& path);
};

/// The most residual one pool call may carry: 1 ms, or 1% of its capacity
/// (workers x call wall) when that is larger. Measured residuals stay
/// under 0.1 ms on 10 ms+ calls; one dropped runner tail is milliseconds
/// to seconds. export_stage_pool_gauges applies it to every call.
double residual_tolerance(double capacity_seconds);

/// One stage's time accounting, read from a bundle's metrics. The pool
/// gauges describe the stage's last call; runs and unbalanced_calls cover
/// all of them.
struct StageAccounting {
  std::string stage;
  double wall_seconds = 0.0;  // stage_wall_seconds (last call)
  std::uint64_t runs = 0;     // stage_runs_total; 0 when not exported
  bool pooled = false;        // the stage exported stage_pool_workers
  double unbalanced_calls = 0.0;  // stage_pool_unbalanced_calls_total
  double workers = 0.0;
  double call_wall_seconds = 0.0;  // stage_pool_wall_seconds
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  double wait_seconds = 0.0;
  double utilization = 0.0;
  /// Why the stage fails the check; empty when it passes.
  std::vector<std::string> failures;

  double outside_seconds() const { return wall_seconds - call_wall_seconds; }
  double capacity_seconds() const { return workers * call_wall_seconds; }
  double tail_seconds() const { return idle_seconds - wait_seconds; }
  double residual_seconds() const {
    return capacity_seconds() - busy_seconds - idle_seconds;
  }
};

/// Reads and checks the accounting of every stage with a
/// stage_wall_seconds gauge (see the file comment), in stage-name order.
std::vector<StageAccounting> account_stages(const BundleData& bundle);

struct ReportResult {
  std::string text;  // the full human-readable report
  /// One line per failed stage check ("stage: reason").
  std::vector<std::string> failures;
};

/// Attribution report for one bundle: build/run identity, per-stage wall
/// and pool accounting with its check, the surfaced recovery and training
/// counters, and the queue-wait / exec / commit-hold histograms.
ReportResult render_report(const BundleData& bundle);

/// Regression thresholds of diff_bundles, in percent growth over the
/// baseline. Queue wait and predict latency are bucket quantiles (log-2
/// buckets resolve about doublings); the train-GEMM sum catches the fused
/// trainer silently falling back as well as kernel regressions.
inline constexpr double kStageWallRegressionPct = 10.0;
inline constexpr double kQueueWaitP99RegressionPct = 25.0;
inline constexpr double kPredictP99RegressionPct = 25.0;
inline constexpr double kTrainGemmSumRegressionPct = 25.0;

struct DiffResult {
  std::string text;                     // full human-readable diff
  std::vector<std::string> regressions; // one line per tripped threshold
  bool regression = false;
};

/// Structured diff of two bundles (baseline vs current). Thresholds use
/// >= with a tiny tolerance, so an exactly-at-threshold regression trips.
/// Predict latency is gated only when both bundles carry
/// placement_predict_seconds, the train-GEMM sum only when both trained.
DiffResult diff_bundles(const BundleData& baseline,
                        const BundleData& current);

}  // namespace coloc::obs
