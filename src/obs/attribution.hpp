// Perf attribution: explains where a run's wall clock went.
//
// BundleData + render_report/diff_bundles load a run bundle (manifest.json
// + metrics.json, as written by the benches' --bundle-out), print a
// human-readable attribution report, or diff two bundles against
// regression thresholds for CI gating (tools/obs_report is a thin CLI over
// these).
//
// Stage accounting. A parallel stage (the campaign, validation) exports
// its parallel_for call's measured PoolStats as stage_pool_*{stage} gauges
// next to its stage_wall_seconds, and the report states each stage as
//
//   wall = pool call + outside
//   workers x call wall = busy + idle (wait + tail) + residual
//
// account_stages() fails a stage whose pool call outlasts it, whose
// residual (runner time between chunks: tens of microseconds when nothing
// is lost) exceeds residual_tolerance(), or that exports
// stage_pool_workers without the rest of its pool gauges.
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

/// A loaded run bundle: manifest + metrics.
struct BundleData {
  std::string dir;
  Manifest manifest;
  MetricsDoc metrics;

  /// `path` is a bundle directory (containing manifest.json) or a direct
  /// path to a manifest.json; metrics.json is loaded from the same
  /// directory.
  static BundleData load(const std::string& path);
};

/// The most residual a stage may carry: 1 ms, or 1% of its capacity
/// (workers x call wall) when that is larger. Measured residuals stay
/// under 0.1 ms on 10 ms+ calls; one dropped runner tail is milliseconds
/// to seconds.
double residual_tolerance(double capacity_seconds);

/// One stage's time accounting, read from a bundle's gauges.
struct StageAccounting {
  std::string stage;
  double wall_seconds = 0.0;  // stage_wall_seconds
  bool pooled = false;        // the stage exported stage_pool_workers
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

/// Reads and checks the accounting of every stage in the manifest (see
/// the file comment), in manifest order.
std::vector<StageAccounting> account_stages(const BundleData& bundle);

struct ReportResult {
  std::string text;  // the full human-readable report
  /// One line per failed stage check ("stage: reason").
  std::vector<std::string> failures;
};

/// Attribution report for one bundle: build/run identity, per-stage wall
/// and pool accounting with its check, and the queue-wait / exec /
/// commit-hold histograms.
ReportResult render_report(const BundleData& bundle);

struct DiffThresholds {
  /// Regression when a stage's wall time grows by at least this percent.
  double stage_wall_pct = 10.0;
  /// Regression when pool_queue_wait_seconds p99 grows by at least this
  /// percent (bucket-quantized: log-2 buckets resolve ~doublings).
  double queue_wait_p99_pct = 25.0;
  /// Regression when placement_predict_seconds p99 grows by at least this
  /// percent — the placement service's query-latency SLO gate.
  double predict_p99_pct = 25.0;
  /// Regression when the manifest's train_gemm_seconds_sum grows by at
  /// least this percent — the fused-trainer throughput gate (catches the
  /// fused path silently falling back as well as kernel regressions).
  double train_gemm_sum_pct = 25.0;
};

struct DiffResult {
  std::string text;                     // full human-readable diff
  std::vector<std::string> regressions; // one line per tripped threshold
  bool regression = false;
};

/// Structured diff of two bundles (baseline vs current). Thresholds use
/// >= with a tiny tolerance, so an exactly-at-threshold regression trips.
DiffResult diff_bundles(const BundleData& baseline,
                        const BundleData& current,
                        const DiffThresholds& thresholds = {});

}  // namespace coloc::obs
