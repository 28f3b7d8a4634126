// Run manifests: one small JSON artifact per bench/quickstart run that
// makes runs comparable as artifacts — what was built (git describe,
// build flags, compiler), what was asked (program, seed, jobs, fault
// rate, machine preset), and what happened (per-stage wall seconds,
// total wall/CPU/peak-RSS, a digest of the metrics snapshot).
//
// The manifest is the anchor of a "bundle": a directory holding
// manifest.json + metrics.json + trace.json, produced by the benches'
// --bundle-out flag and consumed by tools/obs_report (single-bundle
// attribution report, or two-bundle regression diff for CI gating).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace coloc::obs {

/// The FNV-1a 64-bit offset basis.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// FNV-1a 64-bit hash; stable across platforms, used to fingerprint the
/// (deterministically rendered) metrics JSON so two manifests can assert
/// "same metrics" without shipping the whole snapshot twice. Passing a
/// previous result as `basis` continues the hash over more bytes:
/// fnv1a64("ab") == fnv1a64("b", fnv1a64("a")).
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t basis = kFnv1aBasis);

/// Cumulative user+system CPU seconds of this process from
/// /proc/self/stat, or -1 when unavailable (non-Linux platforms).
double process_cpu_seconds();

/// Caller-provided run identity, set before the session finalizes.
struct ManifestInfo {
  std::string program;         // binary / scenario name
  std::string machine_preset;  // simulated machine, "" when n/a
  std::uint64_t seed = 0;
  std::size_t jobs = 0;
  double fault_rate = 0.0;
  /// Free-form extra key/value pairs (CLI flags worth recording).
  std::vector<std::pair<std::string, std::string>> extra;
};

/// One pipeline stage's wall clock, harvested from the
/// stage_wall_seconds{stage=...} gauges that StageTimer maintains.
struct StageRecord {
  std::string stage;
  double wall_seconds = 0.0;
};

/// One recovery-relevant counter harvested into the manifest, e.g.
/// store_corruption_detected_total{reason=digest}. Kept in the manifest
/// (not just metrics.json) so an obs_report diff immediately shows when
/// one run recovered from damage and the other did not.
struct RecoveryRecord {
  std::string counter;  // name{label=value,...} rendered form
  std::uint64_t value = 0;
};

/// One training-attribution sample harvested into the manifest: the fused
/// SCG counters (runs, epochs, fused restarts), the design-memo hit/miss
/// counters, and the train_gemm_seconds histogram's sum/count. Kept in the
/// manifest so obs_report can attribute (and gate) training throughput
/// without re-parsing metrics.json.
struct TrainingRecord {
  std::string metric;  // name, or histogram name + "_sum"/"_count"
  double value = 0.0;
};

/// Registers a process-global extra key/value recorded into every
/// subsequently collected manifest (deduplicated by key, last write
/// wins). Lets deep layers (store, supervisor) annotate the run manifest
/// — e.g. the zoo bundle digest or the storage fault seed — without
/// threading the ManifestInfo through every call chain.
void add_manifest_extra(const std::string& key, const std::string& value);

/// Snapshot of the registered extras, sorted by key (mainly for tests).
std::vector<std::pair<std::string, std::string>> manifest_extras();

/// Clears the registered extras (tests).
void clear_manifest_extras();

struct Manifest {
  ManifestInfo info;
  // Build identity, compiled into the obs library by CMake.
  std::string git_describe;
  std::string build_type;
  std::string compiler;
  std::string build_flags;
  // Run outcome.
  double total_wall_seconds = 0.0;
  double cpu_seconds = -1.0;
  long peak_rss_kb = -1;
  std::vector<StageRecord> stages;  // sorted by stage name
  /// Recovery counters (corruption detected, stages replayed, models
  /// retrained, faults injected), sorted by rendered name; empty when the
  /// run saw no recovery activity.
  std::vector<RecoveryRecord> recovery;
  /// Training attribution (fused SCG + design memo + GEMM seconds), sorted
  /// by metric name; empty when the run trained nothing.
  std::vector<TrainingRecord> training;
  /// fnv1a64 of to_json(snapshot) rendered as 16 hex digits.
  std::string metrics_digest;

  /// Builds a manifest from the current build constants, /proc resource
  /// accounting, and a metrics snapshot (stages + digest come from it).
  static Manifest collect(const ManifestInfo& info,
                          const MetricsSnapshot& snapshot,
                          double total_wall_seconds);

  /// Deterministic JSON rendering (keys in fixed order, stages sorted).
  std::string to_json() const;
  /// Writes to_json() to `path`; false on I/O error.
  bool write(const std::string& path) const;

  /// Parses a manifest written by write(). Unknown keys are ignored so
  /// newer manifests load in older tools; missing keys keep defaults.
  static Manifest from_json_file(const std::string& path);

  /// Wall seconds of one stage; -1 when the stage was not recorded.
  double stage_wall(const std::string& stage) const;

  /// Value of one recovery counter (rendered name); 0 when not recorded.
  std::uint64_t recovery_value(const std::string& counter) const;

  /// Value of one training metric; -1 when not recorded.
  double training_value(const std::string& metric) const;
};

}  // namespace coloc::obs
