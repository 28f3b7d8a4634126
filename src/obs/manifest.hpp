// Run manifests: one small JSON artifact per bench/quickstart run that
// makes runs comparable as artifacts — what was built (git describe,
// build flags, compiler), what was asked (program, seed, jobs, fault
// rate, machine preset, extras), what the whole run cost (total
// wall/CPU/peak-RSS), and a digest of the metrics snapshot.
//
// The manifest is the anchor of a run bundle: a directory holding
// manifest.json + metrics.json + trace.json, written by obs::ObsSession
// (the --bundle-out flag) and consumed by tools/obs_report. Every number
// the run measured (stage walls, recovery and training counters) lives
// once, in metrics.json; the manifest only fingerprints it.
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
  /// Free-form extra key/value pairs (CLI flags worth recording, and
  /// results such as the zoo bundle digest via
  /// ObsSession::add_manifest_extra), in insertion order.
  std::vector<std::pair<std::string, std::string>> extra;
};

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
  /// fnv1a64 of to_json(snapshot) rendered as 16 hex digits.
  std::string metrics_digest;

  /// Builds a manifest from the current build constants, /proc resource
  /// accounting, and a metrics snapshot (only its digest is kept).
  static Manifest collect(const ManifestInfo& info,
                          const MetricsSnapshot& snapshot,
                          double total_wall_seconds);

  /// Deterministic JSON rendering (keys in fixed order).
  std::string to_json() const;
  /// Writes to_json() to `path`; false on I/O error.
  bool write(const std::string& path) const;

  /// Parses a manifest written by write(). Unknown keys are ignored so
  /// newer manifests load in older tools; missing keys keep defaults.
  static Manifest from_json_file(const std::string& path);
};

}  // namespace coloc::obs
