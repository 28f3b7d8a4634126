// ObsSession: one RAII object that turns the observability subsystem on
// for the duration of a run and writes its run bundle at the end.
//
//   obs::ObsOptions opts;
//   opts.bundle_dir = "run_bundle";  // from --bundle-out
//   opts.report_resources = true;    // wall time + peak RSS line at exit
//   obs::ObsSession session(opts);   // creates the directory, or throws
//   ... run the experiment ...
//   // destructor: uninstall the trace sink and write
//   // run_bundle/{manifest,metrics,trace}.json, print the resource line
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>

#include "obs/manifest.hpp"
#include "obs/trace.hpp"

namespace coloc::obs {

struct ObsOptions {
  /// Run-bundle directory ("" = none). When set, the session creates it,
  /// records spans for the whole run, and at finalize writes manifest.json
  /// (build and run identity, total wall/CPU/RSS, metrics digest; see
  /// obs/manifest.hpp), metrics.json (the global registry) and trace.json
  /// (chrome://tracing) into it. tools/obs_report reads the first two.
  std::string bundle_dir;
  /// Run identity recorded in the manifest (program, seed, jobs, ...).
  ManifestInfo manifest;
  /// Print "total_wall_time_s=... peak_rss_mb=..." on stdout at the end.
  bool report_resources = false;
  /// Prefix for the resource line (usually the program name).
  std::string label = "run";
  /// Invoked by finalize() before the trace sink is uninstalled. The obs
  /// layer sits below the thread pool, so callers that fan work out set
  /// this to ThreadPool::quiesce, which keeps the written trace complete:
  /// a worker descheduled between fulfilling a task's future and closing
  /// its span would otherwise lose that span to the sink swap.
  std::function<void()> flush_hook;
};

class ObsSession {
 public:
  /// Throws coloc::invalid_argument_error naming the path when
  /// options.bundle_dir cannot be created, so a bad --bundle-out fails
  /// before the run instead of after it.
  explicit ObsSession(ObsOptions options);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Records `key` = `value` in the manifest's extras, written at
  /// finalize: a new key is appended after the existing extras, and a
  /// repeated key keeps its place and takes the last value.
  void add_manifest_extra(const std::string& key, const std::string& value);

  /// Flushes everything once (idempotent; also run by the destructor):
  /// uninstalls the trace sink, writes the bundle, prints the resource
  /// report.
  void finalize();

 private:
  double elapsed_seconds() const;

  ObsOptions options_;
  std::unique_ptr<TraceSink> sink_;
  std::chrono::steady_clock::time_point start_;
  bool finalized_ = false;
};

/// Peak resident set size (VmHWM) in kilobytes from /proc/self/status,
/// or -1 when unavailable (non-Linux platforms).
long peak_rss_kb();

}  // namespace coloc::obs
