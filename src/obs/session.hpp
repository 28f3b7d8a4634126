// ObsSession: one RAII object that turns the observability subsystem on
// for the duration of a run and flushes its artifacts at the end.
//
//   obs::ObsOptions opts;
//   opts.metrics_out = "m.json";   // from --metrics-out
//   opts.trace_out = "t.json";     // from --trace-out
//   opts.report_resources = true;  // wall time + peak RSS line at exit
//   obs::ObsSession session(opts);
//   ... run the experiment ...
//   // destructor: uninstall trace sink, write t.json (+ t.csv),
//   // write m.json from the global registry, print the resource line
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>

#include "obs/manifest.hpp"
#include "obs/trace.hpp"

namespace coloc::obs {

struct ObsOptions {
  /// Metrics snapshot destination ("" = none). ".json" suffix selects the
  /// JSON format, anything else the Prometheus-style text format.
  std::string metrics_out;
  /// Chrome-trace destination ("" = tracing disabled). A flat CSV twin is
  /// written alongside (extension replaced by .csv).
  std::string trace_out;
  /// Run-manifest destination ("" = none): build identity, run identity
  /// (from `manifest`), per-stage wall clock, total wall/CPU/RSS, and a
  /// digest of the metrics snapshot. See obs/manifest.hpp.
  std::string manifest_out;
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
  explicit ObsSession(ObsOptions options);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Flushes everything once (idempotent; also run by the destructor):
  /// uninstalls the trace sink, writes the trace JSON + CSV, writes the
  /// metrics snapshot, prints the resource report.
  void finalize();

  /// The session's trace sink (nullptr when tracing is disabled).
  TraceSink* sink() { return sink_.get(); }

  /// Mutable run identity, so callers can record flags parsed after the
  /// session was constructed (it is read at finalize time).
  ManifestInfo& manifest_info() { return options_.manifest; }

 private:
  ObsOptions options_;
  std::unique_ptr<TraceSink> sink_;
  std::chrono::steady_clock::time_point start_;
  bool finalized_ = false;
};

/// Peak resident set size (VmHWM) in kilobytes from /proc/self/status,
/// or -1 when unavailable (non-Linux platforms).
long peak_rss_kb();

/// Replaces a ".json" suffix with ".csv" (otherwise appends ".csv").
std::string csv_twin_path(const std::string& path);

}  // namespace coloc::obs
