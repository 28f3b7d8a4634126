// ResilientRunner: measures one cell on the calling thread under a
// per-attempt deadline, validates the reading, retries transient/corrupted
// failures with capped exponential backoff + deterministic jitter, and
// quarantines cells that exhaust their attempt budget — so a long
// collection campaign degrades gracefully instead of aborting on the first
// flaky counter.
//
// Retry decisions follow the ErrorClass taxonomy in common/error.hpp:
//   kTransient      retry after backoff
//   kCorruptedData  retry after backoff (a fresh run re-reads the counters)
//   kPermanent      quarantine immediately; retrying cannot help
// Any other exception type is treated as permanent.
//
// All behavior is deterministic for a fixed configuration: backoff jitter
// is derived from (tag, attempt), and the attempt number is forwarded to
// the measurement closure as the repetition seed, so an interrupted
// campaign resumed from a checkpoint reproduces the uninterrupted dataset
// byte for byte.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/execution.hpp"

namespace coloc::fault {

struct RetryPolicy {
  std::size_t max_attempts = 4;
  /// Backoff doubles per retry from the base, capped at the max.
  double base_backoff_ms = 2.0;
  double max_backoff_ms = 250.0;
  /// Backoff is scaled by a factor uniform in [1 - kJitter, 1 + kJitter],
  /// drawn deterministically from (tag, attempt).
  static constexpr double kJitter = 0.5;
  /// Per-attempt completion deadline. An attempt that returns or throws
  /// at or after it counts as an overrun, a transient fault: its result is
  /// discarded and the cell retried. Code inside the attempt can poll
  /// DeadlineScope::current_expired() to give up early.
  double deadline_ms = 2000.0;

  /// Honors COLOC_CELL_DEADLINE_MS and COLOC_MAX_ATTEMPTS when set. Throws
  /// coloc::invalid_argument_error naming the variable when the attempt
  /// count is not a positive integer, or the deadline is not a finite
  /// positive millisecond count that fits steady_clock::duration.
  static RetryPolicy from_env();
};

/// RAII: marks the calling thread as running a measurement attempt due by
/// `deadline`, so code deep inside the attempt (the fault injector's
/// hang) can poll for expiry without the deadline being threaded through
/// every signature. Nothing is interrupted forcibly. Scopes nest; the
/// destructor restores the enclosing scope's deadline.
class DeadlineScope {
 public:
  explicit DeadlineScope(std::chrono::steady_clock::time_point deadline);
  ~DeadlineScope();
  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

  /// True when a scope is active on this thread and its deadline has
  /// passed.
  static bool current_expired();

 private:
  std::chrono::steady_clock::time_point previous_;
};

/// Accepted range for measured_time / reference_time, where the reference
/// is usually the target's run-alone baseline at the same P-state.
/// Co-location can only slow the target down, but noise allows
/// slightly-below-1 ratios; the upper bound sits above any real slowdown
/// yet far below the injected outlier factors (kOutlierMinFactor).
inline constexpr double kMinPlausibleSlowdown = 0.5;
inline constexpr double kMaxPlausibleSlowdown = 20.0;

/// Validates one reading: finite positive wall time, finite non-negative
/// counters, positive instruction count, and (when reference_time_s > 0)
/// the plausibility ratio. Throws MeasurementError(kCorruptedData).
void validate_measurement(const sim::RunMeasurement& m,
                          double reference_time_s);

struct QuarantinedCell {
  std::string tag;
  std::string reason;    // last failure before giving up
  std::size_t attempts = 0;
};

/// What actually happened during a resilient pass: attempts, faults, and
/// the quarantine list. Campaigns attach this to their result so callers
/// can judge dataset completeness instead of discovering holes later.
struct CompletenessReport {
  std::size_t cells_attempted = 0;
  std::size_t cells_ok = 0;
  std::size_t cells_quarantined = 0;
  std::size_t cells_resumed = 0;  // skipped via checkpoint, not re-measured
  std::uint64_t retries = 0;
  std::uint64_t transient_faults = 0;
  std::uint64_t corrupted_readings = 0;
  std::uint64_t deadline_overruns = 0;
  std::vector<QuarantinedCell> quarantined;

  /// Fraction of attempted cells that produced a valid reading.
  double completeness() const;
  std::string summary() const;
};

/// The raw result of one cell's retry loop, carrying every tally the
/// CompletenessReport needs but touching no shared runner state. Produced
/// on any thread by measure_outcome(); folded into the report — in
/// whatever order the orchestrator chooses, typically deterministic cell
/// order — by commit_outcome().
struct CellOutcome {
  std::optional<sim::RunMeasurement> measurement;  // nullopt = exhausted
  std::size_t attempts = 0;  // attempts started before success/giving up
  std::uint64_t retries = 0;
  std::uint64_t transient_faults = 0;
  std::uint64_t corrupted_readings = 0;
  std::uint64_t deadline_overruns = 0;
  std::string failure_reason;  // last failure when quarantined
  /// Trace-clock stamp (obs::trace_now_ns) of when the retry loop
  /// finished. commit_outcome() observes now - completed_ns as
  /// `pool_commit_hold_seconds`: how long a finished cell waited for the
  /// ordered-commit window — the commit-order stall component of the
  /// parallel orchestration overhead.
  std::uint64_t completed_ns = 0;

  bool ok() const { return measurement.has_value(); }
};

class ResilientRunner {
 public:
  /// Throws coloc::runtime_error unless the policy allows at least one
  /// attempt and its deadline passes the check RetryPolicy::from_env
  /// applies.
  explicit ResilientRunner(RetryPolicy policy = {});

  /// The measurement closure; `attempt` doubles as the repetition seed so
  /// retries draw fresh noise instead of replaying the failed run.
  using MeasureFn = std::function<sim::RunMeasurement(std::uint64_t attempt)>;

  /// Runs one cell to completion or quarantine. `reference_time_s` <= 0
  /// disables the plausibility check (e.g. for the baseline pass, which
  /// has no earlier reference). Returns nullopt when quarantined.
  /// Equivalent to measure_outcome() immediately followed by
  /// commit_outcome(). Safe to call concurrently from multiple threads;
  /// note that concurrent callers interleave the report's quarantine list
  /// in completion order — orchestrators that need a deterministic report
  /// use the split API below and commit in task order.
  std::optional<sim::RunMeasurement> measure_cell(
      const std::string& tag, double reference_time_s,
      const MeasureFn& measure);

  /// Phase 1: the retry/backoff/deadline loop, run on the calling thread
  /// and free of report side effects. Thread-safe and deterministic per
  /// (tag, measure): backoff jitter derives from (tag, attempt) through a
  /// local RNG — no shared generator — and the attempt index is the
  /// repetition seed, so the outcome is a pure function of the cell,
  /// never of scheduling.
  CellOutcome measure_outcome(const std::string& tag,
                              double reference_time_s,
                              const MeasureFn& measure);

  /// Phase 2: folds one outcome into the completeness report (and logs /
  /// records the quarantine when the cell failed). Thread-safe; call in
  /// deterministic cell order to keep the report byte-stable across
  /// thread counts. Returns the outcome's measurement for convenience.
  std::optional<sim::RunMeasurement> commit_outcome(const std::string& tag,
                                                    CellOutcome outcome);

  /// Records a cell satisfied from a checkpoint instead of a measurement.
  void note_resumed_cell();

  /// Records a cell quarantined without being attempted (e.g. its
  /// application's baseline was itself quarantined).
  void note_skipped_cell(const std::string& tag, const std::string& reason);

  /// Snapshot of the accounting so far. Do not call while other threads
  /// are still committing outcomes (returns a reference for the common
  /// post-run read).
  const CompletenessReport& report() const { return report_; }
  const RetryPolicy& policy() const { return policy_; }

 private:
  double backoff_ms(const std::string& tag, std::size_t attempt) const;

  RetryPolicy policy_;
  std::chrono::steady_clock::duration deadline_;
  std::mutex report_mutex_;
  CompletenessReport report_;
};

}  // namespace coloc::fault
