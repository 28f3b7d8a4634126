#include "fault/resilient_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace coloc::fault {

namespace {
struct RunnerMetrics {
  obs::Counter& cells_ok;
  obs::Counter& cells_quarantined;
  obs::Counter& cells_resumed;
  obs::Counter& retries;
  obs::Counter& deadline_overruns;
  obs::Histogram& attempts_per_cell;
  obs::Histogram& backoff_seconds;
  obs::Histogram& commit_hold_seconds;

  static RunnerMetrics& get() {
    auto& registry = obs::Registry::global();
    static RunnerMetrics metrics{
        registry.counter("resilient_cells_total", {{"result", "ok"}}),
        registry.counter("resilient_cells_total", {{"result", "quarantined"}}),
        registry.counter("resilient_cells_total", {{"result", "resumed"}}),
        registry.counter("resilient_retries_total"),
        registry.counter("resilient_deadline_overruns_total"),
        registry.histogram("resilient_attempts_per_cell"),
        registry.histogram("resilient_backoff_seconds"),
        registry.histogram("pool_commit_hold_seconds"),
    };
    return metrics;
  }
};

using Clock = std::chrono::steady_clock;

/// `ms` as a clock duration, or nullopt unless it is finite, positive and
/// its tick count fits Clock::duration (a larger one would overflow the
/// conversion).
std::optional<Clock::duration> deadline_duration(double ms) {
  const double ticks = std::chrono::duration<double, Clock::period>(
                           std::chrono::duration<double, std::milli>(ms))
                           .count();
  if (!(std::isfinite(ticks) && ticks > 0.0 &&
        ticks < static_cast<double>(Clock::duration::max().count()))) {
    return std::nullopt;
  }
  return Clock::duration(static_cast<Clock::duration::rep>(ticks));
}

thread_local Clock::time_point t_deadline = Clock::time_point::max();
}  // namespace

RetryPolicy RetryPolicy::from_env() {
  RetryPolicy policy;
  policy.deadline_ms =
      detail::env_double("COLOC_CELL_DEADLINE_MS", policy.deadline_ms);
  if (!deadline_duration(policy.deadline_ms)) {
    throw invalid_argument_error(
        "COLOC_CELL_DEADLINE_MS must be a finite positive number of "
        "milliseconds that fits the steady clock");
  }
  const std::uint64_t attempts =
      detail::env_u64("COLOC_MAX_ATTEMPTS", policy.max_attempts);
  if (attempts == 0) {
    throw invalid_argument_error("COLOC_MAX_ATTEMPTS must be at least 1");
  }
  policy.max_attempts = attempts;
  return policy;
}

DeadlineScope::DeadlineScope(Clock::time_point deadline)
    : previous_(t_deadline) {
  t_deadline = deadline;
}

DeadlineScope::~DeadlineScope() { t_deadline = previous_; }

bool DeadlineScope::current_expired() {
  return t_deadline != Clock::time_point::max() && Clock::now() >= t_deadline;
}

void validate_measurement(const sim::RunMeasurement& m,
                          double reference_time_s) {
  if (!std::isfinite(m.execution_time_s) || m.execution_time_s <= 0.0) {
    throw MeasurementError(ErrorClass::kCorruptedData,
                           "non-finite or non-positive wall time");
  }
  for (std::size_t e = 0; e < sim::kNumPresetEvents; ++e) {
    const double v = m.counters.get(static_cast<sim::PresetEvent>(e));
    if (!std::isfinite(v) || v < 0.0) {
      throw MeasurementError(
          ErrorClass::kCorruptedData,
          "counter " + to_string(static_cast<sim::PresetEvent>(e)) +
              " reads non-finite or negative");
    }
  }
  if (m.counters.get(sim::PresetEvent::kTotalInstructions) <= 0.0) {
    throw MeasurementError(ErrorClass::kCorruptedData,
                           "zero instruction count (starved event group)");
  }
  if (reference_time_s > 0.0) {
    const double slowdown = m.execution_time_s / reference_time_s;
    if (slowdown < kMinPlausibleSlowdown || slowdown > kMaxPlausibleSlowdown) {
      std::ostringstream os;
      os << "implausible slowdown " << slowdown << " vs reference (bounds "
         << kMinPlausibleSlowdown << ".." << kMaxPlausibleSlowdown << ")";
      throw MeasurementError(ErrorClass::kCorruptedData, os.str());
    }
  }
}

double CompletenessReport::completeness() const {
  return cells_attempted == 0
             ? 1.0
             : static_cast<double>(cells_ok + cells_resumed) /
                   static_cast<double>(cells_attempted);
}

std::string CompletenessReport::summary() const {
  std::ostringstream os;
  os << "completeness " << 100.0 * completeness() << "% (" << cells_ok
     << " measured, " << cells_resumed << " resumed, " << cells_quarantined
     << " quarantined of " << cells_attempted << " cells); " << retries
     << " retries, " << transient_faults << " transient faults, "
     << corrupted_readings << " corrupted readings, " << deadline_overruns
     << " deadline overruns";
  return os.str();
}

ResilientRunner::ResilientRunner(RetryPolicy policy) : policy_(policy) {
  COLOC_CHECK_MSG(policy_.max_attempts > 0, "need at least one attempt");
  const std::optional<Clock::duration> deadline =
      deadline_duration(policy_.deadline_ms);
  COLOC_CHECK_MSG(deadline.has_value(),
                  "deadline must be finite, positive and fit the clock");
  deadline_ = *deadline;
}

double ResilientRunner::backoff_ms(const std::string& tag,
                                   std::size_t attempt) const {
  double delay = policy_.base_backoff_ms;
  for (std::size_t i = 0; i < attempt; ++i) {
    delay = std::min(delay * 2.0, policy_.max_backoff_ms);
  }
  // The hash behind every FaultPlan decision; salt 0 keeps the jitter
  // stream apart from the plan's decisions (salts 1-3).
  Rng rng(detail::mix(77, tag, attempt, 0));
  return delay * rng.uniform(1.0 - RetryPolicy::kJitter,
                             1.0 + RetryPolicy::kJitter);
}

void ResilientRunner::note_resumed_cell() {
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    ++report_.cells_attempted;
    ++report_.cells_resumed;
  }
  RunnerMetrics::get().cells_resumed.inc();
}

void ResilientRunner::note_skipped_cell(const std::string& tag,
                                        const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    ++report_.cells_attempted;
    ++report_.cells_quarantined;
    report_.quarantined.push_back(QuarantinedCell{tag, reason, 0});
  }
  RunnerMetrics::get().cells_quarantined.inc();
}

std::optional<sim::RunMeasurement> ResilientRunner::measure_cell(
    const std::string& tag, double reference_time_s,
    const MeasureFn& measure) {
  return commit_outcome(tag, measure_outcome(tag, reference_time_s, measure));
}

CellOutcome ResilientRunner::measure_outcome(const std::string& tag,
                                             double reference_time_s,
                                             const MeasureFn& measure) {
  obs::ScopedSpan cell_span("resilient/cell", "fault");
  RunnerMetrics& metrics = RunnerMetrics::get();
  CellOutcome outcome;
  outcome.failure_reason = "unknown";

  std::size_t attempt = 0;
  for (; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++outcome.retries;
      metrics.retries.inc();
      // Jitter comes from an RNG constructed locally from (tag,
      // attempt): concurrent cells never share generator state, and the
      // delay is a pure function of the cell.
      const double delay_ms = backoff_ms(tag, attempt - 1);
      metrics.backoff_seconds.observe(delay_ms / 1e3);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
    }

    obs::ScopedSpan attempt_span("resilient/attempt", "fault");
    // Saturates rather than overflows for a deadline near the clock's range.
    const Clock::time_point now = Clock::now();
    const Clock::time_point deadline =
        now + std::min(deadline_, Clock::time_point::max() - now);
    sim::RunMeasurement reading;
    std::exception_ptr failure;
    {
      DeadlineScope scope(deadline);
      try {
        reading = measure(attempt);
      } catch (...) {
        failure = std::current_exception();
      }
    }

    // An attempt that ends at or after its deadline is an overrun,
    // whatever it produced.
    if (Clock::now() >= deadline) {
      ++outcome.deadline_overruns;
      metrics.deadline_overruns.inc();
      outcome.failure_reason = "deadline overrun (" +
                               std::to_string(policy_.deadline_ms) + " ms)";
      continue;
    }

    try {
      if (failure) std::rethrow_exception(failure);
      validate_measurement(reading, reference_time_s);
    } catch (const classified_error& e) {
      outcome.failure_reason = e.what();
      if (e.error_class() == ErrorClass::kPermanent) break;
      if (e.error_class() == ErrorClass::kCorruptedData) {
        ++outcome.corrupted_readings;
      } else {
        ++outcome.transient_faults;
      }
      continue;
    } catch (const std::exception& e) {
      // Unknown exceptions carry no retry semantics: fail the cell now.
      outcome.failure_reason = e.what();
      break;
    }

    outcome.attempts = attempt + 1;
    outcome.measurement = std::move(reading);
    metrics.cells_ok.inc();
    metrics.attempts_per_cell.observe(static_cast<double>(outcome.attempts));
    outcome.completed_ns = obs::trace_now_ns();
    return outcome;
  }

  outcome.attempts = std::min(attempt + 1, policy_.max_attempts);
  metrics.cells_quarantined.inc();
  metrics.attempts_per_cell.observe(static_cast<double>(outcome.attempts));
  outcome.completed_ns = obs::trace_now_ns();
  return outcome;
}

std::optional<sim::RunMeasurement> ResilientRunner::commit_outcome(
    const std::string& tag, CellOutcome outcome) {
  if (outcome.completed_ns != 0) {
    // Time a finished outcome spent parked before the orchestrator's
    // ordered-commit window reached it (~0 on the serial path, where
    // commit follows measurement immediately).
    const std::uint64_t now_ns = obs::trace_now_ns();
    const std::uint64_t held_ns =
        now_ns > outcome.completed_ns ? now_ns - outcome.completed_ns : 0;
    RunnerMetrics::get().commit_hold_seconds.observe(
        static_cast<double>(held_ns) * 1e-9);
  }
  {
    std::lock_guard<std::mutex> lock(report_mutex_);
    ++report_.cells_attempted;
    report_.retries += outcome.retries;
    report_.transient_faults += outcome.transient_faults;
    report_.corrupted_readings += outcome.corrupted_readings;
    report_.deadline_overruns += outcome.deadline_overruns;
    if (outcome.ok()) {
      ++report_.cells_ok;
    } else {
      ++report_.cells_quarantined;
      report_.quarantined.push_back(
          QuarantinedCell{tag, outcome.failure_reason, outcome.attempts});
    }
  }
  if (!outcome.ok()) {
    COLOC_LOG_WARN << "quarantined cell " << tag << " after "
                   << outcome.attempts
                   << " attempts: " << outcome.failure_reason;
    return std::nullopt;
  }
  return std::move(outcome.measurement);
}

}  // namespace coloc::fault
