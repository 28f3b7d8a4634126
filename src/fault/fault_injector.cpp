#include "fault/fault_injector.hpp"

#include <chrono>
#include <limits>
#include <thread>

#include "common/error.hpp"
#include "fault/resilient_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace coloc::fault {

namespace {
obs::Counter& injected_counter(FaultKind kind) {
  return obs::Registry::global().counter("fault_injected_total",
                                         {{"kind", to_string(kind)}});
}

std::string alone_key(const std::string& app, std::size_t pstate) {
  return app + "|-|x0|p" + std::to_string(pstate);
}

std::string colocated_key(const std::string& target, const std::string& co,
                          std::size_t count, std::size_t pstate) {
  return target + "|" + co + "|x" + std::to_string(count) + "|p" +
         std::to_string(pstate);
}
}  // namespace

FaultInjector::FaultInjector(sim::MeasurementSource& inner,
                             const FaultPlan& plan)
    : inner_(inner), plan_(plan) {}

std::uint64_t FaultInjector::injected(FaultKind kind) const {
  return injected_by_kind_[static_cast<std::size_t>(kind)].load(
      std::memory_order_relaxed);
}

void FaultInjector::note(FaultKind kind) {
  injected_by_kind_[static_cast<std::size_t>(kind)].fetch_add(
      1, std::memory_order_relaxed);
  injected_counter(kind).inc();
}

void FaultInjector::hang() const {
  // Stall in small slices so an expired deadline frees the thread fast;
  // the cap bounds call sites that run without any deadline at all.
  obs::ScopedSpan span("fault/hang", "fault");
  const auto give_up =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(plan_.config().hang_cap_ms));
  while (!DeadlineScope::current_expired() &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void FaultInjector::corrupt(const std::string& cell_key, std::uint64_t attempt,
                            sim::RunMeasurement& m) const {
  switch (plan_.corruption_variant(cell_key, attempt, 4)) {
    case 0:  // wall time lost entirely
      m.execution_time_s = std::numeric_limits<double>::quiet_NaN();
      break;
    case 1:  // counter underflow reported as a negative reading
      m.counters.set(sim::PresetEvent::kLlcMisses, -1.0);
      break;
    case 2:  // multiplexing starved the event group: everything reads zero
      for (std::size_t e = 0; e < sim::kNumPresetEvents; ++e)
        m.counters.set(static_cast<sim::PresetEvent>(e), 0.0);
      break;
    default:  // an infinite ratio from a zeroed divisor
      m.counters.set(sim::PresetEvent::kLlcAccesses,
                     std::numeric_limits<double>::infinity());
      break;
  }
}

template <typename MeasureFn>
sim::RunMeasurement FaultInjector::inject(const std::string& cell_key,
                                          std::uint64_t attempt,
                                          MeasureFn&& measure) {
  const FaultKind kind = plan_.decide(cell_key, attempt);
  if (kind == FaultKind::kNone) return measure();
  note(kind);
  switch (kind) {
    case FaultKind::kTransient:
      throw MeasurementError(ErrorClass::kTransient,
                             "injected transient fault: " + cell_key);
    case FaultKind::kHang: {
      hang();
      if (DeadlineScope::current_expired()) {
        throw MeasurementError(ErrorClass::kTransient,
                               "injected hang hit its deadline: " + cell_key);
      }
      // Survived the cap without a deadline expiring: measure normally.
      return measure();
    }
    case FaultKind::kCorruptedReading: {
      sim::RunMeasurement m = measure();
      corrupt(cell_key, attempt, m);
      return m;
    }
    case FaultKind::kOutlierNoise: {
      sim::RunMeasurement m = measure();
      m.execution_time_s *= plan_.outlier_factor(cell_key, attempt);
      return m;
    }
    case FaultKind::kNone: break;
  }
  return measure();
}

sim::RunMeasurement FaultInjector::run_alone(const sim::ApplicationSpec& app,
                                             std::size_t pstate_index,
                                             std::uint64_t repetition) {
  return inject(alone_key(app.name, pstate_index), repetition, [&] {
    return inner_.run_alone(app, pstate_index, repetition);
  });
}

sim::RunMeasurement FaultInjector::run_colocated(
    const sim::ApplicationSpec& target,
    const std::vector<sim::ApplicationSpec>& coapps, std::size_t pstate_index,
    std::uint64_t repetition) {
  const std::string& co_name = coapps.empty() ? "-" : coapps.front().name;
  return inject(
      colocated_key(target.name, co_name, coapps.size(), pstate_index),
      repetition, [&] {
        return inner_.run_colocated(target, coapps, pstate_index, repetition);
      });
}

}  // namespace coloc::fault
