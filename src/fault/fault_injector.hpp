// Fault-injecting decorator for measurement sources.
//
// FaultInjector wraps any sim::MeasurementSource and applies the FaultPlan
// on every run: throwing transient MeasurementErrors, corrupting readings,
// scaling wall time into outlier territory, or hanging until the attempt's
// deadline (DeadlineScope) passes. The wrapped source is never consulted
// about the injection, so the same plan replays against any backend.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "fault/fault_plan.hpp"
#include "sim/execution.hpp"

namespace coloc::fault {

class FaultInjector : public sim::MeasurementSource {
 public:
  /// Neither reference is owned; both must outlive the injector.
  FaultInjector(sim::MeasurementSource& inner, const FaultPlan& plan);

  const sim::MachineConfig& machine() const override {
    return inner_.machine();
  }

  sim::RunMeasurement run_alone(const sim::ApplicationSpec& app,
                                std::size_t pstate_index,
                                std::uint64_t repetition = 0) override;

  sim::RunMeasurement run_colocated(
      const sim::ApplicationSpec& target,
      const std::vector<sim::ApplicationSpec>& coapps,
      std::size_t pstate_index, std::uint64_t repetition = 0) override;

  /// Total faults this injector has fired, by kind (also exported through
  /// the obs registry as fault_injected_total{kind=...}).
  std::uint64_t injected(FaultKind kind) const;

 private:
  template <typename MeasureFn>
  sim::RunMeasurement inject(const std::string& cell_key,
                             std::uint64_t attempt, MeasureFn&& measure);
  void note(FaultKind kind);
  void corrupt(const std::string& cell_key, std::uint64_t attempt,
               sim::RunMeasurement& m) const;
  void hang() const;

  sim::MeasurementSource& inner_;
  const FaultPlan& plan_;
  // Atomic: campaign workers measure cells — and therefore fire injected
  // faults — concurrently. The decisions themselves stay deterministic
  // (pure functions of the plan seed and the cell key); only the tallies
  // need synchronization.
  std::atomic<std::uint64_t> injected_by_kind_[5] = {};
};

}  // namespace coloc::fault
