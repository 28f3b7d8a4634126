// The measurement facade: runs co-location scenarios on a simulated machine
// and reports what the paper's testbed would report — the target's wall
// time plus its PAPI counter readings, with realistic run-to-run noise.
//
// This is the boundary between the substrate (everything in src/sim) and
// the paper's methodology (src/core): the methodology only ever sees
// RunMeasurement values, exactly as the original work only saw testbed
// measurements.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/memo.hpp"
#include "common/rng.hpp"
#include "sim/app_model.hpp"
#include "sim/contention.hpp"
#include "sim/counters.hpp"
#include "sim/machine.hpp"

namespace coloc::sim {

/// Measurement realism knobs. Multiplicative lognormal noise on times
/// mirrors the small run-to-run variance of a quiesced Linux testbed
/// (Section IV-A1); counters jitter less than wall time does.
struct MeasurementOptions {
  double time_noise_sigma = 0.01;
  double counter_noise_sigma = 0.003;
  std::uint64_t seed = 99;
  ContentionOptions contention{};
};

/// What one profiled run of a target application yields.
struct RunMeasurement {
  std::string target;
  std::size_t pstate_index = 0;
  double frequency_ghz = 0.0;
  std::size_t num_coapps = 0;

  double execution_time_s = 0.0;       // measured (noisy) wall time
  double true_execution_time_s = 0.0;  // noise-free model output
  CounterSet counters;                 // noisy NI / cycles / LLC / TCA

  double memory_intensity() const { return counters.memory_intensity(); }
};

/// Abstract measurement backend: something that can run a target (alone or
/// co-located) on one machine and report a RunMeasurement. The paper's
/// methodology (src/core) consumes this interface only, so decorators can
/// interpose on the measurement path — fault::FaultInjector injects
/// deterministic failures, and future backends (real perf-event testbeds,
/// remote agents) slot in without touching the collection loops.
///
/// Implementations may throw coloc::MeasurementError; callers that need to
/// survive flaky measurement wrap their calls in fault::ResilientRunner.
class MeasurementSource {
 public:
  virtual ~MeasurementSource() = default;

  virtual const MachineConfig& machine() const = 0;

  /// Baseline run: the application alone on the machine (Section IV-B3's
  /// "initial baseline tests"). `repetition` varies the noise draw; retry
  /// layers pass the attempt number so a re-run is a fresh measurement.
  virtual RunMeasurement run_alone(const ApplicationSpec& app,
                                   std::size_t pstate_index,
                                   std::uint64_t repetition = 0) = 0;

  /// Co-located run: measures `target` while `coapps` run on other cores.
  virtual RunMeasurement run_colocated(
      const ApplicationSpec& target,
      const std::vector<ApplicationSpec>& coapps, std::size_t pstate_index,
      std::uint64_t repetition = 0) = 0;
};

/// Simulated testbed for one machine. Holds the machine config, the MRC
/// library, and a deterministic noise stream: identical (target, co-apps,
/// P-state, repetition) tuples always produce identical measurements.
class Simulator : public MeasurementSource {
 public:
  Simulator(MachineConfig machine, AppMrcLibrary* library,
            MeasurementOptions options = {});

  const MachineConfig& machine() const override { return machine_; }

  RunMeasurement run_alone(const ApplicationSpec& app,
                           std::size_t pstate_index,
                           std::uint64_t repetition = 0) override;

  RunMeasurement run_colocated(const ApplicationSpec& target,
                               const std::vector<ApplicationSpec>& coapps,
                               std::size_t pstate_index,
                               std::uint64_t repetition = 0) override;

  /// Direct access to the noise-free solver (diagnostics, ablations).
  /// Memoized in an ExactMemo: repeated requests for the same (P-state,
  /// app sequence) share the first solution instead of re-running the
  /// fixed-point iteration, so a hit copies no per-app data. Hits/misses
  /// are counted in the obs registry (sim_solve_cache_{hits,misses}_total),
  /// and every solve that ran, and every one that stopped at the iteration
  /// cap, in sim_contention_{solves,unconverged}_total. The key is the
  /// P-state plus the ORDERED, length-prefixed app names, not a sorted
  /// multiset: the solver's reductions iterate in input order, so a
  /// canonicalized key could return a bit-different solution for a
  /// reordered request. The machine, MRC library, and contention options
  /// are fixed at construction, so cached entries never need invalidation
  /// for the simulator's lifetime.
  std::shared_ptr<const ContentionSolution> solve(
      const std::vector<ApplicationSpec>& apps,
      std::size_t pstate_index) const;

 private:
  /// solve() over `first` followed by `rest`, so a measurement solves over
  /// the specs it was given without concatenating them.
  std::shared_ptr<const ContentionSolution> solve(
      const ApplicationSpec& first, std::span<const ApplicationSpec> rest,
      std::size_t pstate_index) const;

  RunMeasurement measure(const ApplicationSpec& target,
                         const std::vector<ApplicationSpec>& coapps,
                         std::size_t pstate_index, std::uint64_t repetition);

  std::uint64_t run_seed(const ApplicationSpec& target,
                         const std::vector<ApplicationSpec>& coapps,
                         std::size_t pstate_index,
                         std::uint64_t repetition) const;

  MachineConfig machine_;
  AppMrcLibrary* library_;  // not owned
  MeasurementOptions options_;
  // One memo per Simulator, so the machine is implicit in every key.
  mutable ExactMemo<std::shared_ptr<const ContentionSolution>> solve_cache_;
};

}  // namespace coloc::sim
