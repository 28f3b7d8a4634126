// Shared-resource contention model: LLC capacity sharing + DRAM queueing.
//
// This is the mechanism that generates the paper's ground truth. For a set
// of applications co-scheduled on one multicore processor at a given
// P-state, we solve a fixed point over three mutually dependent quantities:
//
//   1. LLC occupancy  — each app's share of LLC lines is proportional to
//      its insertion (miss) rate, the standard steady-state model of a
//      shared LRU cache under competing reference streams.
//   2. Miss ratio     — each app's misses follow its miss-ratio curve
//      evaluated at its current occupancy (Mattson/stack-distance theory).
//   3. Memory latency — the loaded DRAM latency grows with total miss
//      bandwidth via an M/M/1-style queueing term; higher latency lowers
//      every app's instruction rate, which in turn lowers miss bandwidth —
//      hence the fixed point.
//
// The resulting execution-time degradation is a *nonlinear* function of
// co-runner count and memory intensity — precisely the structure the
// paper's neural-network models exploit and its linear models cannot
// (Sections V-C/V-D).
#pragma once

#include <cstddef>
#include <vector>

#include "sim/app_model.hpp"
#include "sim/machine.hpp"

namespace coloc::sim {

/// One co-scheduled application instance plus its profiled reuse curve.
struct ScheduledApp {
  const ApplicationSpec* spec = nullptr;
  const MissRatioCurve* mrc = nullptr;
};

/// Per-application steady-state solution.
struct AppSolution {
  double llc_share_lines = 0.0;
  /// Misses per instruction at the solved occupancy (incl. compulsory).
  double misses_per_instruction = 0.0;
  /// LLC accesses per instruction (refs missing the private caches).
  double accesses_per_instruction = 0.0;
  double cpi = 0.0;
  double instructions_per_second = 0.0;
  double execution_time_s = 0.0;
};

/// Whole-processor steady-state solution.
struct ContentionSolution {
  std::vector<AppSolution> apps;  // one per input app, in input order
  double memory_latency_ns = 0.0;   // loaded latency seen by all apps
  double memory_utilization = 0.0;  // rho in [0, 1)
  std::size_t iterations = 0;
  bool converged = false;
};

/// Fixed-point iteration cap; a solve that reaches it returns its last
/// iterate with converged == false.
inline constexpr std::size_t kContentionMaxIterations = 200;
/// Convergence test: the largest relative CPI change of one iteration.
inline constexpr double kContentionTolerance = 1e-9;
/// Under-relaxation applied to each occupancy and latency step.
inline constexpr double kContentionDamping = 0.5;
/// Clamp on DRAM utilization rho, keeping the queueing term finite.
inline constexpr double kContentionMaxUtilization = 0.98;

/// The mechanisms the ablation benches switch off.
struct ContentionOptions {
  /// Ablation: give every app an equal static LLC partition instead of
  /// solving occupancy (DESIGN.md §5 ablation 1).
  bool static_equal_partition = false;
  /// Ablation: keep memory latency at its unloaded value (ablation 2).
  bool disable_queueing = false;
};

/// Solves the steady state for `apps` running together on `machine` at
/// frequency `frequency_ghz`. Requires at most machine.cores apps.
/// Consecutive apps with the same curve and per-instruction parameters are
/// iterated as one run, so a cell of a target plus k copies of one
/// co-runner costs two apps' work per iteration; the result is the one a
/// loop over every instance computes, bit for bit (DESIGN §5).
ContentionSolution solve_contention(const MachineConfig& machine,
                                    double frequency_ghz,
                                    const std::vector<ScheduledApp>& apps,
                                    const ContentionOptions& options = {});

}  // namespace coloc::sim
