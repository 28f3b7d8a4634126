// Energy-estimation extension (Section VI).
//
// The paper's conclusions propose pairing the execution-time predictor with
// a power model to estimate energy under co-location: energy is dominated
// by how long the machine stays busy, which is exactly what the predictor
// provides. We use the standard first-order model
//   P = P_static + sum_over_active_cores( P_core0 * (V/V0)^2 * (f/f0) )
//   E = P * T
// with T either measured (simulator) or predicted (ColocationPredictor).
#pragma once

#include <cstddef>

#include "sim/machine.hpp"

namespace coloc::sched {

/// Package power (watts) with `active_cores` busy at the given P-state.
double package_power_w(const sim::MachineConfig& machine,
                       std::size_t pstate_index, std::size_t active_cores);

/// Energy (joules) for a window of `duration_s` seconds at that power.
double energy_j(const sim::MachineConfig& machine, std::size_t pstate_index,
                std::size_t active_cores, double duration_s);

}  // namespace coloc::sched
