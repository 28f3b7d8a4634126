#include "sched/energy.hpp"

#include "common/error.hpp"

namespace coloc::sched {

double package_power_w(const sim::MachineConfig& machine,
                       std::size_t pstate_index, std::size_t active_cores) {
  COLOC_CHECK_MSG(active_cores <= machine.cores,
                  "more active cores than the machine has");
  const double scale =
      machine.pstates.relative_dynamic_power(pstate_index);
  return machine.static_power_w +
         static_cast<double>(active_cores) * machine.core_dynamic_power_w *
             scale;
}

double energy_j(const sim::MachineConfig& machine, std::size_t pstate_index,
                std::size_t active_cores, double duration_s) {
  COLOC_CHECK_MSG(duration_s >= 0.0, "duration cannot be negative");
  return package_power_w(machine, pstate_index, active_cores) * duration_s;
}

}  // namespace coloc::sched
