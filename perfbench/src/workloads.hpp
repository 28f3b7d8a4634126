// The four benchmark workloads. Each sets itself up (timed as set-up),
// then repeats its timed pass on fresh library instances for the run's
// measuring time and reports the median pass; see perfbench/LAYERS.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Runs one workload. Throws coloc::invalid_argument_error for an unknown
/// workload name.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
