#include "sim/contention.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace coloc::sim {

namespace {

/// A run of consecutive instances of one application model: the same
/// curve and the same per-instruction parameters. Every instance of a run
/// starts from the same state and takes the same steps, so the solver
/// keeps one copy of that state per run (see solve_contention).
struct Run {
  const ApplicationSpec* spec = nullptr;  // the first instance's
  const MissRatioCurve* mrc = nullptr;
  std::size_t count = 0;
  double llc_api = 0.0;  // LLC accesses per instruction
  double share = 0.0;    // LLC lines held by each instance
  double mpi = 0.0;      // misses per instruction
  double cpi = 1.0;
  double miss_rate = 0.0;  // misses per second
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// True when `app` steps exactly like the instances of `run`: every input
/// the iteration reads from an instance is bit-identical.
bool extends(const Run& run, const ScheduledApp& app) {
  const ApplicationSpec& a = *run.spec;
  const ApplicationSpec& b = *app.spec;
  return run.mrc == app.mrc &&
         same_bits(a.refs_per_instruction, b.refs_per_instruction) &&
         same_bits(a.compulsory_misses_per_instruction,
                   b.compulsory_misses_per_instruction) &&
         same_bits(a.cpi_base, b.cpi_base) && same_bits(a.mlp, b.mlp);
}

/// Adds `value` to `sum` once per instance of a run, as a loop over the
/// instances in input order would.
void add_per_instance(double& sum, double value, std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) sum += value;
}

}  // namespace

ContentionSolution solve_contention(const MachineConfig& machine,
                                    double frequency_ghz,
                                    const std::vector<ScheduledApp>& apps,
                                    const ContentionOptions& options) {
  COLOC_CHECK_MSG(!apps.empty(), "need at least one application");
  COLOC_CHECK_MSG(apps.size() <= machine.cores,
                  "more applications than cores");
  COLOC_CHECK_MSG(frequency_ghz > 0.0, "frequency must be positive");
  for (const auto& app : apps) {
    COLOC_CHECK_MSG(app.spec != nullptr && app.mrc != nullptr,
                    "scheduled app missing spec or MRC");
  }

  const std::size_t n = apps.size();
  const double llc_lines = static_cast<double>(machine.llc_lines());
  const double private_lines = static_cast<double>(machine.private_lines());
  const double line_bytes = static_cast<double>(machine.line_bytes);
  const double hz = frequency_ghz * 1e9;
  const double share_floor =
      llc_lines / static_cast<double>(machine.llc_associativity);

  // Group consecutive identical instances into runs. Per-instance state
  // (occupancy share, misses and CPI) starts equal within a run and every
  // step computes it from the run's inputs alone, so it stays equal: each
  // run's values are computed once per iteration. The reductions still
  // add one term per instance, in input order, so every returned double
  // is the one a loop over the instances computes.
  std::vector<Run> runs;
  runs.reserve(n);
  for (const auto& app : apps) {
    if (!runs.empty() && extends(runs.back(), app)) {
      ++runs.back().count;
      continue;
    }
    Run run;
    run.spec = app.spec;
    run.mrc = app.mrc;
    run.count = 1;
    // Compulsory misses are LLC accesses too: traffic that bypasses the
    // reuse model still shows up in the TCA counter.
    run.llc_api = app.spec->refs_per_instruction *
                      app.mrc->miss_ratio(private_lines) +
                  app.spec->compulsory_misses_per_instruction;
    run.share = llc_lines / static_cast<double>(n);
    runs.push_back(run);
  }

  double latency_ns = machine.memory_latency_ns;

  ContentionSolution solution;
  bool converged = false;
  std::size_t iter = 0;

  for (; iter < kContentionMaxIterations; ++iter) {
    double max_rel_change = 0.0;
    double bytes_per_second = 0.0;
    double total_miss_rate = 0.0;
    for (Run& r : runs) {
      const ApplicationSpec& a = *r.spec;
      // (2) Miss ratio at the current occupancy. An app's LLC misses are
      // the references whose reuse distance exceeds its share; shares
      // below the private capacity degenerate to "all LLC accesses miss".
      const double eff_share = std::max(r.share, private_lines);
      const double warm_mpi =
          a.refs_per_instruction * r.mrc->miss_ratio(eff_share);
      r.mpi = std::min(warm_mpi + a.compulsory_misses_per_instruction,
                       r.llc_api);

      // (3) CPI and instruction rate at the current loaded latency.
      const double stall_cycles_per_miss =
          latency_ns * frequency_ghz / a.mlp;
      const double new_cpi = a.cpi_base + r.mpi * stall_cycles_per_miss;
      // The maximum of equal terms is that term, so one per run suffices.
      max_rel_change =
          std::max(max_rel_change, std::abs(new_cpi - r.cpi) / new_cpi);
      r.cpi = new_cpi;
      r.miss_rate = r.mpi * (hz / new_cpi);

      add_per_instance(bytes_per_second, r.miss_rate * line_bytes, r.count);
      add_per_instance(total_miss_rate, r.miss_rate, r.count);
    }

    // Total DRAM demand gives the loaded latency for the next iteration.
    const double rho = std::min(
        bytes_per_second / (machine.memory_bandwidth_gbs * 1e9),
        kContentionMaxUtilization);
    double target_latency = machine.memory_latency_ns;
    if (!options.disable_queueing) {
      target_latency *= 1.0 + machine.memory_queue_sensitivity * rho /
                                  (1.0 - rho);
    }
    latency_ns += kContentionDamping * (target_latency - latency_ns);
    solution.memory_utilization = rho;

    // (1) Occupancy proportional to insertion (miss) rates.
    if (!options.static_equal_partition && n > 1) {
      if (total_miss_rate > 0.0) {
        double sum = 0.0;
        for (Run& r : runs) {
          // Floor each share at one way's worth of lines so no app is
          // starved to zero (hardware never fully evicts a running app).
          const double target =
              std::max(llc_lines * r.miss_rate / total_miss_rate,
                       share_floor);
          r.share += kContentionDamping * (target - r.share);
          add_per_instance(sum, r.share, r.count);
        }
        // Renormalize so shares sum to the LLC capacity.
        for (Run& r : runs) r.share *= llc_lines / sum;
      }
    } else if (n == 1) {
      runs.front().share = llc_lines;
    }

    if (max_rel_change < kContentionTolerance && iter > 2) {
      converged = true;
      ++iter;
      break;
    }
  }

  solution.apps.resize(n);
  std::size_t i = 0;
  for (const Run& r : runs) {
    const double ips = hz / r.cpi;
    for (std::size_t k = 0; k < r.count; ++k, ++i) {
      AppSolution& out = solution.apps[i];
      out.llc_share_lines = r.share;
      out.misses_per_instruction = r.mpi;
      out.accesses_per_instruction = r.llc_api;
      out.cpi = r.cpi;
      out.instructions_per_second = ips;
      // Instances of a run may differ in length.
      out.execution_time_s = apps[i].spec->instructions / ips;
    }
  }
  solution.memory_latency_ns = latency_ns;
  solution.iterations = iter;
  solution.converged = converged;
  return solution;
}

}  // namespace coloc::sim
