#include "sim/execution.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace coloc::sim {

namespace {
struct SimMetrics {
  obs::Counter& runs;
  obs::Counter& instructions;
  obs::Counter& contention_solves;
  obs::Counter& contention_unconverged;

  static SimMetrics& get() {
    auto& registry = obs::Registry::global();
    static SimMetrics metrics{
        registry.counter("sim_runs_total"),
        registry.counter("sim_instructions_total"),
        registry.counter("sim_contention_solves_total"),
        registry.counter("sim_contention_unconverged_total"),
    };
    return metrics;
  }
};
}  // namespace

Simulator::Simulator(MachineConfig machine, AppMrcLibrary* library,
                     MeasurementOptions options)
    : machine_(std::move(machine)), library_(library),
      options_(std::move(options)),
      solve_cache_("sim_solve_cache_hits_total",
                   "sim_solve_cache_misses_total") {
  COLOC_CHECK_MSG(library_ != nullptr, "simulator needs an MRC library");
  validate(machine_);
}

std::uint64_t Simulator::run_seed(const ApplicationSpec& target,
                                  const std::vector<ApplicationSpec>& coapps,
                                  std::size_t pstate_index,
                                  std::uint64_t repetition) const {
  std::uint64_t h =
      obs::fnv1a64(machine_.name, obs::kFnv1aBasis ^ options_.seed);
  h = obs::fnv1a64(target.name, h);
  for (const auto& c : coapps) h = obs::fnv1a64(c.name, h);
  h ^= pstate_index * 0x9e3779b97f4a7c15ULL;
  h ^= repetition * 0x2545f4914f6cdd1dULL;
  return h;
}

std::shared_ptr<const ContentionSolution> Simulator::solve(
    const std::vector<ApplicationSpec>& apps, std::size_t pstate_index) const {
  COLOC_CHECK_MSG(!apps.empty(), "need at least one application");
  return solve(apps.front(), std::span(apps).subspan(1), pstate_index);
}

std::shared_ptr<const ContentionSolution> Simulator::solve(
    const ApplicationSpec& first, std::span<const ApplicationSpec> rest,
    std::size_t pstate_index) const {
  COLOC_CHECK_MSG(pstate_index < machine_.pstates.size(),
                  "P-state index out of range");

  // Memo key: P-state plus the ordered, length-prefixed app names.
  // Order-exact on purpose — see the solve() contract in execution.hpp.
  std::size_t key_bytes = 2 * sizeof(std::uint64_t) + first.name.size();
  for (const auto& app : rest)
    key_bytes += sizeof(std::uint64_t) + app.name.size();
  std::string key;
  key.reserve(key_bytes);
  memo_key::append_u64(key, pstate_index);
  memo_key::append_string(key, first.name);
  for (const auto& app : rest) memo_key::append_string(key, app.name);
  if (auto cached = solve_cache_.lookup(key)) return *std::move(cached);

  obs::ScopedSpan span("sim/solve_contention", "sim");
  SimMetrics& metrics = SimMetrics::get();
  metrics.contention_solves.inc();
  std::vector<ScheduledApp> scheduled;
  scheduled.reserve(1 + rest.size());
  scheduled.push_back(ScheduledApp{&first, &library_->curve(first)});
  for (const auto& app : rest) {
    scheduled.push_back(ScheduledApp{&app, &library_->curve(app)});
  }
  auto solution = std::make_shared<const ContentionSolution>(
      solve_contention(machine_, machine_.pstates[pstate_index].frequency_ghz,
                       scheduled, options_.contention));
  if (!solution->converged) metrics.contention_unconverged.inc();
  return solve_cache_.store(std::move(key), std::move(solution));
}

RunMeasurement Simulator::measure(const ApplicationSpec& target,
                                  const std::vector<ApplicationSpec>& coapps,
                                  std::size_t pstate_index,
                                  std::uint64_t repetition) {
  COLOC_CHECK_MSG(coapps.size() + 1 <= machine_.cores,
                  "co-location exceeds core count");

  obs::ScopedSpan span("sim/measure", "sim");
  SimMetrics& metrics = SimMetrics::get();
  metrics.runs.inc();
  metrics.instructions.inc(static_cast<std::uint64_t>(target.instructions));

  const std::shared_ptr<const ContentionSolution> solution =
      solve(target, coapps, pstate_index);
  const AppSolution& t = solution->apps.front();

  RunMeasurement m;
  m.target = target.name;
  m.pstate_index = pstate_index;
  m.frequency_ghz = machine_.pstates[pstate_index].frequency_ghz;
  m.num_coapps = coapps.size();
  m.true_execution_time_s = t.execution_time_s;

  Rng rng(run_seed(target, coapps, pstate_index, repetition));
  const double time_noise =
      options_.time_noise_sigma > 0.0
          ? rng.lognormal(0.0, options_.time_noise_sigma)
          : 1.0;
  m.execution_time_s = t.execution_time_s * time_noise;

  auto jitter = [&rng, this] {
    return options_.counter_noise_sigma > 0.0
               ? rng.lognormal(0.0, options_.counter_noise_sigma)
               : 1.0;
  };
  const double ni = target.instructions;
  m.counters.set(PresetEvent::kTotalInstructions, ni);  // exact on real HW
  m.counters.set(PresetEvent::kTotalCycles,
                 ni * t.cpi * time_noise);  // cycles track wall time
  m.counters.set(PresetEvent::kLlcMisses,
                 ni * t.misses_per_instruction * jitter());
  m.counters.set(PresetEvent::kLlcAccesses,
                 ni * t.accesses_per_instruction * jitter());
  return m;
}

RunMeasurement Simulator::run_alone(const ApplicationSpec& app,
                                    std::size_t pstate_index,
                                    std::uint64_t repetition) {
  return measure(app, {}, pstate_index, repetition);
}

RunMeasurement Simulator::run_colocated(
    const ApplicationSpec& target, const std::vector<ApplicationSpec>& coapps,
    std::size_t pstate_index, std::uint64_t repetition) {
  return measure(target, coapps, pstate_index, repetition);
}

}  // namespace coloc::sim
