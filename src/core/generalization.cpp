#include "core/generalization.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace coloc::core {

namespace {

const sim::ApplicationSpec& find_in(
    const std::vector<sim::ApplicationSpec>& apps, const std::string& name) {
  for (const auto& app : apps) {
    if (app.name == name) return app;
  }
  throw coloc::invalid_argument_error("application not in set: " + name);
}

bool is_training_coapp(const std::vector<std::string>& training,
                       const std::string& name) {
  return std::find(training.begin(), training.end(), name) !=
         training.end();
}

GeneralizationScenario random_homogeneous(
    const sim::MachineConfig& machine,
    const std::vector<sim::ApplicationSpec>& all_apps,
    const std::vector<std::string>& pool, Rng& rng, std::size_t pstates) {
  GeneralizationScenario s;
  s.target = all_apps[rng.uniform_index(all_apps.size())].name;
  const std::string co = pool[rng.uniform_index(pool.size())];
  const std::size_t count =
      1 + static_cast<std::size_t>(rng.uniform_index(machine.cores - 1));
  s.coapps.assign(count, co);
  s.pstate_index = static_cast<std::size_t>(rng.uniform_index(pstates));
  return s;
}

}  // namespace

std::vector<GeneralizationScenario> make_seen_scenarios(
    const sim::MachineConfig& machine,
    const std::vector<sim::ApplicationSpec>& all_apps,
    const std::vector<std::string>& training_coapps,
    const GeneralizationOptions& options) {
  COLOC_CHECK_MSG(!training_coapps.empty(), "no training co-runners");
  Rng rng(options.seed);
  std::vector<GeneralizationScenario> scenarios;
  scenarios.reserve(options.scenarios);
  for (std::size_t i = 0; i < options.scenarios; ++i) {
    scenarios.push_back(random_homogeneous(machine, all_apps,
                                           training_coapps, rng,
                                           machine.pstates.size()));
  }
  return scenarios;
}

std::vector<GeneralizationScenario> make_unseen_scenarios(
    const sim::MachineConfig& machine,
    const std::vector<sim::ApplicationSpec>& all_apps,
    const std::vector<std::string>& training_coapps,
    const GeneralizationOptions& options) {
  std::vector<std::string> unseen;
  for (const auto& app : all_apps) {
    if (!is_training_coapp(training_coapps, app.name))
      unseen.push_back(app.name);
  }
  COLOC_CHECK_MSG(!unseen.empty(), "every application was used in training");
  Rng rng(options.seed ^ 0xBEEF);
  std::vector<GeneralizationScenario> scenarios;
  scenarios.reserve(options.scenarios);
  for (std::size_t i = 0; i < options.scenarios; ++i) {
    scenarios.push_back(random_homogeneous(machine, all_apps, unseen, rng,
                                           machine.pstates.size()));
  }
  return scenarios;
}

std::vector<GeneralizationScenario> make_heterogeneous_scenarios(
    const sim::MachineConfig& machine,
    const std::vector<sim::ApplicationSpec>& all_apps,
    const GeneralizationOptions& options) {
  COLOC_CHECK_MSG(all_apps.size() >= 2, "need at least two applications");
  Rng rng(options.seed ^ 0xCAFE);
  std::vector<GeneralizationScenario> scenarios;
  scenarios.reserve(options.scenarios);
  for (std::size_t i = 0; i < options.scenarios; ++i) {
    GeneralizationScenario s;
    s.target = all_apps[rng.uniform_index(all_apps.size())].name;
    // 2..cores-1 co-runners, each drawn independently; retry until the
    // group actually mixes at least two distinct applications.
    const std::size_t count = std::min<std::size_t>(
        machine.cores - 1,
        2 + static_cast<std::size_t>(rng.uniform_index(machine.cores - 2)));
    do {
      s.coapps.clear();
      for (std::size_t c = 0; c < count; ++c) {
        s.coapps.push_back(
            all_apps[rng.uniform_index(all_apps.size())].name);
      }
    } while (std::all_of(s.coapps.begin(), s.coapps.end(),
                         [&s](const std::string& n) {
                           return n == s.coapps.front();
                         }));
    s.pstate_index =
        static_cast<std::size_t>(rng.uniform_index(machine.pstates.size()));
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

namespace {

GeneralizationReport::Record evaluate_scenario(
    sim::Simulator& simulator, const ColocationPredictor& predictor,
    const BaselineLibrary& baselines,
    const std::vector<sim::ApplicationSpec>& all_apps,
    const GeneralizationScenario& scenario, std::uint64_t repetition) {
  const sim::ApplicationSpec& target = find_in(all_apps, scenario.target);
  std::vector<sim::ApplicationSpec> coapps;
  std::vector<const BaselineProfile*> co_profiles;
  coapps.reserve(scenario.coapps.size());
  for (const auto& name : scenario.coapps) {
    coapps.push_back(find_in(all_apps, name));
    co_profiles.push_back(&baselines.at(name));
  }

  GeneralizationReport::Record record;
  record.scenario = scenario;
  record.predicted_s = predictor.predict_time(
      baselines.at(scenario.target), co_profiles, scenario.pstate_index);
  record.actual_s =
      simulator
          .run_colocated(target, coapps, scenario.pstate_index, repetition)
          .execution_time_s;
  record.percent_error =
      100.0 * (record.predicted_s - record.actual_s) / record.actual_s;
  return record;
}

double mean_abs_error(
    const std::vector<GeneralizationReport::Record>& records) {
  if (records.empty()) return 0.0;
  double s = 0.0;
  for (const auto& r : records) s += std::abs(r.percent_error);
  return s / static_cast<double>(records.size());
}

}  // namespace

GeneralizationReport evaluate_generalization(
    sim::Simulator& simulator, const ColocationPredictor& predictor,
    const BaselineLibrary& baselines,
    const std::vector<sim::ApplicationSpec>& all_apps,
    const std::vector<std::string>& training_coapps,
    const GeneralizationOptions& options) {
  for (const auto& app : all_apps) {
    COLOC_CHECK_MSG(baselines.count(app.name),
                    "missing baseline for " + app.name);
  }

  GeneralizationReport report;
  report.scenarios_per_category = options.scenarios;

  // Repetitions from 1001 up draw measurement noise the campaign's
  // repetitions never drew.
  std::uint64_t repetition = 1000;
  for (const auto& scenario :
       make_seen_scenarios(simulator.machine(), all_apps, training_coapps,
                           options)) {
    report.seen_records.push_back(evaluate_scenario(
        simulator, predictor, baselines, all_apps, scenario, ++repetition));
  }
  for (const auto& scenario :
       make_unseen_scenarios(simulator.machine(), all_apps, training_coapps,
                             options)) {
    report.unseen_records.push_back(evaluate_scenario(
        simulator, predictor, baselines, all_apps, scenario, ++repetition));
  }
  for (const auto& scenario : make_heterogeneous_scenarios(
           simulator.machine(), all_apps, options)) {
    report.mixed_records.push_back(evaluate_scenario(
        simulator, predictor, baselines, all_apps, scenario, ++repetition));
  }

  report.seen_homogeneous_mpe = mean_abs_error(report.seen_records);
  report.unseen_homogeneous_mpe = mean_abs_error(report.unseen_records);
  report.heterogeneous_mpe = mean_abs_error(report.mixed_records);
  return report;
}

}  // namespace coloc::core
