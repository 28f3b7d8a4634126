// Generalization evaluation beyond the training co-runner set.
//
// Section IV-B3 claims the campaign's training data is "designed to be
// able to both predict between the training data's gaps in the sample
// space, and extend beyond the set of four co-location applications ...
// and be able to make predictions about applications that it has not seen
// previously." The paper never quantifies that claim; this module does:
//
//   - unseen-co-runner scenarios: the target runs next to copies of an
//     application that was NOT one of the four training co-runners;
//   - heterogeneous mixes: co-runner groups drawn from several different
//     applications at once (training only ever used homogeneous groups).
//
// Both stress exactly the additive structure of the Table I features
// (co-app features are sums over co-runners), so they measure whether the
// trained models learned that structure or just memorized the sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/methodology.hpp"
#include "sim/execution.hpp"

namespace coloc::core {

/// One out-of-sample co-location scenario.
struct GeneralizationScenario {
  std::string target;
  std::vector<std::string> coapps;  // one entry per co-located instance
  std::size_t pstate_index = 0;
};

struct GeneralizationOptions {
  /// Number of random scenarios per category.
  std::size_t scenarios = 200;
  std::uint64_t seed = 31;
};

struct GeneralizationReport {
  /// Mean |error|% over scenarios whose co-runners were in the training
  /// set (sanity reference — should match held-out campaign accuracy).
  double seen_homogeneous_mpe = 0.0;
  /// Scenarios using a single unseen co-runner application.
  double unseen_homogeneous_mpe = 0.0;
  /// Scenarios mixing 2+ distinct co-runner applications (seen or not).
  double heterogeneous_mpe = 0.0;
  std::size_t scenarios_per_category = 0;

  /// Per-scenario records for deeper analysis.
  struct Record {
    GeneralizationScenario scenario;
    double predicted_s = 0.0;
    double actual_s = 0.0;
    double percent_error = 0.0;  // signed
  };
  std::vector<Record> seen_records;
  std::vector<Record> unseen_records;
  std::vector<Record> mixed_records;
};

/// Generates the three scenario categories for a machine.
/// `training_coapps` are the campaign's co-runner names; everything else
/// in `all_apps` counts as unseen.
std::vector<GeneralizationScenario> make_seen_scenarios(
    const sim::MachineConfig& machine,
    const std::vector<sim::ApplicationSpec>& all_apps,
    const std::vector<std::string>& training_coapps,
    const GeneralizationOptions& options);

std::vector<GeneralizationScenario> make_unseen_scenarios(
    const sim::MachineConfig& machine,
    const std::vector<sim::ApplicationSpec>& all_apps,
    const std::vector<std::string>& training_coapps,
    const GeneralizationOptions& options);

std::vector<GeneralizationScenario> make_heterogeneous_scenarios(
    const sim::MachineConfig& machine,
    const std::vector<sim::ApplicationSpec>& all_apps,
    const GeneralizationOptions& options);

/// Measures each scenario in the simulator, predicts it with the trained
/// model, and aggregates the three categories.
GeneralizationReport evaluate_generalization(
    sim::Simulator& simulator, const ColocationPredictor& predictor,
    const BaselineLibrary& baselines,
    const std::vector<sim::ApplicationSpec>& all_apps,
    const std::vector<std::string>& training_coapps,
    const GeneralizationOptions& options = {});

}  // namespace coloc::core
