#include "serve/demo_fleet.hpp"

#include <utility>

#include "core/zoo_artifacts.hpp"
#include "sim/execution.hpp"

namespace coloc::serve::demo {

namespace {

sim::ApplicationSpec demo_app(const std::string& name, std::size_t ws_lines,
                              double compulsory, double rpi,
                              double instructions) {
  sim::ApplicationSpec a;
  a.name = name;
  a.instructions = instructions;
  a.cpi_base = 0.7;
  a.refs_per_instruction = rpi;
  a.mlp = 2.5;
  a.compulsory_misses_per_instruction = compulsory;
  sim::Phase p;
  p.working_set_lines = ws_lines;
  p.mix = {.hot_cold = 0.7, .pointer = 0.3};
  p.zipf_exponent = 0.85;
  a.trace.phases = {p};
  a.trace.name = name;
  a.profile_references = 120'000;
  return a;
}

}  // namespace

sim::MachineConfig fleet_node() {
  sim::MachineConfig m;
  m.name = "FleetNode 4-core";
  m.cores = 4;
  m.llc_bytes = 2ULL << 20;
  m.line_bytes = 64;
  m.llc_associativity = 16;
  m.private_bytes = 128ULL << 10;
  m.memory_bandwidth_gbs = 10.0;
  m.memory_latency_ns = 70.0;
  m.memory_queue_sensitivity = 0.5;
  m.pstates = sim::PStateTable::evenly_spaced(1.5, 2.5, 3);
  sim::validate(m);
  return m;
}

std::vector<sim::ApplicationSpec> catalog() {
  return {
      demo_app("hog", 120'000, 4e-3, 0.03, 90e9),     // class I
      demo_app("churn", 90'000, 2e-3, 0.025, 120e9),  // class I/II
      demo_app("medium", 30'000, 4e-4, 0.02, 100e9),  // class II
      demo_app("steady", 15'000, 1e-4, 0.018, 140e9), // class III
      demo_app("light", 6'000, 5e-5, 0.015, 110e9),   // class III
      demo_app("quiet", 1'000, 1e-6, 0.01, 130e9),    // class IV
  };
}

core::CampaignConfig campaign_config(std::size_t jobs) {
  core::CampaignConfig config;
  config.targets = catalog();
  // One co-runner representative per intensity extreme plus the middle —
  // the paper's class-representative training design, scaled down.
  config.coapps = {config.targets[0], config.targets[2], config.targets[5]};
  config.jobs = jobs;
  return config;
}

DemoPipeline build_pipeline(sim::AppMrcLibrary& library,
                            const sim::MachineConfig& machine,
                            const std::string& zoo_dir, std::size_t jobs,
                            std::size_t nn_iterations) {
  const core::CampaignConfig config = campaign_config(jobs);
  library.profile_all(config.targets);
  sim::Simulator testbed(machine, &library);
  core::CampaignResult campaign = core::run_campaign(testbed, config);

  core::ModelZooOptions zoo;
  zoo.mlp.max_iterations = nn_iterations;
  const core::ModelId id{core::ModelTechnique::kNeuralNetwork,
                         core::FeatureSet::kF};
  if (zoo_dir.empty()) {
    core::ColocationPredictor predictor =
        core::ColocationPredictor::train(campaign.dataset, id, zoo);
    return DemoPipeline{std::move(campaign), std::move(predictor)};
  }
  core::ZooLoadOutcome outcome = core::load_or_repair_zoo(
      zoo_dir, campaign.dataset, zoo, {id},
      {{"machine", machine.name},
       {"nn_iters", std::to_string(nn_iterations)}});
  core::ColocationPredictor predictor = core::ColocationPredictor::from_model(
      id, std::move(outcome.zoo.models.at(id.name())));
  return DemoPipeline{std::move(campaign), std::move(predictor)};
}

}  // namespace coloc::serve::demo
