// Server-consolidation scenario from the paper's introduction: a batch of
// jobs must be packed onto as few 12-core nodes as possible without
// blowing the QoS budget. The trained co-location model steers placement
// through serve::EventSimulator; the contention solver grades the outcome.
//
// The whole batch arrives at t = 0 on a small fleet, so every policy places
// all jobs at once. Interference-aware placement runs with the QoS bound as
// EventSimConfig::max_slowdown. The exit status is 1 when the run does not
// show the consolidation claim: interference-aware's mean slowdown at or
// below the bound, first-fit's above it, and fewer nodes powered than
// least-loaded.
//
// Usage: ./build/examples/consolidation_scheduler [--max-slowdown=1.25]
#include <cstdio>
#include <iostream>
#include <set>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/methodology.hpp"
#include "sched/placement_policy.hpp"
#include "serve/event_sim.hpp"
#include "serve/placement_service.hpp"

int main(int argc, char** argv) {
  using namespace coloc;
  const CliArgs args(argc, argv);
  double max_slowdown = 1.25;
  try {
    max_slowdown = args.get_double("max-slowdown", max_slowdown);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "consolidation_scheduler: %s\n", e.what());
    return 2;
  }
  // Enough nodes that least-loaded can give every job a lightly loaded
  // node, and few enough that packing matters.
  constexpr std::size_t kFleetNodes = 6;

  const sim::MachineConfig machine = sim::xeon_e5_2697v2();
  sim::AppMrcLibrary library;
  sim::Simulator testbed(machine, &library);

  std::printf("training the co-location model on %s...\n",
              machine.name.c_str());
  const core::CampaignConfig campaign_config =
      core::CampaignConfig::paper_defaults();
  library.profile_all(campaign_config.targets);
  const core::CampaignResult campaign =
      core::run_campaign(testbed, campaign_config);
  core::ModelZooOptions zoo;
  zoo.mlp.max_iterations = 1200;
  const core::ColocationPredictor predictor =
      core::ColocationPredictor::train(
          campaign.dataset,
          {core::ModelTechnique::kNeuralNetwork, core::FeatureSet::kF},
          zoo);

  // The simulator requires AppId i to be catalog[i], so the service
  // registers the suite in catalog order.
  const std::vector<sim::ApplicationSpec> catalog = sim::benchmark_suite();
  serve::PlacementService service(&predictor);
  for (const sim::ApplicationSpec& spec : catalog) {
    service.register_app(campaign.baselines.at(spec.name));
  }
  serve::EventSimConfig config;
  config.node = machine;
  config.nodes = kFleetNodes;
  config.max_slowdown = max_slowdown;
  serve::EventSimulator fleet(config, &library, catalog, &service);

  // A mixed batch: two copies of every suite application (22 jobs).
  std::vector<serve::Job> jobs;
  for (serve::AppId app = 0; app < catalog.size(); ++app) {
    jobs.push_back({app, 0.0});
    jobs.push_back({app, 0.0});
  }
  std::printf("placing %zu jobs on %zu %zu-core nodes "
              "(QoS bound: %.2fx predicted slowdown)\n\n",
              jobs.size(), kFleetNodes, machine.cores, max_slowdown);

  TextTable table("Consolidation policies compared");
  table.set_columns({"policy", "nodes", "mean slowdown", "max slowdown",
                     "energy (kJ)", "makespan (s)"});
  struct Result {
    std::size_t nodes = 0;
    double mean_slowdown = 0.0;
  };
  const auto run = [&](sched::PlacementPolicy policy) {
    const serve::ReplayOutcome outcome = fleet.replay(jobs, policy);
    std::set<std::uint32_t> used;
    for (const serve::JobOutcome& job : outcome.jobs) used.insert(job.node);
    table.add_row({to_string(policy), TextTable::num(used.size()),
                   TextTable::num(outcome.mean_slowdown, 3),
                   TextTable::num(outcome.max_slowdown, 3),
                   TextTable::num(outcome.total_energy_j / 1000.0, 1),
                   TextTable::num(outcome.makespan_s, 0)});
    return Result{used.size(), outcome.mean_slowdown};
  };
  const Result packed = run(sched::PlacementPolicy::kFirstFit);
  const Result spread = run(sched::PlacementPolicy::kLeastLoaded);
  const Result aware = run(sched::PlacementPolicy::kInterferenceAware);
  table.print(std::cout);

  const bool aware_within = aware.mean_slowdown <= max_slowdown;
  const bool packing_breaks = packed.mean_slowdown > max_slowdown;
  const bool consolidates = aware.nodes < spread.nodes;
  if (aware_within && packing_breaks && consolidates) {
    std::printf(
        "interference-aware placement keeps the mean slowdown within the\n"
        "%.2fx bound on %zu nodes, where first-fit breaks it on %zu and\n"
        "least-loaded powers %zu: the consolidation win the paper's\n"
        "Section VI anticipates.\n",
        max_slowdown, aware.nodes, packed.nodes, spread.nodes);
    return 0;
  }
  std::printf(
      "the consolidation claim does not hold at the %.2fx bound:\n"
      "interference-aware mean within the bound: %s; first-fit mean above "
      "it: %s;\ninterference-aware on fewer nodes than least-loaded: %s\n",
      max_slowdown, aware_within ? "yes" : "no",
      packing_breaks ? "yes" : "no", consolidates ? "yes" : "no");
  return 1;
}
