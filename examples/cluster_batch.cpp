// Dynamic cluster scenario: a stream of jobs arrives at a 4-node cluster
// of 12-core machines; placement policies are compared on slowdown,
// queueing delay, makespan, and energy — with every node's contention
// re-solved as membership changes (serve/event_sim.hpp).
//
// Usage: ./build/examples/cluster_batch [--jobs=60] [--nodes=4]
//        [--interarrival=20]
#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/methodology.hpp"
#include "sched/placement_policy.hpp"
#include "serve/event_sim.hpp"
#include "serve/placement_service.hpp"

int main(int argc, char** argv) {
  using namespace coloc;
  const CliArgs args(argc, argv);
  const std::size_t num_jobs =
      static_cast<std::size_t>(args.get_int("jobs", 60));
  const std::size_t num_nodes =
      static_cast<std::size_t>(args.get_int("nodes", 4));
  const double interarrival = args.get_double("interarrival", 20.0);

  const sim::MachineConfig machine = sim::xeon_e5_2697v2();
  sim::AppMrcLibrary library;
  sim::Simulator testbed(machine, &library);

  std::printf("training the placement model on %s...\n",
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
  config.nodes = num_nodes;
  config.pstate_index = 0;
  serve::EventSimulator cluster(config, &library, catalog, &service,
                                &campaign.baselines);

  const std::vector<serve::Job> jobs = serve::make_job_stream(
      catalog.size(), num_jobs, interarrival, /*seed=*/11);
  std::printf("simulating %zu jobs on %zu nodes "
              "(mean interarrival %.0f s)\n\n",
              jobs.size(), num_nodes, interarrival);

  TextTable table("Dynamic placement policies compared");
  table.set_columns({"policy", "mean slowdown", "max slowdown",
                     "mean wait (s)", "makespan (s)", "energy (MJ)"});
  for (sched::PlacementPolicy policy : sched::all_placement_policies()) {
    const serve::ReplayOutcome outcome = cluster.replay(jobs, policy);
    table.add_row({to_string(policy),
                   TextTable::num(outcome.mean_slowdown, 3),
                   TextTable::num(outcome.max_slowdown, 3),
                   TextTable::num(outcome.mean_wait_s, 1),
                   TextTable::num(outcome.makespan_s, 0),
                   TextTable::num(outcome.total_energy_j / 1e6, 2)});
  }
  table.print(std::cout);
  std::printf(
      "first-fit consolidates hardest (least energy, most interference),\n"
      "least-loaded spreads (least interference, most energy), the\n"
      "model-driven policy picks co-residents that tolerate each other —\n"
      "the interference-aware scheduling the paper's Section VI proposes —\n"
      "and dvfs-aware also picks each node's most efficient P-state that\n"
      "still meets its residents' deadlines.\n");
  return 0;
}
