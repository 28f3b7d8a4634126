// placement_sim: cluster-scale placement-policy replay over the placement
// service (DESIGN.md §12).
//
//   placement_sim [--nodes=64] [--arrivals=50000] [--policy=all]
//                 [--seed=7] [--jobs=N] [--zoo-in=DIR] [--bundle-out=DIR]
//                 [--utilization=0.8]
//
// Builds the demo fleet pipeline (quick campaign -> nn-F predictor; with
// --zoo-in the predictor is reloaded from that crash-safe zoo bundle,
// creating/repairing it on disk as needed), generates one seeded arrival
// stream, and replays it under each requested policy through the
// discrete-event simulator. Policies replay in parallel over the worker
// pool on independent service/simulator instances and are printed in
// deterministic policy order — output is bit-identical at any --jobs.
//
// --policy takes one to_string(PlacementPolicy) token ("first-fit",
// "least-loaded", "interference-aware", "dvfs-aware") or "all"; unknown
// tokens exit 2 listing the accepted values.
//
// Per-policy mean slowdown and deadline-miss gauges land in the metrics
// snapshot, so two --bundle-out bundles diff under tools/obs_report
// (including the placement predict-latency p99 gate). A --bundle-out
// directory that cannot be created exits 2 before the replay.
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "sched/placement_policy.hpp"
#include "serve/demo_fleet.hpp"
#include "serve/event_sim.hpp"
#include "serve/placement_service.hpp"

int main(int argc, char** argv) {
  using namespace coloc;
  const CliArgs args(argc, argv);

  std::size_t jobs = 0;
  std::size_t nodes = 64;
  std::size_t arrivals = 50'000;
  std::uint64_t seed = 7;
  // Target core utilization for the arrival rate. Computed from run-alone
  // service times, so the ~1.3-1.5x co-location slowdown inflates the
  // effective load: 0.5 keeps the fleet busy but un-saturated — the regime
  // where placement choice matters (a saturated fleet has no choices).
  double utilization = 0.5;
  const std::string zoo_in = args.get("zoo-in", "");

  std::vector<sched::PlacementPolicy> policies;
  obs::ObsOptions obs_options;
  std::optional<obs::ObsSession> session;
  try {
    nodes = args.get_int("nodes", nodes);
    arrivals = args.get_int("arrivals", arrivals);
    seed = args.get_int("seed", seed);
    utilization = args.get_double("utilization", utilization);
    jobs = apply_jobs_flag(args);
    obs_options.manifest.jobs = jobs != 0 ? jobs : configured_jobs();
    const std::string token = args.get("policy", "all");
    if (token == "all") {
      policies = sched::all_placement_policies();
    } else {
      policies = {sched::parse_placement_policy(token)};
    }
    if (nodes == 0 || arrivals == 0) {
      throw invalid_argument_error("--nodes and --arrivals must be >= 1");
    }
    if (!(utilization > 0.0)) {
      throw invalid_argument_error("--utilization must be positive");
    }
    obs_options.bundle_dir = args.get("bundle-out", "");
    obs_options.label = "placement_sim";
    obs_options.manifest.program = "placement_sim";
    obs_options.manifest.machine_preset = "fleet_node";
    obs_options.manifest.seed = seed;
    obs_options.manifest.extra = {
        {"nodes", std::to_string(nodes)},
        {"arrivals", std::to_string(arrivals)},
    };
    obs_options.flush_hook = [] { global_pool().quiesce(); };
    // Creates the bundle directory, so an unusable one exits 2 here.
    session.emplace(std::move(obs_options));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "placement_sim: %s\n", e.what());
    return 2;
  }

  try {
    const sim::MachineConfig machine = serve::demo::fleet_node();
    sim::AppMrcLibrary library;
    const std::string source =
        zoo_in.empty() ? "quick campaign" : "zoo bundle " + zoo_in;
    std::printf("training predictor (%s)...\n", source.c_str());
    const serve::demo::DemoPipeline pipeline =
        serve::demo::build_pipeline(library, machine, zoo_in, jobs);
    const std::vector<sim::ApplicationSpec> catalog = serve::demo::catalog();

    // Arrival rate targeting the requested fleet utilization: mean
    // run-alone service time over the catalog, spread across every core.
    double mean_service_s = 0.0;
    for (const sim::ApplicationSpec& spec : catalog) {
      mean_service_s +=
          pipeline.campaign.baselines.at(spec.name).execution_time_s[0];
    }
    mean_service_s /= static_cast<double>(catalog.size());
    const double mean_interarrival_s =
        mean_service_s /
        (static_cast<double>(nodes * machine.cores) * utilization);

    const std::vector<serve::Job> stream =
        serve::make_job_stream(catalog.size(), arrivals, mean_interarrival_s,
                               seed);
    std::printf("replaying %zu arrivals across %zu nodes (%zu policies, "
                "mean interarrival %.3f s)...\n",
                arrivals, nodes, policies.size(), mean_interarrival_s);

    serve::EventSimConfig sim_config;
    sim_config.node = machine;
    sim_config.nodes = nodes;

    // One independent service + simulator per policy (the predictor and
    // MRC library are shared read-only), so the parallel sweep is
    // bit-identical to a serial one.
    std::vector<serve::ReplayOutcome> results(policies.size());
    parallel_for(global_pool(), policies.size(), [&](std::size_t i) {
      serve::PlacementService service(&pipeline.predictor);
      for (const sim::ApplicationSpec& spec : catalog) {
        service.register_app(pipeline.campaign.baselines.at(spec.name));
      }
      serve::EventSimulator sim(sim_config, &library, catalog, &service,
                                &pipeline.campaign.baselines);
      results[i] = sim.replay(stream, policies[i]);
    });

    auto& registry = obs::Registry::global();
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const serve::ReplayOutcome& r = results[i];
      const std::string name = sched::to_string(policies[i]);
      std::printf(
          "policy=%s mean_slowdown=%.4f max_slowdown=%.3f mean_wait_s=%.3f "
          "deadline_miss_rate=%.4f energy_mj=%.3f makespan_s=%.1f "
          "events=%llu solves=%llu\n",
          name.c_str(), r.mean_slowdown, r.max_slowdown, r.mean_wait_s,
          r.deadline_miss_rate, r.total_energy_j / 1e6, r.makespan_s,
          static_cast<unsigned long long>(r.events_processed),
          static_cast<unsigned long long>(r.contention_solves));
      registry.gauge("placement_policy_mean_slowdown", {{"policy", name}})
          .set(r.mean_slowdown);
      registry
          .gauge("placement_policy_deadline_miss_rate", {{"policy", name}})
          .set(r.deadline_miss_rate);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "placement_sim: %s\n", e.what());
    return 1;
  }
}
