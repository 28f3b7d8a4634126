// Quickstart: the whole methodology in ~100 lines.
//
//   1. Describe a machine and a pair of applications.
//   2. Profile each application ONCE, alone (baseline times + counters).
//   3. Collect a small training campaign and train a predictor.
//   4. Validate the model with the paper's repeated-subsampling protocol.
//   5. Ask: "how much slower will `canneal` run next to four copies of
//      `cg` at the highest P-state?" — and check against the simulator.
//
// Build & run:  ./build/examples/quickstart
//
// Observability flag (see the Observability section in README.md):
//   --bundle-out DIR       write DIR/{manifest,metrics,trace}.json for
//                          tools/obs_report (a DIR that cannot be created
//                          exits 2 before the run)
//
// Performance flags (see the Performance section in README.md):
//   --jobs=N               most worker threads for the campaign +
//                          validation (0 = auto; overrides COLOC_JOBS;
//                          clamped to the hardware threads; anything but a
//                          whole non-negative integer exits 2; output is
//                          bit-identical at any value)
//   --restarts=N           SCG restarts per MLP fit, in [1, 64] (default 1;
//                          the winner is the lowest-loss restart; all
//                          restarts train together in fused batched kernels)
//
// Robustness flags (see the Robustness section in README.md):
//   --fault-rate=P         inject measurement faults at rate P (also
//                          settable via COLOC_FAULT_RATE; must be in [0,1])
//   --checkpoint=FILE      checkpoint completed campaign cells to FILE
//   --checkpoint-every=N   cells between periodic checkpoint flushes
//   --resume               load FILE first and skip measured cells
//   --zoo-out=DIR          train the full 12-model zoo and save it as a
//                          checksummed bundle under DIR
//   --zoo-in=DIR           reload the zoo bundle from DIR (corrupt or
//                          missing entries are retrained on the spot) and
//                          predict with its nn-F model instead of training
#include <cstdio>
#include <optional>
#include <utility>

#include "common/cli.hpp"
#include "common/thread_pool.hpp"
#include "core/methodology.hpp"
#include "core/zoo_artifacts.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"

int main(int argc, char** argv) {
  using namespace coloc;

  // Every flag is read up front: a malformed one (or a bundle directory
  // that cannot be created) exits 2 before any work. Faults come from
  // COLOC_FAULT_* (chaos CI) or --fault-rate; with the default rate of
  // zero the injector is a pass-through and the run is numerically
  // identical to an unwrapped sweep.
  const CliArgs args(argc, argv);
  std::size_t jobs = 0;
  obs::ObsOptions obs_options;
  fault::FaultPlanConfig fault_config;
  core::CampaignRobustness robustness;
  std::size_t restarts = 1;
  std::size_t partitions = 10;
  std::optional<obs::ObsSession> session;
  try {
    jobs = apply_jobs_flag(args);
    obs_options.manifest.jobs = jobs != 0 ? jobs : configured_jobs();
    fault_config = fault::FaultPlanConfig::from_env();
    fault_config.rate = fault::validate_fault_rate(
        args.get_double("fault-rate", fault_config.rate), "--fault-rate");
    robustness.retry = fault::RetryPolicy::from_env();
    robustness.checkpoint_path = args.get("checkpoint", "");
    robustness.checkpoint_every = args.get_int("checkpoint-every", 25);
    robustness.resume = args.get_bool("resume", false);
    restarts = args.get_int("restarts", restarts);
    if (restarts < 1 || restarts > 64) {
      throw invalid_argument_error("--restarts must be in [1, 64], got " +
                                   std::to_string(restarts));
    }
    partitions = args.get_int("partitions", partitions);
    obs_options.bundle_dir = args.get("bundle-out", "");
    obs_options.label = "quickstart";
    obs_options.manifest.program = "quickstart";
    obs_options.manifest.machine_preset = "xeon_e5649";
    obs_options.manifest.fault_rate = fault_config.rate;
    // Let workers retire their open spans before the session writes the
    // trace; see ObsOptions::flush_hook.
    obs_options.flush_hook = [] { global_pool().quiesce(); };
    session.emplace(std::move(obs_options));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return 2;
  }

  // 1. The machine: the paper's 6-core Xeon E5649 preset.
  const sim::MachineConfig machine = sim::xeon_e5649();
  sim::AppMrcLibrary library;
  sim::Simulator testbed(machine, &library);

  const fault::FaultPlan plan(fault_config);
  fault::FaultInjector source(testbed, plan);

  // 2. Applications from the bundled 11-app PARSEC/NAS-style suite.
  const sim::ApplicationSpec canneal = sim::find_application("canneal");
  const sim::ApplicationSpec cg = sim::find_application("cg");

  // 3. Training campaign (Table V sweep) + model training.
  std::printf("collecting training campaign on %s...\n",
              machine.name.c_str());
  core::CampaignConfig campaign_config =
      core::CampaignConfig::paper_defaults();
  campaign_config.jobs = jobs;
  library.profile_all(campaign_config.targets);
  const core::CampaignResult campaign =
      core::run_campaign(source, campaign_config, robustness);
  std::printf("  %zu measurements collected\n", campaign.total_runs);
  std::printf("  campaign %s\n", campaign.completeness.summary().c_str());

  core::ModelZooOptions zoo;
  zoo.mlp.max_iterations = 1200;
  zoo.mlp.restarts = restarts;
  const core::ModelId model_id{core::ModelTechnique::kNeuralNetwork,
                               core::FeatureSet::kF};

  // Optional artifact-store round trip: --zoo-out trains the full
  // twelve-model zoo and persists it as a checksummed bundle; --zoo-in
  // reloads such a bundle (repairing any damaged entry by retraining just
  // that model) and predicts with the reloaded nn-F instead of training.
  const std::string zoo_out = args.get("zoo-out", "");
  const std::string zoo_in = args.get("zoo-in", "");
  const auto provenance = [&] {
    return std::vector<std::pair<std::string, std::string>>{
        {"machine", machine.name},
        {"nn_iters", std::to_string(zoo.mlp.max_iterations)}};
  };

  ml::RegressorPtr reloaded_nn_f;
  if (!zoo_in.empty()) {
    core::ZooLoadOutcome outcome = core::load_or_repair_zoo(
        zoo_in, campaign.dataset, zoo, core::all_model_ids(),
        provenance());
    std::printf("  zoo bundle %s: %s%s\n", zoo_in.c_str(),
                outcome.report.summary().c_str(),
                outcome.repaired ? " (repaired on disk)" : "");
    session->add_manifest_extra("zoo_bundle_digest",
                                outcome.report.bundle_digest);
    reloaded_nn_f = std::move(outcome.zoo.models.at(model_id.name()));
  }
  if (!zoo_out.empty()) {
    const core::TrainedZoo full_zoo =
        core::train_full_zoo(campaign.dataset, zoo);
    const store::ZooSaveResult saved =
        core::save_trained_zoo(zoo_out, full_zoo, provenance());
    std::printf("  zoo bundle saved to %s (12 models, digest %s)\n",
                zoo_out.c_str(), saved.bundle_digest.c_str());
    session->add_manifest_extra("zoo_bundle_digest", saved.bundle_digest);
  }

  const core::ColocationPredictor predictor =
      reloaded_nn_f != nullptr
          ? core::ColocationPredictor::from_model(model_id,
                                                  std::move(reloaded_nn_f))
          : core::ColocationPredictor::train(campaign.dataset, model_id, zoo);

  // 4. Validate with the paper's protocol (a light 10-partition version;
  //    the full experiments use --partitions=100).
  ml::ValidationOptions validation;
  validation.partitions = partitions;
  validation.jobs = jobs;
  const ml::ValidationResult validated = ml::repeated_subsampling_validation(
      campaign.dataset,
      core::feature_set_columns(model_id.feature_set),
      core::make_model_factory(model_id, zoo), validation);
  std::printf("  validation (%zu partitions): test MPE %.2f%%\n",
              validated.partitions, validated.test_mpe);

  // 5. Predict, then validate against a fresh simulated measurement.
  const core::BaselineProfile& target = campaign.baselines.at("canneal");
  const core::BaselineProfile& co = campaign.baselines.at("cg");
  const std::vector<const core::BaselineProfile*> four_cg(4, &co);
  const std::size_t pstate = 0;

  const double predicted_s = predictor.predict_time(target, four_cg, pstate);
  const double predicted_slowdown =
      predictor.predict_slowdown(target, four_cg, pstate);

  const sim::RunMeasurement actual = testbed.run_colocated(
      canneal, std::vector<sim::ApplicationSpec>(4, cg), pstate,
      /*repetition=*/7);

  std::printf("\ncanneal next to 4x cg at %.2f GHz:\n",
              machine.pstates[pstate].frequency_ghz);
  std::printf("  baseline time        : %7.1f s\n", target.time_at(pstate));
  std::printf("  predicted time       : %7.1f s  (slowdown %.2fx)\n",
              predicted_s, predicted_slowdown);
  std::printf("  measured time        : %7.1f s\n", actual.execution_time_s);
  std::printf("  prediction error     : %6.2f %%\n",
              100.0 * (predicted_s - actual.execution_time_s) /
                  actual.execution_time_s);

  // 6. The model's real use case: sweep predicted vs measured slowdown for
  //    canneal against every training co-runner at 1-4 copies. Each
  //    measurement re-requests a configuration the campaign already
  //    solved, so this whole sweep runs off the contention-solve cache.
  std::printf("\npredicted vs measured time, canneal at %.2f GHz:\n",
              machine.pstates[pstate].frequency_ghz);
  for (const sim::ApplicationSpec& coapp : campaign_config.coapps) {
    const core::BaselineProfile& co_profile =
        campaign.baselines.at(coapp.name);
    for (std::size_t count = 1; count <= 4; ++count) {
      const std::vector<const core::BaselineProfile*> profiles(count,
                                                               &co_profile);
      const double pred = predictor.predict_time(target, profiles, pstate);
      const sim::RunMeasurement run = testbed.run_colocated(
          canneal, std::vector<sim::ApplicationSpec>(count, coapp), pstate,
          /*repetition=*/9);
      std::printf("  %-12s x%zu : predicted %7.1f s, measured %7.1f s "
                  "(%+5.1f %%)\n",
                  coapp.name.c_str(), count, pred, run.execution_time_s,
                  100.0 * (pred - run.execution_time_s) /
                      run.execution_time_s);
    }
  }

  // Contention-solve cache effectiveness over the whole run (campaign
  // repetitions + confirmation reads + the sweep above).
  auto& registry = obs::Registry::global();
  const double hits = static_cast<double>(
      registry.counter("sim_solve_cache_hits_total").value());
  const double misses = static_cast<double>(
      registry.counter("sim_solve_cache_misses_total").value());
  if (hits + misses > 0) {
    std::printf("\ncontention-solve cache: %.0f hits / %.0f misses "
                "(%.1f%% hit rate)\n",
                hits, misses, 100.0 * hits / (hits + misses));
  }
  return 0;
}
