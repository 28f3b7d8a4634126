// Performance-trajectory harness for the paper pipeline's orchestration:
// the Table V collection campaign, the 12-model evaluation zoo, the zoo's
// store bundle and the paper's set-F MLP validation.
//
//   campaign     serial against task-parallel (--jobs / COLOC_JOBS
//                workers); --jobs-sweep=1,2,4,8 re-runs it at each listed
//                jobs value and emits a "jobs_scaling" curve
//   zoo race     the zoo with validation on one worker against the flat
//                model x partition task graph on --jobs workers, both at
//                max(--restarts, 4) SCG restarts per MLP fit through the
//                one fused trainer, so zoo_speedup measures the scheduler
//   warm start   training the full zoo cold against saving it to a
//                checksummed store bundle (--zoo-out, default
//                BENCH_zoo_bundle) and loading it back (--zoo-in
//                overrides the load path); the manifest extra
//                zoo_bundle_digest pins the trained bytes
//   validation   set F over --partitions partitions through
//                MlpRegressor::fit, the stage wall `obs_report A B` diffs
//
// Writes a machine-readable BENCH_pipeline.json (override with --out=FILE)
// recording the stage timings, the speedups, the solve-cache,
// profile-memo and training counters, and the bit-identity gates. The
// exit status reflects ONLY the gates — never timing — so CI can run this
// on noisy shared runners without flaking:
//   gate campaign_parallel_bit_identical  parallel campaign == serial sweep
//   gate jobs_sweep_bit_identical         every --jobs-sweep point ==
//                                         serial sweep (with --jobs-sweep)
//   gate zoo_parallel_bit_identical       zoo on the flat task graph ==
//                                         the same zoo on one worker
//   gate zoo_warm_start_bit_identical     zoo reloaded from the store
//                                         bundle == freshly trained zoo
// The kernels' own oracles (batched trace, profiler, cache walk, solve
// cache) and the fused trainer against a std::tanh reference are ctest
// cases; DESIGN.md §9 lists where each one lives.
//
// Scale knobs: --sweep-scale=N clones every campaign target N-fold, pushing
// the sweep to 10-100x the paper's cell count; --restarts=N raises the
// restart count everywhere (the zoo race floor stays 4). On a single-core
// host both arms of each race time about the same, by design — the gates
// still verify the orchestration is byte-equivalent.
//
// Run the headline number (Release build):
//   ./build/bench/bench_perf_pipeline --partitions=100 --jobs=0
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/thread_pool.hpp"
#include "core/zoo_artifacts.hpp"
#include "linalg/matrix.hpp"
#include "ml/dataset.hpp"
#include "ml/mlp.hpp"
#include "ml/serialization.hpp"
#include "ml/validation.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace coloc;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One bit-identity check.
struct Gate {
  const char* name;
  bool pass = false;
};

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Row-for-row, bit-for-bit dataset comparison (targets, tags, features).
bool datasets_bit_identical(const ml::Dataset& a, const ml::Dataset& b) {
  if (a.num_rows() != b.num_rows()) return false;
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    if (!bitwise_equal(a.target(r), b.target(r)) || a.tag(r) != b.tag(r)) {
      return false;
    }
    const auto fa = a.features(r);
    const auto fb = b.features(r);
    if (fa.size() != fb.size()) return false;
    for (std::size_t c = 0; c < fa.size(); ++c) {
      if (!bitwise_equal(fa[c], fb[c])) return false;
    }
  }
  return true;
}

int run(const coloc::CliArgs& args) {
  using namespace coloc;
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  obs::ObsSession session(config.run_session());
  const std::string out_path = args.get("out", "BENCH_pipeline.json");

  // --- Stage 1: collection campaign (Table V sweep on the 6-core Xeon),
  // serial vs. task-parallel. Each arm gets a fresh simulator so neither
  // benefits from the other's contention-solve cache; the sequenced
  // collector guarantees the two datasets are byte-identical.
  const std::size_t jobs = config.jobs != 0 ? config.jobs : configured_jobs();
  const sim::MachineConfig machine = sim::xeon_e5649();
  core::CampaignConfig campaign_config = core::CampaignConfig::paper_defaults();
  if (config.quick)
    campaign_config.pstate_indices = {0, machine.pstates.size() - 1};

  // --sweep-scale=N: clone every target N-1 times under derived names.
  // Clones share their donor's trace shape, so the sweep grows N-fold in
  // cells while the profile memo keeps cross-arm MRC work deduplicated.
  if (config.sweep_scale > 1) {
    const std::vector<sim::ApplicationSpec> originals = campaign_config.targets;
    for (std::size_t k = 2; k <= config.sweep_scale; ++k) {
      for (const sim::ApplicationSpec& app : originals) {
        sim::ApplicationSpec clone = app;
        clone.name = app.name + "~" + std::to_string(k);
        clone.trace.name = clone.name;
        campaign_config.targets.push_back(std::move(clone));
      }
    }
    std::printf("sweep scale          : %8zu x  (%zu target apps)\n",
                config.sweep_scale, campaign_config.targets.size());
  }

  sim::MeasurementOptions measurement;
  measurement.seed = config.seed;

  campaign_config.jobs = 1;
  sim::AppMrcLibrary serial_library;
  sim::Simulator serial_testbed(machine, &serial_library, measurement);
  serial_library.profile_all(campaign_config.targets);
  auto t0 = std::chrono::steady_clock::now();
  const core::CampaignResult campaign_serial =
      core::run_campaign(serial_testbed, campaign_config);
  const double campaign_serial_s = seconds_since(t0);
  std::printf("campaign (serial)    : %8.3f s  (%zu rows)\n",
              campaign_serial_s, campaign_serial.dataset.num_rows());

  campaign_config.jobs = jobs;
  sim::AppMrcLibrary library;
  sim::Simulator testbed(machine, &library, measurement);
  library.profile_all(campaign_config.targets);
  t0 = std::chrono::steady_clock::now();
  const core::CampaignResult campaign =
      core::run_campaign(testbed, campaign_config);
  const double campaign_s = seconds_since(t0);
  const double campaign_speedup =
      campaign_s > 0.0 ? campaign_serial_s / campaign_s : 0.0;
  std::printf("campaign (jobs=%zu)   : %8.3f s  (%.2fx vs serial)\n", jobs,
              campaign_s, campaign_speedup);

  const bool campaign_identical =
      datasets_bit_identical(campaign.dataset, campaign_serial.dataset);

  // --- Stage 1a: jobs-scaling curve (--jobs-sweep=1,2,4,8). Each point
  // re-runs the (scaled) campaign at that jobs value; the profile memo
  // keeps the MRC work warm across points so the curve isolates
  // orchestration. Every point must reproduce the serial dataset
  // bit-for-bit. Each point is the minimum of three runs (fresh simulator
  // each, so no solve-cache carry-over): a paper-scale campaign is tens of
  // milliseconds, where one-shot walls are dominated by thread-spawn and
  // scheduler jitter. Speedups are quoted against the jobs=1 sweep point
  // when the list includes it (the same min-of-3 protocol on both sides),
  // falling back to the one-shot serial arm above.
  struct JobsScalingPoint {
    std::size_t jobs = 0;
    double wall_s = 0.0;
    double speedup_vs_serial = 0.0;
    bool bit_identical = true;
  };
  std::vector<JobsScalingPoint> jobs_scaling;
  bool jobs_sweep_identical = true;
  for (const std::size_t j : config.jobs_sweep) {
    campaign_config.jobs = j;
    JobsScalingPoint point;
    point.jobs = j;
    point.wall_s = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      sim::AppMrcLibrary sweep_library;
      sim::Simulator sweep_testbed(machine, &sweep_library, measurement);
      sweep_library.profile_all(campaign_config.targets);
      t0 = std::chrono::steady_clock::now();
      const core::CampaignResult sweep_run =
          core::run_campaign(sweep_testbed, campaign_config);
      const double wall = seconds_since(t0);
      if (rep == 0 || wall < point.wall_s) point.wall_s = wall;
      if (rep == 0) {
        point.bit_identical = datasets_bit_identical(sweep_run.dataset,
                                                     campaign_serial.dataset);
      }
    }
    jobs_sweep_identical = jobs_sweep_identical && point.bit_identical;
    jobs_scaling.push_back(point);
  }
  const auto serial_point =
      std::find_if(jobs_scaling.begin(), jobs_scaling.end(),
                   [](const JobsScalingPoint& p) { return p.jobs == 1; });
  const double sweep_baseline_s =
      serial_point != jobs_scaling.end() ? serial_point->wall_s
                                         : campaign_serial_s;
  for (JobsScalingPoint& point : jobs_scaling) {
    point.speedup_vs_serial =
        point.wall_s > 0.0 ? sweep_baseline_s / point.wall_s : 0.0;
    std::printf("campaign (jobs=%zu sweep): %6.3f s  (%.2fx vs serial, %s)\n",
                point.jobs, point.wall_s, point.speedup_vs_serial,
                point.bit_identical ? "bit-identical" : "DIVERGED");
  }

  // --- Stage 2: the 12-model evaluation zoo, serial vs. flattened batch
  // across the pool. Reduced partition/iteration counts keep the stage
  // proportionate; the bit-identity gate is what matters on slow runners.
  // The race runs at >= 4 SCG restarts per MLP fit so every fit stacks
  // several restart planes in the fused trainer; the serial arm schedules
  // validation on one worker, the parallel arm on the flat task graph.
  // zoo_config itself stays untouched for Stage 3 so the bundle digest is
  // comparable across runs at default --restarts.
  core::EvaluationConfig zoo_config = config.evaluation();
  zoo_config.validation.partitions = std::min<std::size_t>(config.partitions,
                                                           10);
  zoo_config.zoo.mlp.max_iterations =
      std::min<std::size_t>(config.nn_iterations, 300);
  const std::size_t zoo_race_restarts =
      std::max<std::size_t>(config.restarts, 4);

  core::EvaluationConfig zoo_serial_config = zoo_config;
  zoo_serial_config.zoo.mlp.restarts = zoo_race_restarts;
  zoo_serial_config.validation.jobs = 1;
  t0 = std::chrono::steady_clock::now();
  const core::EvaluationSuite zoo_serial =
      core::evaluate_model_zoo(campaign.dataset, zoo_serial_config);
  const double zoo_serial_s = seconds_since(t0);
  std::printf("model zoo (serial)   : %8.3f s  (12 models, %zu partitions, "
              "%zu restarts)\n",
              zoo_serial_s, zoo_config.validation.partitions,
              zoo_race_restarts);

  core::EvaluationConfig zoo_parallel_config = zoo_config;
  zoo_parallel_config.zoo.mlp.restarts = zoo_race_restarts;
  zoo_parallel_config.validation.jobs = jobs;
  t0 = std::chrono::steady_clock::now();
  const core::EvaluationSuite zoo_parallel =
      core::evaluate_model_zoo(campaign.dataset, zoo_parallel_config);
  const double zoo_parallel_s = seconds_since(t0);
  const double zoo_speedup =
      zoo_parallel_s > 0.0 ? zoo_serial_s / zoo_parallel_s : 0.0;
  std::printf("model zoo (jobs=%zu fused): %8.3f s  (%.2fx vs serial)\n",
              jobs, zoo_parallel_s, zoo_speedup);

  bool zoo_identical =
      zoo_serial.evaluations.size() == zoo_parallel.evaluations.size();
  for (std::size_t i = 0; zoo_identical && i < zoo_serial.evaluations.size();
       ++i) {
    const auto& a = zoo_serial.evaluations[i].result;
    const auto& b = zoo_parallel.evaluations[i].result;
    zoo_identical = bitwise_equal(a.test_mpe, b.test_mpe) &&
                    bitwise_equal(a.train_mpe, b.train_mpe) &&
                    bitwise_equal(a.test_nrmse, b.test_nrmse) &&
                    bitwise_equal(a.train_nrmse, b.train_nrmse);
  }

  // --- Stage 3: warm start from the artifact store. Train the full
  // twelve-model zoo once (cold), persist it as a checksummed bundle,
  // reload it, and require the reloaded models to serialize
  // byte-identically to the trained ones. The interesting number is the
  // warm-start speedup: what a deployment saves by shipping the bundle
  // instead of retraining at boot.
  const std::string zoo_bundle_dir =
      !config.zoo_out.empty() ? config.zoo_out : std::string("BENCH_zoo_bundle");
  const std::string zoo_load_dir =
      !config.zoo_in.empty() ? config.zoo_in : zoo_bundle_dir;
  t0 = std::chrono::steady_clock::now();
  const core::TrainedZoo zoo_cold =
      core::train_full_zoo(campaign.dataset, zoo_config.zoo);
  const double zoo_cold_s = seconds_since(t0);

  const store::ZooSaveResult saved = core::save_trained_zoo(
      zoo_bundle_dir, zoo_cold,
      {{"seed", std::to_string(config.seed)},
       {"machine", machine.name},
       {"nn_iters", std::to_string(zoo_config.zoo.mlp.max_iterations)}});
  session.add_manifest_extra("zoo_bundle_digest", saved.bundle_digest);

  t0 = std::chrono::steady_clock::now();
  const core::ZooLoadOutcome warm = core::load_or_repair_zoo(
      zoo_load_dir, campaign.dataset, zoo_config.zoo);
  const double zoo_warm_s = seconds_since(t0);
  const double warm_speedup = zoo_warm_s > 0.0 ? zoo_cold_s / zoo_warm_s : 0.0;
  std::printf("zoo train (cold)     : %8.3f s  (12 models)\n", zoo_cold_s);
  std::printf("zoo load (warm)      : %8.3f s  (%.2fx vs cold; %zu "
              "retrained)\n",
              zoo_warm_s, warm_speedup, warm.retrained.size());

  bool zoo_warm_identical = warm.retrained.empty();
  for (const auto& [name, cold_model] : zoo_cold.models) {
    if (!zoo_warm_identical) break;
    const ml::Regressor* warm_model = warm.zoo.find(name);
    if (warm_model == nullptr) {
      zoo_warm_identical = false;
      break;
    }
    std::ostringstream cold_bytes, warm_bytes;
    ml::save_model(cold_bytes, *cold_model);
    ml::save_model(warm_bytes, *warm_model);
    zoo_warm_identical = cold_bytes.str() == warm_bytes.str();
  }

  // --- Stage 4: the paper's set-F MLP validation through the one trainer.
  ml::MlpOptions mlp = config.evaluation().zoo.mlp;
  mlp.hidden_units = core::hidden_units_for(core::FeatureSet::kF);
  ml::ValidationOptions validation;
  validation.partitions = config.partitions;
  const ml::ModelFactory factory =
      [&mlp](const linalg::Matrix& x,
             std::span<const double> y) -> ml::RegressorPtr {
    return std::make_unique<ml::MlpRegressor>(ml::MlpRegressor::fit(x, y, mlp));
  };
  t0 = std::chrono::steady_clock::now();
  const ml::ValidationResult set_f = ml::repeated_subsampling_validation(
      campaign.dataset, core::feature_set_columns(core::FeatureSet::kF),
      factory, validation);
  const double validation_s = seconds_since(t0);
  std::printf("validation (set F)   : %8.3f s  (%zu partitions, MPE %.3f%%, "
              "NRMSE %.3f)\n",
              validation_s, validation.partitions, set_f.test_mpe,
              set_f.test_nrmse);

  // --- Bit-identity gates: the task-parallel orchestration layers must be
  // byte-equivalent to their serial counterparts, and the store round
  // trip must hand back the trained zoo (nothing retrained).
  std::vector<Gate> gates = {
      {"campaign_parallel_bit_identical", campaign_identical},
      {"zoo_parallel_bit_identical", zoo_identical},
      {"zoo_warm_start_bit_identical", zoo_warm_identical}};
  if (!jobs_scaling.empty()) {
    gates.push_back({"jobs_sweep_bit_identical", jobs_sweep_identical});
  }
  bool all_pass = true;
  std::printf("\nbit-identity gates:\n");
  for (const Gate& g : gates) {
    all_pass = all_pass && g.pass;
    std::printf("  %-40s %s\n", g.name, g.pass ? "PASS" : "FAIL");
  }

  auto& registry = obs::Registry::global();
  const std::uint64_t hits =
      registry.counter("sim_solve_cache_hits_total").value();
  const std::uint64_t misses =
      registry.counter("sim_solve_cache_misses_total").value();
  const double hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  // Each miss runs one solve; these stopped at the iteration cap.
  const std::uint64_t unconverged =
      registry.counter("sim_contention_unconverged_total").value();
  std::printf("solve cache          : %llu hits / %llu misses (%.1f%%), "
              "%llu solves unconverged\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses), 100.0 * hit_rate,
              static_cast<unsigned long long>(unconverged));
  const std::uint64_t memo_hits =
      registry.counter("sim_profile_memo_hits_total").value();
  const std::uint64_t memo_misses =
      registry.counter("sim_profile_memo_misses_total").value();
  std::printf("profile memo         : %llu hits / %llu misses\n",
              static_cast<unsigned long long>(memo_hits),
              static_cast<unsigned long long>(memo_misses));
  const std::uint64_t batched_restarts =
      registry.counter("scg_fused_restarts_total").value();
  const obs::Histogram& train_gemm = registry.histogram("train_gemm_seconds");
  const std::uint64_t design_hits =
      registry.counter("validation_design_memo_hits_total").value();
  const std::uint64_t design_misses =
      registry.counter("validation_design_memo_misses_total").value();
  std::printf("fused trainer        : %llu fused restarts, %.3f s in batched "
              "GEMM (%llu calls)\n",
              static_cast<unsigned long long>(batched_restarts),
              train_gemm.sum(),
              static_cast<unsigned long long>(train_gemm.count()));
  std::printf("design memo          : %llu hits / %llu misses\n",
              static_cast<unsigned long long>(design_hits),
              static_cast<unsigned long long>(design_misses));

  std::ofstream os(out_path, std::ios::trunc);
  if (os) {
    os.precision(17);
    os << "{\n"
       << "  \"program\": \"bench_perf_pipeline\",\n"
       << "  \"partitions\": " << validation.partitions << ",\n"
       << "  \"nn_iterations\": " << mlp.max_iterations << ",\n"
       << "  \"seed\": " << config.seed << ",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"sweep_scale\": " << config.sweep_scale << ",\n"
       << "  \"restarts\": " << config.restarts << ",\n"
       << "  \"zoo_race_restarts\": " << zoo_race_restarts << ",\n"
       << "  \"timings_s\": {\n"
       << "    \"campaign_serial\": " << campaign_serial_s << ",\n"
       << "    \"campaign_parallel\": " << campaign_s << ",\n"
       << "    \"zoo_serial\": " << zoo_serial_s << ",\n"
       << "    \"zoo_parallel\": " << zoo_parallel_s << ",\n"
       << "    \"zoo_train_cold\": " << zoo_cold_s << ",\n"
       << "    \"zoo_load_warm\": " << zoo_warm_s << ",\n"
       << "    \"validation\": " << validation_s << "\n  },\n"
       << "  \"campaign_speedup\": " << campaign_speedup << ",\n";
    os << "  \"jobs_scaling\": [\n";
    for (std::size_t i = 0; i < jobs_scaling.size(); ++i) {
      const JobsScalingPoint& p = jobs_scaling[i];
      os << "    {\"jobs\": " << p.jobs << ", \"wall_s\": " << p.wall_s
         << ", \"speedup_vs_serial\": " << p.speedup_vs_serial
         << ", \"bit_identical\": " << (p.bit_identical ? "true" : "false")
         << "}" << (i + 1 == jobs_scaling.size() ? "\n" : ",\n");
    }
    os << "  ],\n"
       << "  \"zoo_speedup\": " << zoo_speedup << ",\n"
       << "  \"zoo_warm_start_speedup\": " << warm_speedup << ",\n"
       << "  \"zoo_bundle_digest\": \"" << saved.bundle_digest << "\",\n"
       << "  \"zoo_models_retrained\": " << warm.retrained.size() << ",\n"
       << "  \"validation\": {\"test_mpe\": " << set_f.test_mpe
       << ", \"test_nrmse\": " << set_f.test_nrmse << "},\n"
       << "  \"solve_cache\": {\"hits\": " << hits << ", \"misses\": "
       << misses << ", \"hit_rate\": " << hit_rate
       << ", \"unconverged\": " << unconverged
       << "},\n"
       << "  \"profile_memo\": {\"hits\": " << memo_hits << ", \"misses\": "
       << memo_misses << "},\n"
       << "  \"training\": {\"scg_fused_restarts_total\": " << batched_restarts
       << ", \"train_gemm_seconds_sum\": " << train_gemm.sum()
       << ", \"train_gemm_seconds_count\": " << train_gemm.count()
       << ", \"design_memo_hits\": " << design_hits
       << ", \"design_memo_misses\": " << design_misses << "},\n"
       << "  \"equivalence\": [\n";
    for (std::size_t i = 0; i < gates.size(); ++i) {
      os << "    {\"name\": \"" << gates[i].name << "\", \"pass\": "
         << (gates[i].pass ? "true" : "false") << "}"
         << (i + 1 == gates.size() ? "\n" : ",\n");
    }
    os << "  ],\n"
       << "  \"equivalence_ok\": " << (all_pass ? "true" : "false") << "\n"
       << "}\n";
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", out_path.c_str());
  }

  return all_pass ? 0 : 1;
}
}  // namespace

int main(int argc, char** argv) {
  return coloc::bench::run_main(argc, argv, run);
}
