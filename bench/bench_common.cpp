#include "bench_common.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault_plan.hpp"

namespace coloc::bench {

namespace {
/// The program's file name, without its directory.
std::string program_name(const CliArgs& args) {
  const std::string& program = args.program();
  const auto slash = program.find_last_of('/');
  return slash == std::string::npos ? program : program.substr(slash + 1);
}
}  // namespace

HarnessConfig HarnessConfig::from_cli(const CliArgs& args) {
  HarnessConfig config;
  config.partitions = args.get_int("partitions", config.partitions);
  config.nn_iterations = args.get_int("nn-iters", config.nn_iterations);
  config.seed = args.get_int("seed", config.seed);
  config.quick = args.get_bool("quick", false);
  config.jobs = apply_jobs_flag(args);
  config.bundle_out = args.get("bundle-out", "");
  config.fault_rate = args.get_double("fault-rate", config.fault_rate);
  if (args.has("fault-rate")) {
    fault::validate_fault_rate(config.fault_rate, "--fault-rate");
  }
  config.checkpoint = args.get("checkpoint", "");
  config.checkpoint_every =
      args.get_int("checkpoint-every", config.checkpoint_every);
  config.resume = args.get_bool("resume", false);
  config.zoo_out = args.get("zoo-out", "");
  config.zoo_in = args.get("zoo-in", "");
  config.sweep_scale = std::max<std::size_t>(
      1, args.get_int("sweep-scale", config.sweep_scale));
  std::stringstream sweep(args.get("jobs-sweep", ""));
  for (std::string token; std::getline(sweep, token, ',');) {
    const std::size_t j = parse_non_negative_integer(token, "--jobs-sweep");
    if (j == 0) {
      throw invalid_argument_error("--jobs-sweep: 0 is not a worker count");
    }
    config.jobs_sweep.push_back(j);
  }
  const std::uint64_t restarts = args.get_int("restarts", config.restarts);
  if (restarts < 1 || restarts > 64) {
    throw coloc::invalid_argument_error(
        "--restarts must be in [1, 64], got " + std::to_string(restarts));
  }
  config.restarts = restarts;
  if (!args.program().empty()) config.program = program_name(args);
  if (config.quick) {
    config.partitions = std::min<std::size_t>(config.partitions, 3);
    config.nn_iterations = std::min<std::size_t>(config.nn_iterations, 200);
  }
  return config;
}

obs::ObsOptions HarnessConfig::run_session() const {
  obs::ObsOptions options;
  options.bundle_dir = bundle_out;
  options.report_resources = true;
  options.label = program;
  options.manifest.program = program;
  options.manifest.seed = seed;
  options.manifest.jobs = jobs != 0 ? jobs : configured_jobs();
  const fault::FaultPlanConfig plan = fault_plan();
  options.manifest.fault_rate = plan.rate;
  options.manifest.extra.emplace_back("partitions",
                                      std::to_string(partitions));
  options.manifest.extra.emplace_back("nn_iters",
                                      std::to_string(nn_iterations));
  options.manifest.extra.emplace_back("quick", quick ? "1" : "0");
  // Recovery provenance: which fault plan (if any) shaped this run.
  // bench_perf_pipeline adds the digest of the zoo bundle it saves through
  // ObsSession::add_manifest_extra.
  options.manifest.extra.emplace_back("fault_seed",
                                      std::to_string(plan.seed));
  if (!zoo_out.empty()) options.manifest.extra.emplace_back("zoo_out", zoo_out);
  if (!zoo_in.empty()) options.manifest.extra.emplace_back("zoo_in", zoo_in);
  // Let workers retire their open spans before the session writes the
  // trace; see ObsOptions::flush_hook.
  options.flush_hook = [] { global_pool().quiesce(); };
  return options;
}

fault::FaultPlanConfig HarnessConfig::fault_plan() const {
  fault::FaultPlanConfig plan = fault::FaultPlanConfig::from_env();
  if (fault_rate >= 0.0) plan.rate = fault_rate;
  return plan;
}

core::CampaignRobustness HarnessConfig::robustness(
    const std::string& machine_name) const {
  core::CampaignRobustness robust;
  robust.retry = fault::RetryPolicy::from_env();
  robust.checkpoint_every = checkpoint_every;
  robust.resume = resume;
  if (!checkpoint.empty()) {
    std::string suffix;
    for (char c : machine_name) {
      suffix.push_back(std::isalnum(static_cast<unsigned char>(c))
                           ? c
                           : '-');
    }
    robust.checkpoint_path = checkpoint + "." + suffix + ".csv";
  }
  return robust;
}

core::EvaluationConfig HarnessConfig::evaluation() const {
  core::EvaluationConfig eval;
  eval.validation.partitions = partitions;
  eval.validation.holdout_fraction = 0.3;  // paper: 30% withheld
  eval.validation.jobs = jobs;
  eval.zoo.mlp.max_iterations = nn_iterations;
  eval.zoo.mlp.weight_decay = 1e-6;
  eval.zoo.mlp.restarts = restarts;
  return eval;
}

MachineExperiment::MachineExperiment(sim::MachineConfig machine,
                                     const HarnessConfig& config)
    : config_(config), machine_(std::move(machine)),
      simulator_(machine_, &library_,
                 sim::MeasurementOptions{.seed = config.seed}),
      plan_(config.fault_plan()), injector_(simulator_, plan_) {
  COLOC_LOG_INFO << "profiling application traces for " << machine_.name;
  core::CampaignConfig campaign_config = core::CampaignConfig::paper_defaults();
  campaign_config.jobs = config_.jobs;
  if (config_.quick) {
    campaign_config.pstate_indices = {0,
                                      machine_.pstates.size() - 1};
  }
  library_.profile_all(campaign_config.targets);
  COLOC_LOG_INFO << "running Table V collection campaign on "
                 << machine_.name;
  if (plan_.enabled()) {
    COLOC_LOG_INFO << "fault injection armed: rate "
                   << plan_.config().rate << ", seed "
                   << plan_.config().seed;
  }
  campaign_ = core::run_campaign(injector_, campaign_config,
                                 config_.robustness(machine_.name));
  COLOC_LOG_INFO << "collected " << campaign_.dataset.num_rows()
                 << " co-location measurements; "
                 << campaign_.completeness.summary();
}

core::EvaluationSuite MachineExperiment::evaluate(
    std::optional<core::ModelId> collect_for) const {
  return core::evaluate_model_zoo(campaign_.dataset, config_.evaluation(),
                                  collect_for);
}

void MachineExperiment::print_figure(const std::string& title,
                                     core::Metric metric) const {
  const core::EvaluationSuite suite = evaluate();
  const auto series = core::build_figure_series(suite, metric);
  std::printf("%s\n", core::render_figure(title, series).c_str());
  std::printf(
      "(averaged over %zu random 70/30 partitions; paper protocol uses "
      "--partitions=100)\n",
      config_.partitions);
}

int run_main(int argc, char** argv, int (*body)(const CliArgs& args)) {
  const CliArgs args(argc, argv);
  try {
    return body(args);
  } catch (const invalid_argument_error& e) {
    std::fprintf(stderr, "%s: %s\n", program_name(args).c_str(), e.what());
    return 2;
  }
}

}  // namespace coloc::bench
