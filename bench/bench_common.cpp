#include "bench_common.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "fault/storage_fault.hpp"

namespace coloc::bench {

HarnessConfig HarnessConfig::from_cli(const CliArgs& args) {
  HarnessConfig config;
  config.partitions = static_cast<std::size_t>(
      args.get_int("partitions", static_cast<std::int64_t>(config.partitions)));
  config.nn_iterations = static_cast<std::size_t>(args.get_int(
      "nn-iters", static_cast<std::int64_t>(config.nn_iterations)));
  config.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(config.seed)));
  config.quick = args.get_bool("quick", false);
  config.jobs = static_cast<std::size_t>(args.get_int("jobs", 0));
  if (config.jobs != 0) set_configured_jobs(config.jobs);
  config.metrics_out = args.get("metrics-out", "");
  config.trace_out = args.get("trace-out", "");
  config.bundle_out = args.get("bundle-out", "");
  config.fault_rate = args.get_double("fault-rate", config.fault_rate);
  if (args.has("fault-rate")) {
    fault::validate_fault_rate(config.fault_rate, "--fault-rate");
  }
  config.fault_kinds = args.get("fault-kinds", "");
  if (!config.fault_kinds.empty()) {
    fault::parse_fault_kinds(config.fault_kinds);  // reject bad tokens early
  }
  config.checkpoint = args.get("checkpoint", "");
  config.checkpoint_every = static_cast<std::size_t>(args.get_int(
      "checkpoint-every", static_cast<std::int64_t>(config.checkpoint_every)));
  config.resume = args.get_bool("resume", false);
  config.zoo_out = args.get("zoo-out", "");
  config.zoo_in = args.get("zoo-in", "");
  config.sweep_scale = static_cast<std::size_t>(std::max<std::int64_t>(
      1, args.get_int("sweep-scale",
                      static_cast<std::int64_t>(config.sweep_scale))));
  config.jobs_sweep = args.get("jobs-sweep", "");
  const std::int64_t restarts = args.get_int(
      "restarts", static_cast<std::int64_t>(config.restarts));
  if (restarts < 1 || restarts > 64) {
    throw coloc::invalid_argument_error(
        "--restarts must be in [1, 64], got " + std::to_string(restarts));
  }
  config.restarts = static_cast<std::size_t>(restarts);
  config.sequential_restarts = args.get_bool("no-parallel-restarts", false);
  if (!args.program().empty()) {
    const std::string& program = args.program();
    const auto slash = program.find_last_of('/');
    config.program =
        slash == std::string::npos ? program : program.substr(slash + 1);
  }
  if (config.quick) {
    config.partitions = std::min<std::size_t>(config.partitions, 3);
    config.nn_iterations = std::min<std::size_t>(config.nn_iterations, 200);
  }
  return config;
}

obs::ObsOptions HarnessConfig::run_session() const {
  obs::ObsOptions options;
  options.metrics_out = metrics_out;
  options.trace_out = trace_out;
  if (!bundle_out.empty()) {
    // A bundle is the self-describing trio obs_report consumes; it takes
    // precedence over the individual output flags.
    std::error_code ec;
    std::filesystem::create_directories(bundle_out, ec);
    if (ec) {
      std::fprintf(stderr, "[bench] cannot create bundle dir %s: %s\n",
                   bundle_out.c_str(), ec.message().c_str());
    }
    options.metrics_out = bundle_out + "/metrics.json";
    options.trace_out = bundle_out + "/trace.json";
    options.manifest_out = bundle_out + "/manifest.json";
  }
  options.report_resources = true;
  options.label = program;
  options.manifest.program = program;
  options.manifest.seed = seed;
  options.manifest.jobs = jobs != 0 ? jobs : configured_jobs();
  options.manifest.fault_rate = fault_rate >= 0.0 ? fault_rate : 0.0;
  options.manifest.extra.emplace_back("partitions",
                                      std::to_string(partitions));
  options.manifest.extra.emplace_back("nn_iters",
                                      std::to_string(nn_iterations));
  options.manifest.extra.emplace_back("quick", quick ? "1" : "0");
  // Recovery provenance: which fault plan (if any) shaped this run. The
  // zoo bundle digest joins these via obs::add_manifest_extra when a
  // bundle is saved or loaded.
  options.manifest.extra.emplace_back("fault_seed",
                                      std::to_string(fault_plan().seed));
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
  if (!fault_kinds.empty()) plan.kinds = fault::parse_fault_kinds(fault_kinds);
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
  if (sequential_restarts) eval.zoo.mlp.fused_restarts = false;
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

}  // namespace coloc::bench
