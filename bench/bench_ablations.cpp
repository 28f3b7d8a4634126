// Ablation studies for the design choices called out in DESIGN.md §5:
//   1. shared-LLC occupancy fixed point vs static equal partition
//   2. DRAM queueing vs constant memory latency
//   3. measurement-noise sweep (how noise floors model accuracy)
//   4. NN hidden-width sweep around the paper's 10-20 range
//   5. uniform structured training sweep vs random subsampling of the
//      co-location space (the paper argues uniform coverage travels better)
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "ml/metrics.hpp"

using namespace coloc;

namespace {

// Contention-mechanism ablations: how much of canneal's degradation under
// 5x cg comes from capacity sharing vs queueing.
void contention_ablation(const bench::HarnessConfig& config) {
  sim::AppMrcLibrary library;
  const auto apps = sim::benchmark_suite();
  library.profile_all(apps);

  TextTable table("Ablation: contention mechanisms (canneal + 5x cg, "
                  "6-core Xeon E5649, P0)");
  table.set_columns({"model variant", "normalized exec time"});
  const sim::ApplicationSpec canneal = sim::find_application("canneal");
  const sim::ApplicationSpec cg = sim::find_application("cg");

  struct Variant {
    const char* name;
    sim::ContentionOptions options;
  };
  sim::ContentionOptions base;
  sim::ContentionOptions static_part = base;
  static_part.static_equal_partition = true;
  sim::ContentionOptions no_queue = base;
  no_queue.disable_queueing = true;
  sim::ContentionOptions neither = static_part;
  neither.disable_queueing = true;
  const Variant variants[] = {
      {"full model (occupancy + queueing)", base},
      {"static equal LLC partition", static_part},
      {"no DRAM queueing", no_queue},
      {"neither mechanism", neither},
  };
  for (const auto& variant : variants) {
    sim::MeasurementOptions options;
    options.seed = config.seed;
    options.time_noise_sigma = 0.0;
    options.counter_noise_sigma = 0.0;
    options.contention = variant.options;
    sim::Simulator simulator(sim::xeon_e5649(), &library, options);
    const double alone =
        simulator.run_alone(canneal, 0).true_execution_time_s;
    const std::vector<sim::ApplicationSpec> coapps(5, cg);
    const double crowded =
        simulator.run_colocated(canneal, coapps, 0).true_execution_time_s;
    table.add_row({variant.name, TextTable::num(crowded / alone, 3)});
  }
  table.print(std::cout);
}

// How measurement noise floors the best model's achievable accuracy.
void noise_ablation(const bench::HarnessConfig& config) {
  TextTable table("Ablation: measurement-noise sweep (NN-F test MPE, "
                  "6-core)");
  table.set_columns({"time noise sigma", "NN-F test MPE (%)"});
  sim::AppMrcLibrary library;
  core::CampaignConfig campaign_config =
      core::CampaignConfig::paper_defaults();
  library.profile_all(campaign_config.targets);
  for (double sigma : {0.0, 0.005, 0.01, 0.03}) {
    sim::MeasurementOptions options;
    options.seed = config.seed;
    options.time_noise_sigma = sigma;
    sim::Simulator simulator(sim::xeon_e5649(), &library, options);
    const core::CampaignResult campaign =
        core::run_campaign(simulator, campaign_config);
    core::EvaluationConfig eval = config.evaluation();
    eval.validation.partitions = std::max<std::size_t>(
        4, config.partitions / 2);
    const auto factory = core::make_model_factory(
        {core::ModelTechnique::kNeuralNetwork, core::FeatureSet::kF},
        eval.zoo, 11);
    const ml::ValidationResult r = ml::repeated_subsampling_validation(
        campaign.dataset,
        core::feature_set_columns(core::FeatureSet::kF), factory,
        eval.validation);
    table.add_row({TextTable::num(sigma, 3), TextTable::num(r.test_mpe, 2)});
  }
  table.print(std::cout);
}

// Hidden-width sweep around the paper's 10-20 node rule.
void hidden_width_ablation(const bench::HarnessConfig& config,
                           const core::CampaignResult& campaign) {
  TextTable table("Ablation: NN hidden-width sweep (set F, 6-core)");
  table.set_columns({"hidden units", "test MPE (%)", "test NRMSE (%)"});
  for (std::size_t hidden : {4u, 10u, 20u, 40u}) {
    core::EvaluationConfig eval = config.evaluation();
    eval.validation.partitions =
        std::max<std::size_t>(4, config.partitions / 2);
    eval.zoo.fixed_hidden_units = true;
    eval.zoo.mlp.hidden_units = hidden;
    const auto factory = core::make_model_factory(
        {core::ModelTechnique::kNeuralNetwork, core::FeatureSet::kF},
        eval.zoo, hidden);
    const ml::ValidationResult r = ml::repeated_subsampling_validation(
        campaign.dataset,
        core::feature_set_columns(core::FeatureSet::kF), factory,
        eval.validation);
    table.add_row({TextTable::num(hidden), TextTable::num(r.test_mpe, 2),
                   TextTable::num(r.test_nrmse, 2)});
  }
  table.print(std::cout);
}

// Training-set size: uniform structured sweep vs random subsets of it.
// The uniform sweep is the paper's design point; random subsampling of the
// same budget loses coverage of the co-location space.
void sampling_ablation(const bench::HarnessConfig& config,
                       const core::CampaignResult& campaign) {
  TextTable table(
      "Ablation: structured-uniform vs random training coverage (NN-F, "
      "6-core)");
  table.set_columns({"training rows", "strategy", "test MPE (%)"});
  const auto& columns = core::feature_set_columns(core::FeatureSet::kF);
  core::EvaluationConfig eval = config.evaluation();
  const auto factory = core::make_model_factory(
      {core::ModelTechnique::kNeuralNetwork, core::FeatureSet::kF},
      eval.zoo, 17);

  const std::size_t n = campaign.dataset.num_rows();
  Rng rng(config.seed);
  for (double fraction : {0.25, 0.5, 1.0}) {
    const std::size_t k = static_cast<std::size_t>(
        fraction * static_cast<double>(n));
    for (const bool structured : {true, false}) {
      // Structured: every ceil(1/fraction)-th row of the sweep (keeps the
      // uniform cover). Random: k rows drawn at random.
      std::vector<std::size_t> rows;
      if (structured) {
        const double step = static_cast<double>(n) / static_cast<double>(k);
        for (double pos = 0.0; pos < static_cast<double>(n); pos += step)
          rows.push_back(static_cast<std::size_t>(pos));
      } else {
        rows = rng.sample_without_replacement(n, k);
      }
      const ml::Dataset subset = campaign.dataset.subset(rows);
      ml::ValidationOptions validation = eval.validation;
      validation.partitions =
          std::max<std::size_t>(4, config.partitions / 2);
      const ml::ValidationResult r = ml::repeated_subsampling_validation(
          subset, columns, factory, validation);
      table.add_row({TextTable::num(rows.size()),
                     structured ? "structured-uniform" : "random",
                     TextTable::num(r.test_mpe, 2)});
    }
  }
  table.print(std::cout);
}

int run(const coloc::CliArgs& args) {
  bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const obs::ObsSession session(config.run_session());

  contention_ablation(config);

  bench::MachineExperiment experiment(sim::xeon_e5649(), config);
  hidden_width_ablation(config, experiment.campaign());
  sampling_ablation(config, experiment.campaign());
  noise_ablation(config);
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  return coloc::bench::run_main(argc, argv, run);
}
