// Quantifies the paper's unquantified generalization claim (Section
// IV-B3): that training on four homogeneous co-runner applications lets
// the model "extend beyond the set of four co-location applications ...
// and make predictions about applications that it has not seen
// previously". Three scenario categories on the 6-core machine:
//   seen-homogeneous    co-runners from the training four (reference)
//   unseen-homogeneous  co-runners from the other seven applications
//   heterogeneous       mixed co-runner groups (never seen in training)
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/generalization.hpp"

namespace {
int run(const coloc::CliArgs& args) {
  using namespace coloc;
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const std::size_t scenarios = args.get_int("scenarios", 150);
  const obs::ObsSession session(config.run_session());

  bench::MachineExperiment experiment(sim::xeon_e5649(), config);
  core::ModelZooOptions zoo = config.evaluation().zoo;

  TextTable table("Generalization beyond the training co-runner set "
                  "(mean |error| %, fresh measurements)");
  table.set_columns({"model", "seen homogeneous", "unseen homogeneous",
                     "heterogeneous mixes"});
  for (core::ModelTechnique technique : core::kAllTechniques) {
    const core::ColocationPredictor predictor =
        core::ColocationPredictor::train(
            experiment.campaign().dataset,
            {technique, core::FeatureSet::kF}, zoo);
    core::GeneralizationOptions options;
    options.scenarios = scenarios;
    options.seed = config.seed ^ 0x51;
    const core::GeneralizationReport report =
        core::evaluate_generalization(
            experiment.simulator(), predictor,
            experiment.campaign().baselines, sim::benchmark_suite(),
            sim::training_coapp_names(), options);
    table.add_row({core::ModelId{technique, core::FeatureSet::kF}.name(),
                   TextTable::num(report.seen_homogeneous_mpe, 2),
                   TextTable::num(report.unseen_homogeneous_mpe, 2),
                   TextTable::num(report.heterogeneous_mpe, 2)});
  }
  table.print(std::cout);
  std::printf(
      "(%zu random scenarios per category; co-runner features are sums of\n"
      "baseline ratios, so generalization tests whether the models learned\n"
      "that additive structure rather than memorizing the sweep)\n",
      scenarios);
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  return coloc::bench::run_main(argc, argv, run);
}
