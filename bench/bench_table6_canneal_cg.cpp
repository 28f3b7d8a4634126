// Regenerates Table VI: canneal's performance degradation from increasing
// numbers of co-located cg instances on the 12-core Xeon E5-2697 v2, with
// the per-row prediction error (MPE) of the linear-F and NN-F models.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

namespace {
int run(const coloc::CliArgs& args) {
  using namespace coloc;
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const obs::ObsSession session(config.run_session());

  bench::MachineExperiment experiment(sim::xeon_e5_2697v2(), config);
  const core::CampaignResult& campaign = experiment.campaign();

  // Train the two full-featured models on the campaign data.
  core::ModelZooOptions zoo = config.evaluation().zoo;
  const core::ColocationPredictor linear_f = core::ColocationPredictor::train(
      campaign.dataset, {core::ModelTechnique::kLinear, core::FeatureSet::kF},
      zoo);
  const core::ColocationPredictor nn_f = core::ColocationPredictor::train(
      campaign.dataset,
      {core::ModelTechnique::kNeuralNetwork, core::FeatureSet::kF}, zoo);

  const sim::ApplicationSpec canneal = sim::find_application("canneal");
  const sim::ApplicationSpec cg = sim::find_application("cg");
  const core::BaselineProfile& canneal_base =
      campaign.baselines.at("canneal");
  const core::BaselineProfile& cg_base = campaign.baselines.at("cg");

  const std::size_t pstate = 0;  // highest frequency
  const double baseline_s = canneal_base.time_at(pstate);
  std::printf("canneal baseline execution time at P0: %.0f s\n\n",
              baseline_s);

  TextTable table(
      "Table VI: canneal co-located with cg on the 12-core Xeon E5-2697 v2");
  table.set_columns({"num. co-located cg", "exec time (s)",
                     "normalized exec time", "linear-F MPE (%)",
                     "nn-F MPE (%)"});
  for (std::size_t n = 1; n < experiment.machine().cores; ++n) {
    const std::vector<sim::ApplicationSpec> coapps(n, cg);
    const sim::RunMeasurement m =
        experiment.simulator().run_colocated(canneal, coapps, pstate,
                                             /*repetition=*/1);
    const std::vector<const core::BaselineProfile*> co_profiles(n, &cg_base);
    const double pred_linear =
        linear_f.predict_time(canneal_base, co_profiles, pstate);
    const double pred_nn = nn_f.predict_time(canneal_base, co_profiles,
                                             pstate);
    auto mpe = [&m](double pred) {
      return 100.0 * std::abs(pred - m.execution_time_s) /
             m.execution_time_s;
    };
    table.add_row({TextTable::num(n), TextTable::num(m.execution_time_s, 0),
                   TextTable::num(m.execution_time_s / baseline_s, 2),
                   TextTable::num(mpe(pred_linear), 2),
                   TextTable::num(mpe(pred_nn), 2)});
  }
  table.print(std::cout);
  std::printf(
      "Expected shape (paper): monotone growth in normalized time with\n"
      "co-runner count (paper reaches 1.33x at 11 co-runners), with the\n"
      "NN-F rows far more accurate than linear-F.\n");
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  return coloc::bench::run_main(argc, argv, run);
}
