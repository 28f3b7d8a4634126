// Regenerates Figure 5 on the 6-core Xeon E5649:
//   (a) per-application execution-time distributions across all measured
//       co-location scenarios, and
//   (b) per-application signed percent-error distributions of the most
//       accurate model (NN with feature set F) on held-out data —
//       median, quartiles, and the share of predictions within ±2% / ±5%.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

namespace {
int run(const coloc::CliArgs& args) {
  using namespace coloc;
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const obs::ObsSession session(config.run_session());

  bench::MachineExperiment experiment(sim::xeon_e5649(), config);
  const core::ModelId nn_f{core::ModelTechnique::kNeuralNetwork,
                           core::FeatureSet::kF};
  const core::EvaluationSuite suite = experiment.evaluate(nn_f);

  // ---- Figure 5(a): execution-time distributions. ----------------------
  TextTable fig5a(
      "Figure 5(a): execution-time distributions per application (s), "
      "6-core Xeon E5649");
  fig5a.set_columns({"application", "n", "min", "q25", "median", "q75",
                     "max"});
  const auto time_summaries =
      core::per_app_time_summaries(experiment.campaign().dataset);
  for (const auto& [app, s] : time_summaries) {
    fig5a.add_row({app, TextTable::num(s.count), TextTable::num(s.min, 0),
                   TextTable::num(s.q25, 0), TextTable::num(s.median, 0),
                   TextTable::num(s.q75, 0), TextTable::num(s.max, 0)});
  }
  fig5a.print(std::cout);

  // ---- Figure 5(b): NN-F percent-error distributions. -------------------
  const auto& predictions =
      suite.find(nn_f.technique, nn_f.feature_set).result.test_predictions;
  TextTable fig5b(
      "Figure 5(b): NN-F signed percent-error distributions per "
      "application (held-out data)");
  fig5b.set_columns({"application", "n", "q25 (%)", "median (%)",
                     "q75 (%)", "within +/-2%", "within +/-5%"});
  const auto error_summaries = core::per_app_error_summaries(predictions);

  // Per-app within-threshold shares.
  std::map<std::string, std::pair<std::size_t, std::size_t>> within;
  std::map<std::string, std::size_t> totals;
  for (const auto& p : predictions) {
    const std::string app = core::CampaignResult::tag_target(p.tag);
    const double err = 100.0 * std::abs(p.predicted - p.actual) / p.actual;
    ++totals[app];
    if (err <= 2.0) ++within[app].first;
    if (err <= 5.0) ++within[app].second;
  }
  std::size_t all = 0, all2 = 0, all5 = 0;
  for (const auto& [app, s] : error_summaries) {
    const double share2 = 100.0 * static_cast<double>(within[app].first) /
                          static_cast<double>(totals[app]);
    const double share5 = 100.0 * static_cast<double>(within[app].second) /
                          static_cast<double>(totals[app]);
    all += totals[app];
    all2 += within[app].first;
    all5 += within[app].second;
    fig5b.add_row({app, TextTable::num(s.count), TextTable::num(s.q25, 2),
                   TextTable::num(s.median, 2), TextTable::num(s.q75, 2),
                   TextTable::num(share2, 1) + "%",
                   TextTable::num(share5, 1) + "%"});
  }
  fig5b.print(std::cout);
  std::printf(
      "overall: %.1f%% of held-out predictions within +/-2%%, %.1f%% "
      "within +/-5%%\n"
      "(paper: the majority within +/-2%% and nearly all within 5%%)\n",
      100.0 * static_cast<double>(all2) / static_cast<double>(all),
      100.0 * static_cast<double>(all5) / static_cast<double>(all));
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  return coloc::bench::run_main(argc, argv, run);
}
