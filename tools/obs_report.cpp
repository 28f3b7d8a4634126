// obs_report: attribution reports and regression gating over run bundles.
//
//   obs_report RUN_DIR
//       Print a human-readable attribution report for one bundle
//       (manifest.json + metrics.json): per-stage wall and measured pool
//       accounting, and queue-wait / execution / commit-hold histograms.
//       Exits 2 when a stage's accounting fails its check (a pool call
//       longer than its stage, a residual beyond tolerance, or a missing
//       pool gauge; see obs/attribution.hpp), 0 otherwise.
//
//   obs_report BASELINE_DIR CURRENT_DIR
//   obs_report --gate BASELINE_DIR CURRENT_DIR
//       Structured diff of two bundles. Exits 2 when a regression
//       threshold trips (with or without --gate; the flag is documentary
//       for CI invocations), 0 otherwise.
//
// Flags:
//   --stage-wall-pct=N       stage wall regression threshold (default 10)
//   --queue-wait-p99-pct=N   queue-wait p99 threshold (default 25)
//   --predict-p99-pct=N      placement predict-latency p99 threshold
//                            (default 25; gated only when both bundles
//                            carry placement_predict_seconds)
//   --train-gemm-pct=N       fused-trainer train_gemm_seconds_sum threshold
//                            (default 25; gated only when the baseline
//                            manifest carries a training section)
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "obs/attribution.hpp"

namespace {

int usage(const char* program) {
  std::fprintf(
      stderr,
      "usage: %s [--gate] [--stage-wall-pct=N] [--queue-wait-p99-pct=N] "
      "[--predict-p99-pct=N] [--train-gemm-pct=N] "
      "BUNDLE_DIR [BASELINE_IS_FIRST_CURRENT_DIR]\n"
      "  one bundle dir: attribution report (exit 2 on an accounting "
      "gap)\n"
      "  two bundle dirs: baseline-vs-current diff (exit 2 on regression)\n",
      program);
  return 64;  // EX_USAGE
}

}  // namespace

int main(int argc, char** argv) {
  using namespace coloc;
  const CliArgs args(argc, argv);
  std::vector<std::string> bundles = args.positional();
  // CliArgs parses `--gate BASELINE_DIR` as flag+value, swallowing the
  // first bundle path; anything but a bare `--gate` is really a positional.
  if (const std::string gate = args.get("gate", ""); !gate.empty() &&
      gate != "true") {
    bundles.insert(bundles.begin(), gate);
  }
  if (bundles.empty() || bundles.size() > 2) {
    return usage(args.program().c_str());
  }

  try {
    if (bundles.size() == 1) {
      const obs::ReportResult report =
          obs::render_report(obs::BundleData::load(bundles[0]));
      std::fputs(report.text.c_str(), stdout);
      return report.failures.empty() ? 0 : 2;
    }

    obs::DiffThresholds thresholds;
    thresholds.stage_wall_pct =
        args.get_double("stage-wall-pct", thresholds.stage_wall_pct);
    thresholds.queue_wait_p99_pct = args.get_double(
        "queue-wait-p99-pct", thresholds.queue_wait_p99_pct);
    thresholds.predict_p99_pct =
        args.get_double("predict-p99-pct", thresholds.predict_p99_pct);
    thresholds.train_gemm_sum_pct =
        args.get_double("train-gemm-pct", thresholds.train_gemm_sum_pct);

    const obs::BundleData baseline = obs::BundleData::load(bundles[0]);
    const obs::BundleData current = obs::BundleData::load(bundles[1]);
    const obs::DiffResult diff =
        obs::diff_bundles(baseline, current, thresholds);
    std::fputs(diff.text.c_str(), stdout);
    return diff.regression ? 2 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs_report: %s\n", e.what());
    return 1;
  }
}
