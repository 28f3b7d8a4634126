// obs_report: attribution reports and regression gating over run bundles.
//
//   obs_report RUN_DIR
//       Print a human-readable attribution report for one bundle
//       (manifest.json + metrics.json): per-stage wall and measured pool
//       accounting, the recovery and training counters, and the
//       queue-wait / execution / commit-hold / train-GEMM histograms.
//       Exits 2 when a stage's accounting fails its check (a pool call
//       whose residual exceeded its tolerance, a last pool call longer
//       than its stage, or a missing pool metric; see
//       obs/attribution.hpp), 0 otherwise.
//
//   obs_report BASELINE_DIR CURRENT_DIR
//       Structured diff of two bundles against fixed thresholds (stage
//       wall +10%, queue-wait p99 +25%, placement predict p99 +25%,
//       train-GEMM sum +25%). Exits 2 when one trips, 0 otherwise.
//
// The tool takes no flags: any argument starting with '-' prints the
// usage and exits 64, so a stale flag cannot silently change which
// bundles are read.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "obs/attribution.hpp"

int main(int argc, char** argv) {
  using namespace coloc;
  std::vector<std::string> bundles(argv + 1, argv + argc);
  const bool flag = std::any_of(
      bundles.begin(), bundles.end(),
      [](const std::string& arg) { return arg.rfind('-', 0) == 0; });
  if (bundles.empty() || bundles.size() > 2 || flag) {
    std::fprintf(stderr,
                 "usage: %s BUNDLE_DIR [CURRENT_BUNDLE_DIR]\n"
                 "  one bundle dir: attribution report (exit 2 on an "
                 "accounting gap)\n"
                 "  two bundle dirs: baseline-vs-current diff (exit 2 on "
                 "regression)\n",
                 argv[0]);
    return 64;  // EX_USAGE
  }

  try {
    if (bundles.size() == 1) {
      const obs::ReportResult report =
          obs::render_report(obs::BundleData::load(bundles[0]));
      std::fputs(report.text.c_str(), stdout);
      return report.failures.empty() ? 0 : 2;
    }
    const obs::DiffResult diff =
        obs::diff_bundles(obs::BundleData::load(bundles[0]),
                          obs::BundleData::load(bundles[1]));
    std::fputs(diff.text.c_str(), stdout);
    return diff.regression ? 2 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs_report: %s\n", e.what());
    return 1;
  }
}
