// Model features from Table I of the paper.
//
// Every feature derives from a *single* baseline (run-alone) profiling pass
// per application — the paper's key practical point: after one profiling
// run per app, co-location slowdown is predicted without ever monitoring
// the co-located execution itself.
//
//   baseExTime   baseline execution time of the target at the P-state
//   numCoApp     number of co-located applications
//   coAppMem     sum of co-app memory intensities
//   targetMem    target memory intensity
//   coAppCM/CA   sum of co-app LLC miss/access ratios
//   coAppCA/INS  sum of co-app LLC access/instruction ratios
//   targetCM/CA  target LLC miss/access ratio
//   targetCA/INS target LLC access/instruction ratio
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/resilient_runner.hpp"
#include "sim/execution.hpp"

namespace coloc::core {

enum class FeatureId : std::size_t {
  kBaseExTime = 0,
  kNumCoApp = 1,
  kCoAppMem = 2,
  kTargetMem = 3,
  kCoAppCmCa = 4,
  kCoAppCaIns = 5,
  kTargetCmCa = 6,
  kTargetCaIns = 7,
};

inline constexpr std::size_t kNumFeatures = 8;

/// Canonical feature names (used as dataset column headers).
const std::vector<std::string>& feature_names();
std::string to_string(FeatureId id);

/// One application's baseline characterization: execution time at every
/// P-state plus the three counter-derived ratios, measured alone.
struct BaselineProfile {
  std::string app_name;
  /// Baseline execution time per P-state index (seconds).
  std::vector<double> execution_time_s;
  double memory_intensity = 0.0;
  double cm_per_ca = 0.0;
  double ca_per_ins = 0.0;

  double time_at(std::size_t pstate_index) const;
};

/// Runs the paper's "initial baseline tests": the app alone at each
/// P-state, recording times and counter ratios (ratios from the highest
/// P-state run; they are frequency-invariant in both the simulator and on
/// real hardware to first order).
///
/// With a ResilientRunner, every per-P-state measurement runs under that
/// runner's deadline/retry/validation policy; if any P-state exhausts its
/// retry budget the whole profile is unusable and MeasurementError
/// (kPermanent) is thrown — collect_baselines() turns that into a skipped
/// application instead of an aborted pass.
BaselineProfile collect_baseline(sim::MeasurementSource& source,
                                 const sim::ApplicationSpec& app,
                                 fault::ResilientRunner* runner = nullptr);

/// One reading checked by run-to-run agreement: read(repetition) is the
/// primary and read(2^20 + repetition) a confirmation at a disjoint seed,
/// read in that order. Unless their wall times agree within 3x it throws
/// MeasurementError(kCorruptedData) naming `tag`, for the runner to retry:
/// a corrupted primary that slips past the plausibility bounds (baselines
/// have none) must not poison a feature column or a dataset row. Returns
/// the primary, so fault-free numerics do not depend on the confirmation.
/// A co-located confirmation re-requests the same configuration, so it
/// costs a solve-cache hit and one noise draw.
sim::RunMeasurement confirmed_read(
    const std::string& tag, std::uint64_t repetition,
    const fault::ResilientRunner::MeasureFn& read);

/// Baselines for a whole application set, keyed by name. With a runner,
/// applications whose baseline is quarantined are left out of the library
/// (the campaign then skips their cells) rather than failing the pass.
using BaselineLibrary = std::map<std::string, BaselineProfile>;
BaselineLibrary collect_baselines(
    sim::MeasurementSource& source,
    const std::vector<sim::ApplicationSpec>& apps,
    fault::ResilientRunner* runner = nullptr);

/// The co-runner half of a Table I row: the number of co-located instances
/// and the sums of their three counter ratios. Floating-point addition is
/// not associative, so each caller accumulates in one fixed order of its
/// own (caller order in compute_features, sorted AppId order in
/// serve::PlacementService) and its rows stay a pure function of that
/// order.
struct CoAppSums {
  double count = 0.0;
  double mem = 0.0;
  double cmca = 0.0;
  double cains = 0.0;

  void add(const BaselineProfile& coapp) {
    count += 1.0;
    mem += coapp.memory_intensity;
    cmca += coapp.cm_per_ca;
    cains += coapp.ca_per_ins;
  }
};

/// The 8-entry Table I row for `target` at the given P-state next to
/// co-runners already summed in `co`. This is the one function that knows
/// the column order; compute_features and the placement service both
/// build their rows here.
std::array<double, kNumFeatures> feature_row(const BaselineProfile& target,
                                             std::size_t pstate_index,
                                             const CoAppSums& co);

/// Assembles the 8-entry Table I feature vector for a co-location scenario:
/// `target` co-located with the profiles in `coapps` (one entry per
/// co-located instance; repeat an entry for multiple copies) at the given
/// P-state. Co-app ratios are summed in `coapps` order.
std::array<double, kNumFeatures> compute_features(
    const BaselineProfile& target,
    const std::vector<const BaselineProfile*>& coapps,
    std::size_t pstate_index);

}  // namespace coloc::core
