#include "core/features.hpp"

#include "common/error.hpp"

namespace coloc::core {

const std::vector<std::string>& feature_names() {
  static const std::vector<std::string> kNames = {
      "baseExTime",  "numCoApp",    "coAppMem",    "targetMem",
      "coAppCM_CA",  "coAppCA_INS", "targetCM_CA", "targetCA_INS",
  };
  return kNames;
}

std::string to_string(FeatureId id) {
  return feature_names()[static_cast<std::size_t>(id)];
}

double BaselineProfile::time_at(std::size_t pstate_index) const {
  COLOC_CHECK_MSG(pstate_index < execution_time_s.size(),
                  "no baseline for that P-state");
  return execution_time_s[pstate_index];
}

BaselineProfile collect_baseline(sim::MeasurementSource& source,
                                 const sim::ApplicationSpec& app,
                                 fault::ResilientRunner* runner) {
  BaselineProfile profile;
  profile.app_name = app.name;
  const std::size_t num_pstates = source.machine().pstates.size();
  profile.execution_time_s.reserve(num_pstates);
  for (std::size_t p = 0; p < num_pstates; ++p) {
    sim::RunMeasurement m;
    if (runner != nullptr) {
      const std::string tag = "baseline|" + app.name + "|p" +
                              std::to_string(p);
      // No earlier reference exists for a baseline, so the slowdown
      // plausibility bound cannot apply (reference 0). But the baseline
      // is the sweep's most load-bearing reading: an undetected outlier
      // here poisons a feature column AND the reference of every campaign
      // cell of this (app, P-state), hence the confirmation read.
      auto measured = runner->measure_cell(
          tag, 0.0, [&](std::uint64_t attempt) {
            return confirmed_read(tag, attempt, [&](std::uint64_t rep) {
              return source.run_alone(app, p, rep);
            });
          });
      if (!measured) {
        throw MeasurementError(ErrorClass::kPermanent,
                               "baseline quarantined: " + tag);
      }
      m = std::move(*measured);
    } else {
      m = source.run_alone(app, p);
    }
    profile.execution_time_s.push_back(m.execution_time_s);
    if (p == 0) {
      // Counter ratios from the P0 run; they are frequency-invariant.
      profile.memory_intensity = m.counters.memory_intensity();
      profile.cm_per_ca = m.counters.cm_per_ca();
      profile.ca_per_ins = m.counters.ca_per_ins();
    }
  }
  return profile;
}

sim::RunMeasurement confirmed_read(
    const std::string& tag, std::uint64_t repetition,
    const fault::ResilientRunner::MeasureFn& read) {
  constexpr std::uint64_t kConfirmRepOffset = std::uint64_t{1} << 20;
  sim::RunMeasurement primary = read(repetition);
  const sim::RunMeasurement confirm = read(kConfirmRepOffset + repetition);
  const double ratio = primary.execution_time_s / confirm.execution_time_s;
  if (!(ratio > 1.0 / 3.0 && ratio < 3.0)) {
    throw MeasurementError(ErrorClass::kCorruptedData,
                           "reading disagrees with its confirmation read: " +
                               tag);
  }
  return primary;
}

BaselineLibrary collect_baselines(
    sim::MeasurementSource& source,
    const std::vector<sim::ApplicationSpec>& apps,
    fault::ResilientRunner* runner) {
  BaselineLibrary library;
  for (const auto& app : apps) {
    if (runner == nullptr) {
      library.emplace(app.name, collect_baseline(source, app));
      continue;
    }
    try {
      library.emplace(app.name, collect_baseline(source, app, runner));
    } catch (const MeasurementError&) {
      // Already quarantined (and logged) by the runner; the campaign
      // degrades by skipping every cell that involves this application.
    }
  }
  return library;
}

std::array<double, kNumFeatures> feature_row(const BaselineProfile& target,
                                             std::size_t pstate_index,
                                             const CoAppSums& co) {
  std::array<double, kNumFeatures> f{};
  f[static_cast<std::size_t>(FeatureId::kBaseExTime)] =
      target.time_at(pstate_index);
  f[static_cast<std::size_t>(FeatureId::kNumCoApp)] = co.count;
  f[static_cast<std::size_t>(FeatureId::kCoAppMem)] = co.mem;
  f[static_cast<std::size_t>(FeatureId::kTargetMem)] =
      target.memory_intensity;
  f[static_cast<std::size_t>(FeatureId::kCoAppCmCa)] = co.cmca;
  f[static_cast<std::size_t>(FeatureId::kCoAppCaIns)] = co.cains;
  f[static_cast<std::size_t>(FeatureId::kTargetCmCa)] = target.cm_per_ca;
  f[static_cast<std::size_t>(FeatureId::kTargetCaIns)] = target.ca_per_ins;
  return f;
}

std::array<double, kNumFeatures> compute_features(
    const BaselineProfile& target,
    const std::vector<const BaselineProfile*>& coapps,
    std::size_t pstate_index) {
  CoAppSums co;
  for (const BaselineProfile* coapp : coapps) {
    COLOC_CHECK_MSG(coapp != nullptr, "null co-app baseline");
    co.add(*coapp);
  }
  return feature_row(target, pstate_index, co);
}

}  // namespace coloc::core
