#include "sim/mrc.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace coloc::sim {

MissRatioCurve MissRatioCurve::from_profiler(
    const StackDistanceProfiler& profiler, std::size_t samples_per_octave,
    bool include_cold) {
  COLOC_CHECK_MSG(profiler.references() > 0, "profiler saw no references");
  COLOC_CHECK_MSG(samples_per_octave > 0, "need at least one sample/octave");
  const auto& hist = profiler.histogram();
  const double denom =
      include_cold
          ? static_cast<double>(profiler.references())
          : static_cast<double>(profiler.references() -
                                profiler.cold_misses());
  COLOC_CHECK_MSG(denom > 0.0, "trace has no reuse at all");

  // misses(C) = refs with distance >= C, for C up to the histogram size;
  // none past it. Capacities are sampled geometrically in ascending order,
  // so a running prefix over the histogram answers each one without a
  // second histogram-sized array.
  std::uint64_t warm_total = 0;
  for (std::uint64_t count : hist) warm_total += count;
  std::size_t summed = 0;        // histogram buckets below `summed` ...
  std::uint64_t warm_below = 0;  // ... hold this many references
  auto misses_at = [&](std::size_t capacity) -> double {
    std::uint64_t warm = 0;
    if (capacity <= hist.size()) {
      for (; summed < capacity; ++summed) warm_below += hist[summed];
      warm = warm_total - warm_below;
    }
    return static_cast<double>(warm) +
           (include_cold ? static_cast<double>(profiler.cold_misses()) : 0.0);
  };
  const double total = denom;

  MissRatioCurve curve;
  const std::size_t max_distance = hist.size();
  curve.capacities_.push_back(1.0);
  curve.ratios_.push_back(misses_at(1) / total);

  const double growth = std::pow(2.0, 1.0 / static_cast<double>(
                                            samples_per_octave));
  double c = 1.0;
  std::size_t last_cap = 1;
  while (last_cap < max_distance) {
    c *= growth;
    const std::size_t cap =
        std::min(static_cast<std::size_t>(std::ceil(c)), max_distance);
    if (cap == last_cap) continue;
    last_cap = cap;
    curve.capacities_.push_back(static_cast<double>(cap));
    curve.ratios_.push_back(misses_at(cap) / total);
  }
  // Exact terminal knot: a cache holding max_distance+1 lines captures
  // every reuse, so only cold misses remain.
  if (last_cap <= max_distance) {
    curve.capacities_.push_back(static_cast<double>(max_distance + 1));
    curve.ratios_.push_back(misses_at(max_distance + 1) / total);
  }
  // Enforce monotone nonincreasing ratios (guards against any sampling
  // artifacts at the tail).
  for (std::size_t i = 1; i < curve.ratios_.size(); ++i)
    curve.ratios_[i] = std::min(curve.ratios_[i], curve.ratios_[i - 1]);
  curve.cache_log_knots();
  return curve;
}

MissRatioCurve MissRatioCurve::from_points(std::vector<std::size_t> capacities,
                                           std::vector<double> ratios) {
  COLOC_CHECK_MSG(capacities.size() == ratios.size(),
                  "knot arrays must match");
  COLOC_CHECK_MSG(!capacities.empty(), "need at least one knot");
  MissRatioCurve curve;
  curve.capacities_.reserve(capacities.size());
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    COLOC_CHECK_MSG(capacities[i] > 0, "capacity knots must be positive");
    COLOC_CHECK_MSG(ratios[i] >= 0.0 && ratios[i] <= 1.0,
                    "ratios must be in [0, 1]");
    if (i > 0) {
      COLOC_CHECK_MSG(capacities[i] > capacities[i - 1],
                      "capacity knots must be strictly increasing");
      COLOC_CHECK_MSG(ratios[i] <= ratios[i - 1] + 1e-12,
                      "miss ratios must be nonincreasing");
    }
    curve.capacities_.push_back(static_cast<double>(capacities[i]));
    curve.ratios_.push_back(ratios[i]);
  }
  curve.cache_log_knots();
  return curve;
}

void MissRatioCurve::cache_log_knots() {
  log_capacities_.resize(capacities_.size());
  for (std::size_t i = 0; i < capacities_.size(); ++i)
    log_capacities_[i] = std::log(capacities_[i]);
}

double MissRatioCurve::miss_ratio(double lines) const {
  COLOC_CHECK_MSG(!empty(), "empty miss-ratio curve");
  if (lines <= capacities_.front()) return ratios_.front();
  if (lines >= capacities_.back()) return ratios_.back();
  const auto it =
      std::lower_bound(capacities_.begin(), capacities_.end(), lines);
  const std::size_t hi = static_cast<std::size_t>(it - capacities_.begin());
  const std::size_t lo = hi - 1;
  // Log-linear in capacity: cache behaviour is closer to linear in log(C).
  const double x0 = log_capacities_[lo];
  const double x1 = log_capacities_[hi];
  const double t = (std::log(lines) - x0) / (x1 - x0);
  return ratios_[lo] + t * (ratios_[hi] - ratios_[lo]);
}

}  // namespace coloc::sim
