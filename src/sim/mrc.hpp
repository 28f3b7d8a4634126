// Miss-ratio curves (MRC): miss ratio as a function of cache capacity.
//
// Built from a stack-distance histogram in one pass (Mattson): for capacity
// C lines, the LRU miss ratio is
//   ( #refs with distance >= C  +  cold misses ) / total refs.
// The contention model evaluates each co-runner's MRC at its current share
// of the LLC, so evaluation must be cheap — we precompute the cumulative
// tail and the log of every knot, and answer queries by interpolation in
// O(log k) with one std::log.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/stack_distance.hpp"

namespace coloc::sim {

class MissRatioCurve {
 public:
  MissRatioCurve() = default;

  /// Builds the exact curve from a profiler's histogram. Sample points are
  /// chosen geometrically so the curve stays compact even for multi-million
  /// line distances.
  ///
  /// By default cold (first-touch) misses are EXCLUDED: the curve describes
  /// steady-state reuse behaviour, and cold misses — an artifact of the
  /// finite profiling trace — are modeled separately via each application's
  /// compulsory miss rate (see ApplicationSpec). Pass include_cold=true to
  /// get the raw finite-trace ratio instead (used by cache-vs-MRC tests).
  static MissRatioCurve from_profiler(const StackDistanceProfiler& profiler,
                                      std::size_t samples_per_octave = 8,
                                      bool include_cold = false);

  /// Builds directly from explicit (capacity_lines, miss_ratio) knots,
  /// which must be sorted by capacity. Used by tests and by synthetic
  /// analytic app models.
  static MissRatioCurve from_points(std::vector<std::size_t> capacities,
                                    std::vector<double> ratios);

  /// Miss ratio for a fully-associative LRU cache of `lines` capacity;
  /// log-linear interpolation between knots, clamped at the ends.
  double miss_ratio(double lines) const;

  bool empty() const { return capacities_.empty(); }
  const std::vector<double>& capacities() const { return capacities_; }
  const std::vector<double>& ratios() const { return ratios_; }

 private:
  /// Fills log_capacities_ once the knots are final.
  void cache_log_knots();

  std::vector<double> capacities_;      // ascending, in cache lines
  std::vector<double> ratios_;          // nonincreasing, in [0, 1]
  std::vector<double> log_capacities_;  // std::log of each capacity
};

}  // namespace coloc::sim
