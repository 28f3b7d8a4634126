// Seeded input generation. Every input a workload feeds the library is a
// pure function of the --seed argument (plus, for the query catalog, the
// deterministic demo baselines it is scaled to), so the same seed gives
// the same inputs and the library never sees the seed itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/features.hpp"
#include "serve/event_sim.hpp"
#include "sim/app_model.hpp"

namespace perfbench {

/// Onboarding inputs for the characterize workload.
struct CharacterizeInputs {
  /// Seeded perturbations of the Table III apps (working sets, access
  /// mix, reuse skew, instruction count), profiled over their base app's
  /// horizon. No two share a trace shape, so no two share a profile-memo
  /// key.
  std::vector<coloc::sim::ApplicationSpec> variants;
  /// rounds x variants copies under new names: clones[r][i] has the trace
  /// of variants[i], so profiling it hits the profile memo while its
  /// contention solves miss the name-keyed solve cache.
  std::vector<std::vector<coloc::sim::ApplicationSpec>> clones;
};

CharacterizeInputs make_characterize_inputs(std::uint64_t seed,
                                            std::size_t variants_per_app,
                                            std::size_t clone_rounds);

/// Seeded arrival stream over the demo catalog at the given utilization
/// of `nodes` x `cores` cores.
std::vector<coloc::serve::Job> make_replay_stream(
    std::uint64_t seed, std::size_t arrivals, std::size_t nodes,
    std::size_t cores, double utilization,
    const std::vector<double>& catalog_alone_time_s);

/// Closed-loop query script for the placement_query workload.
struct QueryInputs {
  /// Synthetic application catalog. Each profile interpolates log-linearly
  /// between two random demo baselines, so the predictor stays inside the
  /// feature ranges it was trained on.
  std::vector<coloc::core::BaselineProfile> catalog;
  /// Initial residents per node (AppIds into `catalog`). Every query
  /// has one departure and one arrival, so the fleet load stays at
  /// nodes x residents_per_node throughout.
  std::vector<std::vector<std::uint32_t>> initial_residents;
  struct Query {
    std::uint32_t target = 0;
    std::uint8_t pstate = 0;
    std::uint32_t depart_draw = 0;  // picks the departing resident
  };
  std::vector<Query> queries;
};

QueryInputs make_query_inputs(std::uint64_t seed, std::size_t apps,
                              std::size_t nodes,
                              std::size_t residents_per_node,
                              std::size_t pstates, std::size_t queries,
                              const coloc::core::BaselineLibrary& reference);

/// Benchmark self-tests: input determinism per seed and distinct
/// profile-memo keys across characterize variants. Returns the number of
/// failed checks and prints each failure to stderr.
int run_self_tests();

}  // namespace perfbench
