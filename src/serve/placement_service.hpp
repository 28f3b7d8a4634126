// Placement-as-a-service: the query front-end a resource manager talks to.
//
// The paper's closing argument is that co-location-aware models belong
// inside schedulers of large-scale systems. This module is that serving
// layer: it wraps one trained ColocationPredictor (freshly trained, or
// reloaded from a crash-safe store zoo bundle) behind a *batched*
// placement-query API whose hot path does no per-query allocation:
//
//   1. Applications are registered once (interned to dense AppIds) from
//      their baseline profiles, which live in a flat array.
//   2. The fleet's node memberships are mirrored into the service
//      (add_resident / remove_resident). Each node keeps its members
//      sorted plus the co-app feature sums over them — the
//      per-(node-membership) feature-assembly cache. Assembling the
//      feature row for "app A joins node N" is then O(columns), not
//      O(residents): the co-app aggregates are already materialized, and
//      core::feature_row lays them out in Table I order, the same function
//      ColocationPredictor::predict_time builds its rows on.
//      Each distinct sorted membership is also interned to a dense
//      32-bit id, so equal memberships share one id however they were
//      reached and distinct ones never do.
//   3. score_candidates() answers the scheduler's real question — the
//      interference-aware placement cost of putting a target on each
//      candidate node — through one batched predict_into call over all
//      assembled rows, with a memo table keyed exactly by (membership id,
//      target, P-state) packed into one integer: under a bounded
//      application catalog the same co-location recurs millions of times
//      in a long replay, so the steady state is pure table lookups.
//
// Everything is deterministic: scores are pure functions of (model bytes,
// target, membership, P-state), caches only skip recomputation, and two
// services built from bit-identical zoo bundles answer bit-identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/features.hpp"
#include "core/methodology.hpp"
#include "core/model_zoo.hpp"
#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "store/file_ops.hpp"

namespace coloc::serve {

/// Dense application handle; assigned sequentially by register_app.
using AppId = std::uint32_t;

struct ServiceOptions {
  /// Memoize placement scores per (target, P-state, node membership).
  /// Purely an optimization: answers are identical with the cache off.
  bool enable_score_cache = true;
};

/// Loads the model `id` out of a zoo bundle and wraps it as a deployable
/// predictor. Only digest-verified entries are accepted; a quarantined or
/// missing entry throws coloc::runtime_error naming the damage (use
/// core::load_or_repair_zoo instead when a training dataset is available
/// for targeted retraining).
core::ColocationPredictor load_bundle_predictor(store::FileOps& files,
                                                const std::string& dir,
                                                const core::ModelId& id);

class PlacementService {
 public:
  /// `predictor` is borrowed and must outlive the service. Several
  /// services may share one predictor (e.g. one per concurrently replayed
  /// policy): queries never mutate it.
  explicit PlacementService(const core::ColocationPredictor* predictor,
                            ServiceOptions options = {});

  // -- catalog ------------------------------------------------------------

  /// Interns an application's baseline characterization. Ids are assigned
  /// sequentially in registration order; re-registering a known name
  /// returns its existing id. The catalog holds fewer than 2^24 apps.
  AppId register_app(const core::BaselineProfile& profile);
  /// Registers a whole baseline library (name-sorted map order, so id
  /// assignment is deterministic).
  void register_library(const core::BaselineLibrary& library);
  /// Throws coloc::invalid_argument_error for unknown names.
  AppId id_of(const std::string& name) const;
  const std::string& name_of(AppId app) const;
  std::size_t num_apps() const { return apps_.size(); }
  /// Baseline run-alone time of `app` at `pstate_index` (feature 1 input).
  double baseline_time(AppId app, std::size_t pstate_index) const;

  // -- fleet state --------------------------------------------------------

  /// Drops all placements and resizes the mirrored fleet.
  void reset_fleet(std::size_t nodes);
  std::size_t fleet_nodes() const { return nodes_.size(); }
  void add_resident(std::size_t node, AppId app);
  void remove_resident(std::size_t node, AppId app);
  std::size_t occupancy(std::size_t node) const;
  /// Current membership, sorted by AppId (canonical form).
  const std::vector<AppId>& members(std::size_t node) const;
  /// Interned id of the node's current membership: equal sorted
  /// memberships share one id, distinct ones never do. Ids live as long as
  /// the service; reset_fleet and clear_score_cache keep them.
  std::uint32_t membership_id(std::size_t node) const;

  // -- query hot path -----------------------------------------------------

  /// Batched raw inference: out_time_s[k] = predicted co-located execution
  /// time of targets[k] if it joined node nodes[k]'s current residents at
  /// `pstate_index`. One design matrix, one predict_into call; scratch is
  /// reused so the steady state allocates nothing.
  void predict_batch(std::span<const AppId> targets,
                     std::span<const std::uint32_t> nodes,
                     std::size_t pstate_index, std::span<double> out_time_s);

  /// Interference-aware placement cost of putting `target` on each
  /// candidate: the target's predicted slowdown there plus the summed
  /// predicted slowdown of the residents it would join (the
  /// sched::PlacementPolicy::kInterferenceAware objective). An empty node
  /// costs exactly 1.0 without touching the model. `pstates[i]` is
  /// candidate i's node P-state (per-node DVFS); the single-P-state
  /// overload broadcasts one value and rejects an index above 255. Cache
  /// misses across all candidates are assembled into ONE batched
  /// predict_into call.
  ///
  /// A non-empty `out_worst` (one slot per candidate) also receives each
  /// candidate's largest predicted slowdown among the target and the
  /// residents it joins (1.0 for an empty node). The memo stores costs
  /// only, so such a request predicts every busy candidate fresh and
  /// leaves the memo untouched; the costs it returns are bit-equal to the
  /// memoized ones.
  void score_candidates(AppId target,
                        std::span<const std::uint32_t> candidates,
                        std::span<const std::uint8_t> pstates,
                        std::span<double> out_cost,
                        std::span<double> out_worst = {});
  void score_candidates(AppId target,
                        std::span<const std::uint32_t> candidates,
                        std::size_t pstate_index, std::span<double> out_cost);

  // -- introspection ------------------------------------------------------

  struct Stats {
    std::uint64_t queries = 0;       // batched query calls answered
    std::uint64_t predictions = 0;   // feature rows pushed through the model
    std::uint64_t cache_hits = 0;    // score memo hits
    std::uint64_t cache_misses = 0;  // score memo misses (rows assembled)
  };
  const Stats& stats() const { return stats_; }
  void clear_score_cache() { score_cache_.clear(); }
  const core::ColocationPredictor& predictor() const { return *predictor_; }

 private:
  /// Mirrored node state: sorted membership plus the co-app sums over it
  /// (the feature-assembly cache). Sums are recomputed from the sorted
  /// members on every change, so they are a pure function of the
  /// membership — identical regardless of arrival/departure history.
  struct NodeState {
    std::vector<AppId> members;  // sorted ascending
    core::CoAppSums co;          // over `members`, in sorted order
    std::uint32_t membership = 0;  // interned id of `members`
  };

  void refresh_aggregates(NodeState& node);
  /// Writes the model's selected columns of the core::feature_row for one
  /// subject and co-app aggregate into `row` (predictor columns order).
  void assemble_row(const core::BaselineProfile& subject,
                    std::size_t pstate_index, const core::CoAppSums& co,
                    std::span<double> row) const;

  const core::ColocationPredictor* predictor_;
  ServiceOptions options_;
  std::vector<core::BaselineProfile> apps_;  // indexed by AppId
  std::unordered_map<std::string, AppId> ids_;
  std::vector<NodeState> nodes_;
  /// Sorted membership bytes -> interned id.
  std::unordered_map<std::string, std::uint32_t> membership_ids_;
  std::string membership_scratch_;

  /// Score memo keyed by membership << 32 | target << 8 | P-state. Each
  /// field fits its bits (ids < 2^32, apps < 2^24, P-states < 2^8), so
  /// distinct co-locations never share a key.
  std::unordered_map<std::uint64_t, double> score_cache_;

  // Reusable query scratch (grown once, then allocation-free).
  linalg::Matrix scratch_x_;
  std::vector<double> scratch_y_;
  struct PendingCandidate {
    std::size_t out_index = 0;
    std::size_t first_row = 0;
    std::uint32_t node = 0;
    std::uint64_t key = 0;
  };
  std::vector<PendingCandidate> pending_;
  std::vector<std::uint8_t> pstate_scratch_;

  Stats stats_;
  // Shared observability instruments (global registry, resolved once).
  obs::Counter& queries_total_;
  obs::Counter& predictions_total_;
  obs::Counter& cache_hits_total_;
  obs::Counter& cache_misses_total_;
  obs::Histogram& predict_seconds_;
};

}  // namespace coloc::serve
