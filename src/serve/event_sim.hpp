// Cluster-scale discrete-event replay driven by the placement service.
//
// Jobs arrive over time, run co-located on multicore nodes, and finish.
// Between events each resident progresses at the instruction rate of its
// node's contention fixed point (processor sharing), and a node draws
// package energy while residents are present. Rescanning every node's
// residents for the next completion would cost O(nodes x residents) per
// step, so the replay keeps one completion entry per node:
//
//   * Each re-solve of a node sets the node's entry to its earliest
//     resident completion, keyed by (time, seq). A tournament tree over the
//     nodes (detail::CompletionIndex) holds the fleet's next completion at
//     its root, so a node change costs one O(log nodes) path update and no
//     entry can go stale. Only the touched node is re-solved.
//   * Contention fixed points are memoized by (P-state, the service's
//     interned membership id) — a bounded application catalog means a long
//     replay revisits the same co-locations constantly, so steady-state
//     membership changes cost a table lookup, not a solver run. The memo
//     is a flat table of at most kRateCacheCapacity entries
//     (common/memo.hpp); a 1M-arrival replay needs a few hundred.
//   * Placement questions go to the PlacementService: the scheduler's view
//     of the fleet is mirrored there, and interference-aware policies ask
//     score_candidates() for the predicted-slowdown cost of every feasible
//     node in one batched model query.
//   * QoS-bounded consolidation (the paper's Section VI scenario) is one
//     setting on those same policies, EventSimConfig::max_slowdown: a job
//     joins the cheapest busy node whose predicted worst slowdown stays
//     within the bound, and opens a node only when none does.
//
// kDvfsAware places like kInterferenceAware, then re-picks the chosen
// node's P-state with sched::choose_pstate_for_deadline against the job's
// deadline (arrival + 3 x run-alone time at pstate_index), so every node
// runs at its own P-state.
//
// Replays are deterministic: no wall clock, no randomness beyond the seeded
// job stream, and all caches are pure memoization. The same jobs + seed
// produce bit-identical JobOutcome streams at any --jobs level (policies
// replay on independent service/simulator instances) and across zoo bundle
// save/load (verified entries reload bit-identically).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/memo.hpp"
#include "core/features.hpp"
#include "sched/placement_policy.hpp"
#include "serve/placement_service.hpp"
#include "sim/app_model.hpp"
#include "sim/contention.hpp"
#include "sim/machine.hpp"

namespace coloc::serve {

struct EventSimConfig {
  sim::MachineConfig node;
  std::size_t nodes = 64;
  /// Fleet-wide operating P-state; also the slowdown/deadline reference.
  std::size_t pstate_index = 0;
  /// QoS bound on predicted slowdown for kInterferenceAware and
  /// kDvfsAware; 0 (the default) disables it. When positive, a job goes to
  /// the cheapest busy node where every resident, the new job included, is
  /// predicted to stay at or below the bound. If no busy node qualifies the
  /// unbounded rule applies: lowest cost over all free-core nodes, where an
  /// empty node costs 1.0. Negative or NaN is rejected.
  double max_slowdown = 0.0;
};

/// One arriving job: which catalog application, and when.
struct Job {
  AppId app = 0;
  double arrival_s = 0.0;
};

/// Seeded arrival stream: `count` jobs drawn uniformly from `num_apps`
/// catalog entries with exponential inter-arrival gaps of the given mean.
std::vector<Job> make_job_stream(std::size_t num_apps, std::size_t count,
                                 double mean_interarrival_s,
                                 std::uint64_t seed);

/// Per-job replay record (ground truth from the contention solver, never
/// from the model).
struct JobOutcome {
  std::uint32_t node = 0;
  std::uint8_t pstate = 0;   // node P-state at placement time
  bool deadline_met = true;
  double arrival_s = 0.0;
  double start_s = 0.0;      // placement time (>= arrival when queued)
  double finish_s = 0.0;
  /// Observed time / run-alone time at config.pstate_index — the fixed
  /// reference makes slowdowns comparable across policies including DVFS.
  double slowdown = 1.0;
};

struct ReplayOutcome {
  sched::PlacementPolicy policy = sched::PlacementPolicy::kFirstFit;
  std::vector<JobOutcome> jobs;  // indexed by job stream position
  double makespan_s = 0.0;
  double mean_slowdown = 0.0;
  double max_slowdown = 0.0;
  double mean_wait_s = 0.0;
  double total_energy_j = 0.0;
  double deadline_miss_rate = 0.0;
  std::uint64_t events_processed = 0;   // completions replayed: one per job
  std::uint64_t contention_solves = 0;  // fixed points actually run
  std::uint64_t rate_cache_hits = 0;    // memoized fixed points reused
};

namespace detail {

/// The fleet's next resident completion, declared here so tests can drive
/// it. A tournament tree over nodes: leaf n holds node n's earliest
/// completion as (time, seq) and the job it finishes, and every internal
/// slot holds the node whose key is least by time, then seq, in its
/// subtree, so the root names the next completion. Setting or clearing a
/// node replays its O(log nodes) path to the root. The keys live in flat
/// per-node arrays, so a comparison reads two keys, not node state.
class CompletionIndex {
 public:
  /// Sizes the index for `nodes` nodes, none holding an entry.
  void reset(std::size_t nodes);
  /// Sets `node`'s entry to its earliest resident completion.
  void set(std::uint32_t node, double time_s, std::uint64_t seq,
           std::size_t job_index);
  /// Removes `node`'s entry (the node has no residents).
  void clear(std::uint32_t node);

  /// The node whose entry comes first; its time is +inf when no node holds
  /// an entry.
  std::uint32_t top() const { return winner_[1]; }
  double time_s(std::uint32_t node) const { return time_s_[node]; }
  std::size_t job_index(std::uint32_t node) const { return job_index_[node]; }

 private:
  bool before(std::uint32_t a, std::uint32_t b) const {
    return time_s_[a] < time_s_[b] ||
           (time_s_[a] == time_s_[b] && seq_[a] < seq_[b]);
  }
  /// Recomputes the winners on `node`'s path from its leaf to the root.
  void update_path(std::uint32_t node);

  std::size_t leaves_ = 0;  // node count rounded up to a power of two
  // Per leaf; a leaf without an entry (or past the last node) holds +inf
  // and the largest seq.
  std::vector<double> time_s_;
  std::vector<std::uint64_t> seq_;
  std::vector<std::size_t> job_index_;
  // winner_[i] for i in [1, leaves_) is the winning leaf of subtree i, whose
  // children are 2i and 2i + 1; winner_[leaves_ + n] is leaf n itself.
  std::vector<std::uint32_t> winner_;
};

}  // namespace detail

class EventSimulator {
 public:
  /// Rate-memo entries.
  static constexpr std::size_t kRateCacheCapacity = std::size_t{1} << 13;

  /// `catalog[i]` must be the application the service knows as AppId i
  /// (checked). `baselines` powers the kDvfsAware deadline leg and may be
  /// null for the other policies. All pointers are borrowed.
  EventSimulator(EventSimConfig config, sim::AppMrcLibrary* library,
                 std::vector<sim::ApplicationSpec> catalog,
                 PlacementService* service,
                 const core::BaselineLibrary* baselines = nullptr);

  /// Replays the job stream under one policy. Resets the mirrored fleet
  /// first, so a simulator can be reused across policies.
  ReplayOutcome replay(const std::vector<Job>& jobs,
                       sched::PlacementPolicy policy);

  /// Run-alone execution time at config.pstate_index (solved once per
  /// catalog app at construction).
  double alone_time(AppId app) const;

 private:
  struct Resident {
    std::size_t job_index = 0;
    AppId app = 0;
    double remaining_instructions = 0.0;
    double rate = 0.0;  // instructions/s at the current fixed point
  };
  struct NodeState {
    std::vector<Resident> residents;  // sorted by (app, job_index)
    std::size_t pstate = 0;
    double last_update_s = 0.0;
    double energy_j = 0.0;
  };

  /// Advances one node's residents (and energy) to `now`.
  void advance_node(NodeState& node, double now);
  /// Re-solves the node's contention fixed point (memoized) and sets its
  /// completion entry to the earliest resident completion.
  void resolve_node(NodeState& node, std::uint32_t node_index, double now,
                    ReplayOutcome& outcome);
  /// Picks a node for `job` under `policy`; returns config_.nodes when no
  /// node has a free core.
  std::size_t pick_node(const Job& job, sched::PlacementPolicy policy);

  EventSimConfig config_;
  sim::AppMrcLibrary* library_;
  std::vector<sim::ApplicationSpec> catalog_;
  PlacementService* service_;
  const core::BaselineLibrary* baselines_;
  std::vector<const core::BaselineProfile*> baseline_by_app_;

  std::vector<NodeState> nodes_;
  detail::CompletionIndex completions_;
  // Advances once per resident at every re-solve; among equal completion
  // times the lower seq comes first.
  std::uint64_t next_seq_ = 0;

  /// Fixed-point memo keyed by membership_id << 8 | P-state. The service
  /// mirrors every add/remove before resolve_node runs, so the id names
  /// exactly the resident multiset; values are instruction rates aligned
  /// with the sorted resident order.
  FlatMemo<std::vector<double>> rate_cache_;
  std::vector<double> alone_time_s_;  // indexed by AppId

  // Per-replay query scratch (allocation-free steady state).
  std::vector<std::uint32_t> candidate_scratch_;
  std::vector<std::uint8_t> pstate_scratch_;
  std::vector<double> cost_scratch_;
  std::vector<double> worst_scratch_;  // empty unless max_slowdown > 0
  std::vector<sim::ScheduledApp> solve_scratch_;
};

}  // namespace coloc::serve
