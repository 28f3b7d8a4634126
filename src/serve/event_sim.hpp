// Cluster-scale discrete-event replay driven by the placement service.
//
// Jobs arrive over time, run co-located on multicore nodes, and finish.
// Between events each resident progresses at the instruction rate of its
// node's contention fixed point (processor sharing), and a node draws
// package energy while residents are present. Rescanning every node's
// residents for the next completion would cost O(nodes x residents) per
// step, so the replay runs on an event heap:
//
//   * Completions live in a min-heap ordered by (time, seq). Each node
//     carries an epoch counter; any membership change bumps it, so stale
//     completion events pop and are discarded in O(log E) instead of being
//     searched for. Only the touched node is re-solved.
//   * Contention fixed points are memoized by (P-state, the service's
//     interned membership id) — a bounded application catalog means a long
//     replay revisits the same co-locations constantly, so steady-state
//     membership changes cost a table lookup, not a solver run.
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
// deadline, so every node runs at its own P-state.
//
// Replays are deterministic: no wall clock, no randomness beyond the seeded
// job stream, and all caches are pure memoization. The same jobs + seed
// produce bit-identical JobOutcome streams at any --jobs level (policies
// replay on independent service/simulator instances) and across zoo bundle
// save/load (verified entries reload bit-identically).
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

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
  sim::ContentionOptions contention;
  /// Deadline = arrival + deadline_slack x run-alone time at pstate_index.
  double deadline_slack = 3.0;
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
  std::uint64_t events_processed = 0;   // heap pops, incl. stale
  std::uint64_t contention_solves = 0;  // fixed points actually run
  std::uint64_t rate_cache_hits = 0;    // memoized fixed points reused
};

class EventSimulator {
 public:
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
    std::uint64_t epoch = 0;   // bumps on every membership/P-state change
    double last_update_s = 0.0;
    double energy_j = 0.0;
  };
  struct Event {
    double time_s = 0.0;
    std::uint64_t seq = 0;  // tie-break: FIFO among equal-time events
    std::uint32_t node = 0;
    std::uint64_t epoch = 0;
    std::size_t job_index = 0;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time_s != b.time_s) return a.time_s > b.time_s;
      return a.seq > b.seq;
    }
  };

  /// Advances one node's residents (and energy) to `now`.
  void advance_node(NodeState& node, double now);
  /// Re-solves the node's contention fixed point (memoized) and pushes
  /// fresh completion events under a new epoch.
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
  std::priority_queue<Event, std::vector<Event>, EventAfter> heap_;
  std::uint64_t next_seq_ = 0;

  /// Fixed-point memo keyed by membership_id << 8 | P-state. The service
  /// mirrors every add/remove before resolve_node runs, so the id names
  /// exactly the resident multiset; values are instruction rates aligned
  /// with the sorted resident order.
  std::unordered_map<std::uint64_t, std::vector<double>> rate_cache_;
  std::vector<double> alone_time_s_;  // indexed by AppId

  // Per-replay query scratch (allocation-free steady state).
  std::vector<std::uint32_t> candidate_scratch_;
  std::vector<std::uint8_t> pstate_scratch_;
  std::vector<double> cost_scratch_;
  std::vector<double> worst_scratch_;  // empty unless max_slowdown > 0
  std::vector<sim::ScheduledApp> solve_scratch_;
};

}  // namespace coloc::serve
