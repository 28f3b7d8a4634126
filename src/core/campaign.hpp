// Training-data collection campaign — Section IV-B3 / Table V.
//
// The paper's sweep, reproduced verbatim as nested loops:
//
//   for each multicore processor:
//     for each frequency (six P-states):
//       for each target application (all eleven):
//         for each co-located application (cg, sp, fluidanimate, ep):
//           for each number of co-locations (1 .. cores-1):
//             get_exec_time_of_target()
//
// Co-located copies are homogeneous (all the same application), giving a
// sparse but *uniform* cover of the co-location space — the design property
// the paper contrasts with random sampling in [DwF12].
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "fault/checkpoint.hpp"
#include "fault/resilient_runner.hpp"
#include "ml/dataset.hpp"
#include "sim/execution.hpp"

namespace coloc::core {

struct CampaignConfig {
  /// Target applications (defaults to the full 11-app suite).
  std::vector<sim::ApplicationSpec> targets;
  /// Co-runner applications (defaults to the four class representatives).
  std::vector<sim::ApplicationSpec> coapps;
  /// Numbers of co-located copies to sweep; empty = 1 .. cores-1.
  std::vector<std::size_t> colocation_counts;
  /// P-state indices to sweep; empty = all states of the machine.
  std::vector<std::size_t> pstate_indices;
  /// The most global_pool() workers that measure cells at once.
  /// 0 = coloc::configured_jobs() (the --jobs / COLOC_JOBS knob); 1 =
  /// serial, on the calling thread. Any value produces a bit-identical
  /// dataset, checkpoint, and completeness report: cells are measured out
  /// of order but committed in sweep order, and every measurement is a
  /// pure function of its cell.
  std::size_t jobs = 0;

  static CampaignConfig paper_defaults();
};

/// Resilience knobs for a campaign. The defaults (retries under a deadline,
/// no checkpointing) are numerically identical to a plain sweep against a
/// healthy measurement source: a first attempt uses repetition 0, exactly
/// as the unwrapped loops did.
struct CampaignRobustness {
  fault::RetryPolicy retry;
  /// CSV state file for completed cells ("" disables checkpointing).
  std::string checkpoint_path;
  /// Cells between periodic checkpoint flushes (a final flush always runs).
  std::size_t checkpoint_every = 25;
  /// Load checkpoint_path first and skip already-measured tags.
  bool resume = false;
  /// Test hook simulating a crash: after this many measured (not resumed)
  /// cells the campaign flushes its checkpoint and throws. 0 = never.
  std::size_t abort_after_cells = 0;
};

struct CampaignResult {
  ml::Dataset dataset;  // 8 features + co-located execution time + tag
  BaselineLibrary baselines;
  std::size_t total_runs = 0;
  /// Attempt/retry/quarantine accounting for the whole sweep (baseline
  /// pass included). completeness() < 1 means the dataset has holes.
  fault::CompletenessReport completeness;

  /// Tag format: "<target>|<coapp>|x<count>|p<pstate>".
  static std::string make_tag(const std::string& target,
                              const std::string& coapp, std::size_t count,
                              std::size_t pstate);
  /// Extracts the target application name from a row tag.
  static std::string tag_target(const std::string& tag);
};

/// Runs the full campaign on one measurement source (a simulated machine,
/// or any decorated stack such as a fault::FaultInjector). Baselines are
/// collected first (one run-alone pass per app per P-state), then every
/// co-location cell is measured once, exactly like the paper's collection
/// code — but each measurement runs through a fault::ResilientRunner, so
/// flaky cells are retried with backoff and exhausted cells are
/// quarantined (dropped from the dataset, listed in the report) instead of
/// aborting the sweep.
///
/// Orchestration: the nested Table V loops are enumerated up front into a
/// flat task list, cut into chunks whose size depends only on the cell
/// count, and run as one parallel_for on global_pool() capped at
/// config.jobs workers. The worker that finishes the chunk at the commit
/// cursor commits every consecutive finished chunk strictly in sweep order
/// (dataset rows, checkpoint records, runner accounting, progress, the
/// abort_after_cells cut-off); after an abort or a failed chunk nothing
/// past it commits. The commit sequence — and hence every output byte — is
/// identical to the serial sweep at any thread count; only wall-clock time
/// changes.
CampaignResult run_campaign(sim::MeasurementSource& source,
                            const CampaignConfig& config,
                            const CampaignRobustness& robustness = {});

}  // namespace coloc::core
