// Shared plumbing for the experiment harnesses: every bench binary
// regenerates one table or figure of the paper. Common CLI flags:
//   --partitions=N      validation partitions (default 10; paper uses 100)
//   --nn-iters=N        SCG iterations per network (default 1500)
//   --seed=N            master seed for the simulated testbed noise
//   --quick             tiny configuration for smoke runs
//   --jobs=N            worker threads for campaign + validation
//                       (0 = auto; overrides COLOC_JOBS; results are
//                       bit-identical at any value)
//   --restarts=N        SCG restarts per network fit, in [1, 64] (default
//                       1; the winner is the lowest-loss restart, fused
//                       into batched kernels unless disabled)
//   --no-parallel-restarts  train restarts one at a time through the
//                       sequential reference loop instead of the fused
//                       batched path (bit-identical either way)
//   --sweep-scale=N     multiply the campaign sweep N-fold (cloned targets)
//   --jobs-sweep=LIST   comma-separated jobs values to re-run the campaign
//                       at (bench_perf_pipeline; emits jobs_scaling JSON)
//   --metrics-out=FILE  write a metrics snapshot at exit (.json or text)
//   --trace-out=FILE    write a chrome://tracing span file (+ CSV twin)
//   --bundle-out=DIR    write a full run bundle: DIR/manifest.json +
//                       DIR/metrics.json + DIR/trace.json (consumed by
//                       tools/obs_report; overrides the two flags above)
//
// Robustness flags (see the Robustness section in README.md):
//   --fault-rate=P      inject faults at rate P (overrides COLOC_FAULT_RATE)
//   --checkpoint=FILE   checkpoint campaign cells (per-machine suffix added)
//   --checkpoint-every=N  cells between periodic checkpoint flushes
//   --resume            load the checkpoint and skip measured cells
//
// Every bench main holds one obs::ObsSession built from run_session();
// besides honoring the flags above it prints a machine-readable
// "total_wall_time_s=... peak_rss_mb=..." cost line when the run ends.
#pragma once

#include <cstdint>
#include <string>

#include "common/cli.hpp"
#include "core/campaign.hpp"
#include "core/methodology.hpp"
#include "core/report.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/session.hpp"
#include "sim/execution.hpp"

namespace coloc::bench {

struct HarnessConfig {
  std::size_t partitions = 10;
  std::size_t nn_iterations = 1500;
  std::uint64_t seed = 99;
  bool quick = false;
  /// --jobs: worker threads for the campaign and validation stages.
  /// 0 = auto (COLOC_JOBS env, else hardware concurrency). A non-zero
  /// value also becomes the process-wide coloc::configured_jobs().
  std::size_t jobs = 0;
  std::string metrics_out;  // --metrics-out
  std::string trace_out;    // --trace-out
  std::string bundle_out;   // --bundle-out (bundle dir; wins over both)
  std::string program = "bench";
  double fault_rate = -1.0;  // --fault-rate; < 0 defers to COLOC_FAULT_RATE
  std::string fault_kinds;   // --fault-kinds; "" defers to COLOC_FAULT_KINDS
  std::string checkpoint;    // --checkpoint; "" disables checkpointing
  std::size_t checkpoint_every = 25;  // --checkpoint-every
  bool resume = false;                // --resume
  std::string zoo_out;  // --zoo-out: save the trained zoo bundle here
  std::string zoo_in;   // --zoo-in: load (and repair) a zoo bundle from here
  /// --sweep-scale=N: multiply the campaign sweep by N (each target app is
  /// cloned N-1 times under derived names), exercising orchestration at
  /// 10-100x the paper's cell count. 1 = the paper sweep.
  std::size_t sweep_scale = 1;
  /// --jobs-sweep=1,2,4,8: re-run the campaign at each listed jobs value
  /// and emit a jobs_scaling curve (bench_perf_pipeline only).
  std::string jobs_sweep;
  /// --restarts=N: SCG restarts per network fit, validated into [1, 64].
  /// Per-restart RNG streams make the result independent of how the
  /// restarts are executed (sequential or fused).
  std::size_t restarts = 1;
  /// --no-parallel-restarts: pin fits to the sequential reference restart
  /// loop (no fused batched kernels).
  bool sequential_restarts = false;

  static HarnessConfig from_cli(const CliArgs& args);

  core::EvaluationConfig evaluation() const;

  /// Observability options for this run (pass to obs::ObsSession).
  obs::ObsOptions run_session() const;

  /// Fault plan for this run: COLOC_FAULT_* environment overridden by
  /// --fault-rate when the flag was given.
  fault::FaultPlanConfig fault_plan() const;

  /// Campaign resilience knobs. The checkpoint path gets a sanitized
  /// per-machine suffix so multi-machine benches never share state files.
  core::CampaignRobustness robustness(const std::string& machine_name) const;
};

/// One machine's full pipeline: MRC profiling, Table V campaign, and the
/// 12-model evaluation suite. Construction runs the campaign.
class MachineExperiment {
 public:
  MachineExperiment(sim::MachineConfig machine, const HarnessConfig& config);

  const sim::MachineConfig& machine() const { return machine_; }
  const core::CampaignResult& campaign() const { return campaign_; }
  sim::Simulator& simulator() { return simulator_; }

  /// Evaluates all twelve models (optionally retaining one model's
  /// held-out predictions for Figure 5b).
  core::EvaluationSuite evaluate(
      std::optional<core::ModelId> collect_for = std::nullopt) const;

  /// Prints one figure (Figures 1-4): the metric across sets A-F for both
  /// techniques, training and testing error.
  void print_figure(const std::string& title, core::Metric metric) const;

 private:
  HarnessConfig config_;
  sim::MachineConfig machine_;
  sim::AppMrcLibrary library_;
  sim::Simulator simulator_;
  fault::FaultPlan plan_;
  fault::FaultInjector injector_;  // pass-through when the rate is zero
  core::CampaignResult campaign_;
};

}  // namespace coloc::bench
