#include "core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"

namespace coloc::core {

namespace {
// Resolved once; references stay valid for the process lifetime.
struct CampaignMetrics {
  obs::Counter& cells_colocated;
  obs::Counter& baselines;
  obs::Counter& tasks_queued;
  obs::Counter& tasks_completed;
  obs::Histogram& cell_seconds;

  static CampaignMetrics& get() {
    auto& registry = obs::Registry::global();
    static CampaignMetrics metrics{
        registry.counter("campaign_cells_total", {{"phase", "colocated"}}),
        registry.counter("campaign_baselines_total"),
        registry.counter("orchestrator_tasks_queued_total",
                         {{"stage", "campaign"}}),
        registry.counter("orchestrator_tasks_completed_total",
                         {{"stage", "campaign"}}),
        registry.histogram("campaign_cell_seconds"),
    };
    return metrics;
  }
};
}  // namespace

CampaignConfig CampaignConfig::paper_defaults() {
  CampaignConfig config;
  config.targets = sim::benchmark_suite();
  for (const std::string& name : sim::training_coapp_names())
    config.coapps.push_back(sim::find_application(name));
  return config;
}

std::string CampaignResult::make_tag(const std::string& target,
                                     const std::string& coapp,
                                     std::size_t count, std::size_t pstate) {
  return target + "|" + coapp + "|x" + std::to_string(count) + "|p" +
         std::to_string(pstate);
}

std::string CampaignResult::tag_target(const std::string& tag) {
  const auto bar = tag.find('|');
  return bar == std::string::npos ? tag : tag.substr(0, bar);
}

namespace {
/// One cell of the Table V sweep, fully resolved at enumeration time so a
/// worker thread can measure it without touching any shared state. The
/// pointers reference CampaignConfig vectors, the baseline library, and
/// the checkpoint's node-stable map — all immutable (or append-only) for
/// the duration of the sweep.
struct CellPlan {
  std::string tag;
  const sim::ApplicationSpec* target = nullptr;
  const sim::ApplicationSpec* coapp = nullptr;
  std::size_t count = 0;
  /// `count` copies of *coapp, shared by every cell of the sweep that runs
  /// them.
  const std::vector<sim::ApplicationSpec>* corunners = nullptr;
  std::size_t pstate = 0;
  std::vector<double> features;      // empty when skipped or resumed
  double reference_time_s = 0.0;
  bool skipped = false;              // baseline quarantined; no measurement
  std::string skip_reason;
  const fault::CheckpointRow* resumed = nullptr;  // replay, don't measure

  bool needs_measure() const { return !skipped && resumed == nullptr; }
};

/// Runs one planned cell's retry loop, every reading confirmed (see
/// confirmed_read). Pure in (plan, attempt): the repetition seeds are
/// functions of the cell identity alone, so this is safe — and
/// bit-reproducible — from any worker thread in any order.
fault::CellOutcome measure_plan(sim::MeasurementSource& source,
                                fault::ResilientRunner& runner,
                                const CellPlan& plan) {
  const sim::ApplicationSpec& target = *plan.target;
  const std::size_t p = plan.pstate;
  const std::vector<sim::ApplicationSpec>& corunners = *plan.corunners;
  return runner.measure_outcome(
      plan.tag, plan.reference_time_s, [&](std::uint64_t attempt) {
        return confirmed_read(plan.tag, attempt, [&](std::uint64_t rep) {
          return source.run_colocated(target, corunners, p, rep);
        });
      });
}
}  // namespace

CampaignResult run_campaign(sim::MeasurementSource& source,
                            const CampaignConfig& config,
                            const CampaignRobustness& robustness) {
  COLOC_CHECK_MSG(!config.targets.empty(), "campaign needs target apps");
  COLOC_CHECK_MSG(!config.coapps.empty(), "campaign needs co-runner apps");

  obs::ScopedSpan campaign_span("campaign", "core");
  obs::StageTimer stage_timer("campaign");
  CampaignMetrics& metrics = CampaignMetrics::get();

  const sim::MachineConfig& machine = source.machine();

  std::vector<std::size_t> counts = config.colocation_counts;
  if (counts.empty()) {
    for (std::size_t c = 1; c < machine.cores; ++c) counts.push_back(c);
  }
  for (std::size_t c : counts) {
    COLOC_CHECK_MSG(c + 1 <= machine.cores,
                    "co-location count exceeds available cores");
  }

  std::vector<std::size_t> pstates = config.pstate_indices;
  if (pstates.empty()) {
    for (std::size_t p = 0; p < machine.pstates.size(); ++p)
      pstates.push_back(p);
  }

  CampaignResult result;
  result.dataset = ml::Dataset(feature_names(), "colocExTime");

  const std::size_t jobs = config.jobs != 0 ? config.jobs : configured_jobs();
  fault::ResilientRunner runner(robustness.retry);

  std::unique_ptr<fault::CampaignCheckpoint> checkpoint;
  if (!robustness.checkpoint_path.empty()) {
    checkpoint = std::make_unique<fault::CampaignCheckpoint>(
        robustness.checkpoint_path, feature_names(), "colocExTime",
        robustness.checkpoint_every);
    if (robustness.resume) checkpoint->load();
  }

  // Baselines for every application that appears as target or co-runner.
  std::vector<sim::ApplicationSpec> all_apps = config.targets;
  for (const auto& co : config.coapps) {
    const bool present =
        std::any_of(all_apps.begin(), all_apps.end(),
                    [&co](const auto& a) { return a.name == co.name; });
    if (!present) all_apps.push_back(co);
  }
  {
    obs::ScopedSpan baseline_span("campaign/baselines", "core");
    result.baselines = collect_baselines(source, all_apps, &runner);
    metrics.baselines.inc(result.baselines.size());
  }

  // --- Enumerate: flatten the nested Table V loops into a task list in
  // exact sweep order. Skip/resume decisions and feature vectors are
  // resolved here, on the calling thread, so each remaining cell is a
  // self-contained measurement task.
  auto resolve = [&](CellPlan& plan) {
    const std::string* missing = nullptr;
    if (result.baselines.count(plan.target->name) == 0) {
      missing = &plan.target->name;
    } else if (result.baselines.count(plan.coapp->name) == 0) {
      missing = &plan.coapp->name;
    }
    if (missing != nullptr) {
      // An application whose baseline was quarantined has no feature
      // vector; every cell involving it is skipped and accounted.
      plan.skipped = true;
      plan.skip_reason = "baseline quarantined for " + *missing;
      return;
    }
    if (checkpoint != nullptr) {
      plan.resumed = checkpoint->find(plan.tag);
      if (plan.resumed != nullptr) return;  // replay verbatim at commit
    }
    const BaselineProfile& target_baseline =
        result.baselines.at(plan.target->name);
    const std::vector<const BaselineProfile*> co_profiles(
        plan.count, &result.baselines.at(plan.coapp->name));
    const auto features =
        compute_features(target_baseline, co_profiles, plan.pstate);
    plan.features.assign(features.begin(), features.end());
    plan.reference_time_s = target_baseline.time_at(plan.pstate);
  };

  // The co-runner set of each (co-runner, count) pair, built once for the
  // whole sweep: every target at every P-state runs against the same set.
  std::vector<std::vector<sim::ApplicationSpec>> corunner_sets;
  corunner_sets.reserve(config.coapps.size() * counts.size());
  for (const auto& coapp : config.coapps) {
    for (std::size_t count : counts) corunner_sets.emplace_back(count, coapp);
  }

  std::vector<CellPlan> plans;
  plans.reserve(pstates.size() * config.targets.size() *
                corunner_sets.size());
  for (std::size_t p : pstates) {
    for (const auto& target : config.targets) {
      const std::vector<sim::ApplicationSpec>* corunners =
          corunner_sets.data();
      for (const auto& coapp : config.coapps) {
        for (std::size_t count : counts) {
          CellPlan plan;
          plan.tag = CampaignResult::make_tag(target.name, coapp.name, count,
                                              p);
          plan.target = &target;
          plan.coapp = &coapp;
          plan.count = count;
          plan.corunners = corunners++;
          plan.pstate = p;
          resolve(plan);
          plans.push_back(std::move(plan));
        }
      }
    }
  }

  // One progress unit per campaign cell (a dataset row).
  obs::ProgressReporter progress("campaign " + machine.name, plans.size());

  // --- Fan out + sequenced commit. Cells are coalesced into contiguous
  // chunks so each chunk amortizes its scheduling over many sweep cells;
  // the chunk size is a pure function of the plan count, NOT of jobs, so
  // the work decomposition is identical at any --jobs value. Up to `jobs`
  // workers measure chunks; whichever finishes the chunk at the commit
  // cursor commits every consecutive finished chunk, strictly in plan
  // order, so every output (dataset, checkpoint, completeness report) is
  // byte-identical to the serial sweep. At jobs = 1 the chunks run inline,
  // each measured then committed: the serial sweep itself.
  const std::size_t chunk_cells =
      std::clamp<std::size_t>(plans.size() / 64, 1, 64);
  const std::size_t num_chunks =
      (plans.size() + chunk_cells - 1) / chunk_cells;

  // Per-cell spans and timing are stride-sampled on big sweeps: one
  // observed cell per stride keeps trace and histogram representative
  // without a per-cell clock/event flood.
  const std::size_t span_stride = std::max<std::size_t>(1, plans.size() / 512);

  std::vector<std::optional<fault::CellOutcome>> outcomes(plans.size());
  std::vector<double> measure_seconds(plans.size(), 0.0);
  metrics.tasks_queued.inc(static_cast<std::size_t>(std::count_if(
      plans.begin(), plans.end(),
      [](const CellPlan& plan) { return plan.needs_measure(); })));

  auto measure_into = [&](std::size_t d) {
    if (d % span_stride == 0) {
      obs::ScopedSpan cell_span("campaign/cell", "core");
      const auto start = std::chrono::steady_clock::now();
      outcomes[d] = measure_plan(source, runner, plans[d]);
      measure_seconds[d] = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    } else {
      outcomes[d] = measure_plan(source, runner, plans[d]);
    }
  };

  // Commit state, guarded by commit_mutex. A chunk that threw never
  // finishes, so the cursor stops in front of it; an abort or a failed
  // commit sets `stopped`. Either way nothing past the cut-off commits.
  std::mutex commit_mutex;
  std::vector<char> chunk_finished(num_chunks, 0);
  std::size_t commit_cursor = 0;
  bool stopped = false;
  std::size_t measured_cells = 0;

  auto maybe_abort = [&] {
    if (robustness.abort_after_cells == 0) return;
    if (measured_cells < robustness.abort_after_cells) return;
    if (checkpoint != nullptr) checkpoint->flush();
    throw coloc::runtime_error(
        "campaign aborted after " + std::to_string(measured_cells) +
        " measured cells (abort_after_cells test hook)");
  };

  auto commit_cell = [&](std::size_t i) {
    const CellPlan& plan = plans[i];
    if (plan.skipped) {
      runner.note_skipped_cell(plan.tag, plan.skip_reason);
      progress.tick();
      return;
    }
    if (plan.resumed != nullptr) {
      // Completed in a previous run: replay the stored row verbatim.
      result.dataset.add_row(plan.resumed->features, plan.resumed->target,
                             plan.tag);
      ++result.total_runs;
      runner.note_resumed_cell();
      progress.tick();
      maybe_abort();
      return;
    }
    fault::CellOutcome outcome = std::move(*outcomes[i]);
    outcomes[i].reset();
    metrics.tasks_completed.inc();

    const auto measurement =
        runner.commit_outcome(plan.tag, std::move(outcome));
    progress.tick();
    if (measurement) {
      result.dataset.add_row(plan.features, measurement->execution_time_s,
                             plan.tag);
      ++result.total_runs;
      ++measured_cells;
      if (checkpoint != nullptr) {
        checkpoint->record(plan.tag, plan.features,
                           measurement->execution_time_s);
      }
      metrics.cells_colocated.inc();
      if (i % span_stride == 0) {
        metrics.cell_seconds.observe(measure_seconds[i]);
      }
    }
    maybe_abort();
  };

  auto run_chunk = [&](std::size_t c) {
    const std::size_t begin = c * chunk_cells;
    const std::size_t end = std::min(begin + chunk_cells, plans.size());
    for (std::size_t d = begin; d < end; ++d) {
      if (plans[d].needs_measure()) measure_into(d);
    }
    std::lock_guard<std::mutex> lock(commit_mutex);
    if (stopped) return;
    chunk_finished[c] = 1;
    try {
      for (; commit_cursor < num_chunks && chunk_finished[commit_cursor];
           ++commit_cursor) {
        const std::size_t first = commit_cursor * chunk_cells;
        const std::size_t last = std::min(first + chunk_cells, plans.size());
        for (std::size_t i = first; i < last; ++i) commit_cell(i);
      }
    } catch (...) {
      stopped = true;
      throw;
    }
  };

  const PoolStats pool_stats =
      parallel_for(global_pool(), num_chunks, run_chunk, 1, jobs);

  if (checkpoint != nullptr) checkpoint->flush();

  // Per-stage gauges from this call's own accounting keep idle time from
  // other stages out of the campaign's attribution.
  export_stage_pool_gauges("campaign", pool_stats);

  result.completeness = runner.report();
  return result;
}

}  // namespace coloc::core
