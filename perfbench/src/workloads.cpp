#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <numeric>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/campaign.hpp"
#include "core/methodology.hpp"
#include "core/zoo_artifacts.hpp"
#include "inputs.hpp"
#include "ml/serialization.hpp"
#include "serve/demo_fleet.hpp"
#include "serve/event_sim.hpp"
#include "serve/placement_service.hpp"
#include "sim/app_model.hpp"
#include "sim/execution.hpp"
#include "sim/machine.hpp"
#include "sim/profile_memo.hpp"

namespace perfbench {

namespace {

using namespace coloc;

// --- Sizes ------------------------------------------------------------------

// Worker threads: the host has four cores; parallel workloads use two so
// a neighbour's load moves them less, placement workloads use one.
constexpr std::size_t kParallelJobs = 2;
constexpr std::size_t kSerialJobs = 1;
// Set-up is repeated (at least kMinSetupReps times and kMinSetupSeconds
// in total, at most kMaxSetupReps) and its median reported, so work moved
// into set-up shows without one slow repetition deciding the number.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 9;
constexpr double kMinSetupSeconds = 2.0;

// paper_protocol: validation partitions per model and SCG iteration cap.
constexpr std::size_t kPartitions = 2;
constexpr std::size_t kNnIterations = 1500;
constexpr std::uint64_t kTestbedSeed = 99;  // simulated testbed noise

// characterize: variants per Table III app and name-distinct clone rounds.
constexpr std::size_t kVariantsPerApp = 1;
constexpr std::size_t kCloneRounds = 12;

// placement workloads: the demo fleet.
constexpr std::size_t kFleetNodes = 64;
constexpr std::size_t kArrivals = 1'000'000;
constexpr double kUtilization = 0.5;
constexpr std::size_t kDemoNnIterations = 400;
constexpr std::size_t kQueryApps = 2000;
constexpr std::size_t kQueryResidents = 2;  // initial residents per node
constexpr std::size_t kQueryMaxResidents = 3;
constexpr std::size_t kQueriesPerPass = 20'000;

sim::MeasurementOptions testbed_options() {
  sim::MeasurementOptions options;
  options.seed = kTestbedSeed;
  return options;
}

// --- Run skeleton -------------------------------------------------------------

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Shared shape of every workload: probe the host, set up several
/// times, repeat the timed pass until the measuring time is spent, probe
/// again. In a traced run every second pass (and the first set-up) is
/// traced, so traced and untraced passes interleave and their medians give
/// the tracing overhead.
class Run {
 public:
  explicit Run(const RunOptions& options)
      : options_(options), tracer_(options.trace) {
    probe_start_ = HostProbe::measure();
  }

  Tracer& tracer() { return tracer_; }
  RunResult& result() { return result_; }

  /// Runs `setup_once` repeatedly (see kMinSetupReps); it rebuilds its
  /// state from scratch each time. The first repetition is traced.
  void setup(const std::function<void()>& setup_once) {
    double total_s = 0.0;
    for (std::size_t rep = 0;
         rep < kMinSetupReps ||
         (total_s < kMinSetupSeconds && rep < kMaxSetupReps);
         ++rep) {
      tracer_.set_active(rep == 0);
      const auto t0 = Clock::now();
      {
        auto span = tracer_.span("setup");
        setup_once();
      }
      setup_s_.push_back(seconds_since(t0));
      total_s += setup_s_.back();
    }
  }

  /// Repeats `pass(index)` until the measuring time is spent (at least two
  /// passes). `pass` returns its timed seconds (the measured phase only).
  void passes(const std::function<double(std::size_t)>& pass) {
    const auto start = Clock::now();
    for (std::size_t i = 0;
         i < 2 || seconds_since(start) < options_.seconds; ++i) {
      const bool traced = options_.trace && i % 2 == 1;
      tracer_.set_active(traced);
      double timed_s = 0.0;
      {
        auto span = tracer_.span("pass");
        timed_s = pass(i);
      }
      (traced ? traced_s_ : untraced_s_).push_back(timed_s);
    }
    tracer_.set_active(false);
  }

  /// Checks that every pass produced the same output digest.
  void expect_identical(const std::vector<std::string>& digests,
                        const std::string& what) {
    bool same = true;
    for (const std::string& d : digests) same = same && d == digests.front();
    result_.check(!digests.empty() && same,
                  what + " bit-identical across passes");
    if (!digests.empty()) result_.note(what + "_digest", digests.front());
  }

  /// Adds probe and pass diagnostics, then the end-to-end metrics in the
  /// untraced run or the per-layer rows in the traced one. `work_per_s` is
  /// the median pass throughput in the workload's own work unit; `guard`
  /// is its deterministic output value (see LAYERS.md).
  void finish(double work_per_s, double guard, double gemm_flops_per_epoch) {
    const double rss_mb = peak_rss_mb();  // before the probe allocates
    const HostProbe probe_end = HostProbe::measure();
    const auto note_probe = [this](const std::string& prefix,
                                   const HostProbe& p) {
      result_.note(prefix + "triad_gbs", p.triad_gbs);
      result_.note(prefix + "chase_ns", p.chase_ns);
      result_.note(prefix + "compute_gflops", p.compute_gflops);
    };
    note_probe("probe_start_", probe_start_);
    note_probe("probe_end_", probe_end);
    result_.note("passes_untraced", static_cast<double>(untraced_s_.size()));
    result_.note("passes_traced", static_cast<double>(traced_s_.size()));
    for (std::size_t i = 0; i < setup_s_.size(); ++i) {
      result_.note("setup_rep" + std::to_string(i) + "_s", setup_s_[i]);
    }
    for (std::size_t i = 0; i < untraced_s_.size(); ++i) {
      result_.note("pass" + std::to_string(i) + "_s", untraced_s_[i]);
    }
    HostProbe bound;
    bound.chase_ns = 0.5 * (probe_start_.chase_ns + probe_end.chase_ns);
    bound.compute_gflops =
        0.5 * (probe_start_.compute_gflops + probe_end.compute_gflops);
    if (options_.trace) {
      per_layer(bound, gemm_flops_per_epoch);
    } else {
      result_.metric("setup_s", median(setup_s_), "s");
      result_.metric("peak_rss_mb", rss_mb, "MB");
      result_.metric("work_per_s", work_per_s, "1/s");
      result_.metric("output_guard", guard, "ratio");
    }
  }

 private:
  void per_layer(const HostProbe& bound, double gemm_flops_per_epoch) {
    const LayerView view(tracer_);
    const RegistryDelta& d = view.delta();
    RunResult& r = result_;
    const auto hit_ratio = [&d](const char* hits, const char* misses) {
      const double h = d.counter(hits), m = d.counter(misses);
      return ratio(h, h + m);
    };
    r.metric("common.pool_queue_wait_p99_s",
             d.histogram_quantile("pool_queue_wait_seconds", 0.99), "s");
    r.metric("common.pool_busy_frac",
             ratio(view.pool_busy_s(), view.pool_busy_s() + view.pool_idle_s()),
             "ratio");

    const double profile_s = view.self_s("sim.profile");
    const double refs = d.counter("sim_trace_batch_refs_total");
    r.metric("sim.profile_s", profile_s, "s");
    r.metric("sim.trace_refs", refs, "count");
    r.metric("sim.profile_memo_hit_ratio",
             hit_ratio("sim_profile_memo_hits_total",
                       "sim_profile_memo_misses_total"),
             "ratio");
    r.metric("sim.contention_solves",
             d.counter("sim_contention_solves_total") +
                 view.count("replay_contention_solves"),
             "count");
    r.metric("sim.solve_cache_hit_ratio",
             hit_ratio("sim_solve_cache_hits_total",
                       "sim_solve_cache_misses_total"),
             "ratio");

    const double zoo_s = view.self_s("core.zoo_train");
    const double validation_s = view.self_s("ml.validation");
    r.metric("core.campaign_s", view.self_s("core.campaign"), "s");
    r.metric("core.campaign_cells",
             d.counter("campaign_cells_total", {{"phase", "alone"}}) +
                 d.counter("campaign_cells_total", {{"phase", "colocated"}}),
             "count");
    r.metric("core.zoo_train_s", zoo_s, "s");
    r.metric("fault.cell_attempts",
             d.histogram_sum("resilient_attempts_per_cell"), "count");
    r.metric("fault.retries", d.counter("resilient_retries_total"), "count");

    const double epochs = d.counter("scg_epochs_total");
    r.metric("ml.validation_s", validation_s, "s");
    r.metric("ml.scg_epochs", epochs, "count");
    r.metric("ml.scg_epochs_per_s", ratio(epochs, zoo_s + validation_s),
             "1/s");
    r.metric("ml.design_memo_hit_ratio",
             hit_ratio("validation_design_memo_hits_total",
                       "validation_design_memo_misses_total"),
             "ratio");

    // GEMM share of the worker time spent training; a fit on the calling
    // thread (no pool) counts its span time instead.
    const double gemm_s = d.histogram_sum("train_gemm_seconds");
    double train_worker_s = view.pool_busy_of("core.zoo_train") +
                            view.pool_busy_of("ml.validation");
    if (train_worker_s <= 0.0) train_worker_s = zoo_s + validation_s;
    r.metric("linalg.train_gemm_s", gemm_s, "s");
    r.metric("linalg.gemm_share", ratio(gemm_s, train_worker_s), "ratio");

    const double replay_s = view.self_s("serve.replay");
    const double rate_hits = view.count("replay_rate_cache_hits");
    const double rate_solves = view.count("replay_contention_solves");
    const double score_hits =
        d.counter("placement_score_cache_total", {{"result", "hit"}});
    const double score_misses =
        d.counter("placement_score_cache_total", {{"result", "miss"}});
    r.metric("serve.replay_s", replay_s, "s");
    r.metric("serve.events_per_s",
             ratio(d.counter("event_sim_events_total"), replay_s), "1/s");
    r.metric("serve.rate_cache_hit_ratio",
             ratio(rate_hits, rate_hits + rate_solves), "ratio");
    r.metric("serve.score_memo_hit_ratio",
             ratio(score_hits, score_hits + score_misses), "ratio");
    r.metric("serve.score_memo_entries", view.count("score_memo_entries"),
             "count");
    r.metric("serve.predictions", d.counter("placement_predictions_total"),
             "count");
    r.metric("serve.predict_s", d.histogram_sum("placement_predict_seconds"),
             "s");

    // Fractions of the host bounds: profiling refs per worker-second and
    // replay memo lookups per second against dependent loads per second;
    // estimated GEMM flop rate against the compute kernel's.
    const double chase_per_s = ratio(1e9, bound.chase_ns);
    r.metric("sim.profile_frac_bound",
             ratio(ratio(refs, d.histogram_sum("trace_profile_seconds")),
                   chase_per_s),
             "ratio");
    r.metric("linalg.gemm_frac_bound",
             ratio(ratio(epochs * gemm_flops_per_epoch, gemm_s) / 1e9,
                   bound.compute_gflops),
             "ratio");
    r.metric("serve.lookup_frac_bound",
             ratio(ratio(score_hits + score_misses + rate_hits + rate_solves,
                         replay_s),
                   chase_per_s),
             "ratio");

    const double traced = traced_s_.empty() ? 0.0 : median(traced_s_);
    const double untraced = untraced_s_.empty() ? 0.0 : median(untraced_s_);
    r.metric("trace.overhead_pct", 100.0 * ratio(traced - untraced, untraced),
             "%");
  }

  RunOptions options_;
  Tracer tracer_;
  RunResult result_;
  HostProbe probe_start_;
  std::vector<double> setup_s_;
  std::vector<double> untraced_s_;
  std::vector<double> traced_s_;
};

/// Books a stage's pool accounting (published by the library as
/// stage_pool_* gauges after each campaign/validation call) to the open span.
void book_stage_pool(Tracer& tracer, const char* stage) {
  if (!tracer.recording()) return;
  auto& registry = obs::Registry::global();
  const obs::Labels labels = {{"stage", stage}};
  tracer.add_pool_time(registry.gauge("stage_pool_busy_seconds", labels).value(),
                       registry.gauge("stage_pool_idle_seconds", labels).value());
}

/// Digest of the curves of `apps`, all already profiled into `library`.
std::string digest_curves(sim::AppMrcLibrary& library,
                          const std::vector<sim::ApplicationSpec>& apps) {
  Digest d;
  for (const sim::ApplicationSpec& app : apps) {
    const sim::MissRatioCurve& c = library.curve(app);
    d.add(app.name);
    for (double x : c.capacities()) d.add(x);
    for (double y : c.ratios()) d.add(y);
  }
  return d.hex();
}

std::string digest_dataset(const ml::Dataset& data) {
  Digest d;
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    d.add(data.tag(r));
    for (double v : data.features(r)) d.add(v);
    d.add(data.target(r));
  }
  return d.hex();
}

/// Campaign cell accounting shared by the two campaign workloads.
void account_campaign(RunResult& r, const core::CampaignResult& campaign,
                      std::size_t expected_rows) {
  const fault::CompletenessReport& c = campaign.completeness;
  r.attempted += c.cells_attempted;
  r.failed += c.cells_quarantined;
  r.check(c.cells_quarantined == 0 && c.cells_ok == c.cells_attempted &&
              campaign.dataset.num_rows() == expected_rows,
          "every campaign cell measured");
}

// --- paper_protocol -------------------------------------------------------------

RunResult paper_protocol(const RunOptions& options) {
  set_configured_jobs(kParallelJobs);
  Run run(options);
  Tracer& tracer = run.tracer();
  RunResult& r = run.result();

  const core::CampaignConfig campaign_config = [] {
    core::CampaignConfig c = core::CampaignConfig::paper_defaults();
    c.jobs = kParallelJobs;
    return c;
  }();
  core::EvaluationConfig eval;
  eval.validation.partitions = kPartitions;
  eval.validation.holdout_fraction = 0.3;
  eval.validation.jobs = kParallelJobs;
  eval.zoo.mlp.max_iterations = kNnIterations;
  eval.zoo.mlp.weight_decay = 1e-6;

  // Set-up: the suite's miss-ratio curves, profiled cold.
  sim::AppMrcLibrary library;
  run.setup([&] {
    sim::ProfileMemo::global().clear();
    sim::AppMrcLibrary fresh;
    {
      auto span = tracer.span("sim.profile", true);
      fresh.profile_all(campaign_config.targets);
    }
    library = std::move(fresh);
  });

  const std::size_t fits = 12 + 12 * kPartitions;
  std::vector<double> fits_per_s;
  std::vector<std::string> zoo_digests, eval_digests, data_digests;
  double nnf_mpe = 0.0, linf_mpe = 0.0;
  std::size_t rows = 0;
  run.passes([&](std::size_t) {
    sim::Simulator testbed(sim::xeon_e5649(), &library,
                           testbed_options());
    const auto t0 = Clock::now();
    core::CampaignResult campaign;
    {
      auto span = tracer.span("core.campaign");
      campaign = core::run_campaign(testbed, campaign_config);
      book_stage_pool(tracer, "campaign");
    }
    std::optional<core::TrainedZoo> zoo;
    std::optional<core::EvaluationSuite> suite;
    std::size_t failed_fits = 0;
    try {
      {
        auto span = tracer.span("core.zoo_train", true);
        zoo = core::train_full_zoo(campaign.dataset, eval.zoo);
      }
      {
        auto span = tracer.span("ml.validation");
        suite = core::evaluate_model_zoo(campaign.dataset, eval);
        book_stage_pool(tracer, "validation");
      }
    } catch (const std::exception& e) {
      r.note("fit_error", e.what());
      failed_fits = fits;
    }
    const double pass_s = seconds_since(t0);
    fits_per_s.push_back(static_cast<double>(fits) / pass_s);

    const std::size_t expected_rows = campaign_config.targets.size() *
                                      campaign_config.coapps.size() *
                                      (testbed.machine().cores - 1) *
                                      testbed.machine().pstates.size();
    account_campaign(r, campaign, expected_rows);
    rows = campaign.dataset.num_rows();
    data_digests.push_back(digest_dataset(campaign.dataset));
    if (zoo && suite) {
      // Every zoo model must predict finite times over the whole dataset.
      Digest zd;
      std::vector<std::size_t> all_rows(rows);
      std::iota(all_rows.begin(), all_rows.end(), 0);
      for (const core::ModelId& id : zoo->ids) {
        const ml::Regressor* model = zoo->find(id.name());
        std::ostringstream bytes;
        ml::save_model(bytes, *model);
        zd.add(bytes.str());
        const linalg::Matrix x = campaign.dataset.design_matrix(
            all_rows, core::feature_set_columns(id.feature_set));
        const std::vector<double> y = model->predict_all(x);
        if (!std::all_of(y.begin(), y.end(),
                         [](double v) { return std::isfinite(v); })) {
          ++failed_fits;
        }
      }
      Digest ed;
      for (const core::ModelEvaluation& e : suite->evaluations) {
        const ml::ValidationResult& v = e.result;
        for (double m : {v.train_mpe, v.test_mpe, v.train_nrmse,
                         v.test_nrmse}) {
          ed.add(m);
          if (!std::isfinite(m)) ++failed_fits;
        }
      }
      zoo_digests.push_back(zd.hex());
      eval_digests.push_back(ed.hex());
      nnf_mpe = suite->find(core::ModelTechnique::kNeuralNetwork,
                            core::FeatureSet::kF).result.test_mpe;
      linf_mpe = suite->find(core::ModelTechnique::kLinear,
                             core::FeatureSet::kF).result.test_mpe;
    }
    r.attempted += fits;
    r.failed += failed_fits;
    r.check(failed_fits == 0, "every fit finite");
    return pass_s;
  });

  run.expect_identical(data_digests, "campaign_dataset");
  run.expect_identical(zoo_digests, "zoo");
  run.expect_identical(eval_digests, "evaluation");
  r.check(nnf_mpe < linf_mpe, "NN-F test MPE below linear-F");
  r.note("nnf_test_mpe_pct", nnf_mpe);
  r.note("linf_test_mpe_pct", linf_mpe);
  r.note("campaign_rows", static_cast<double>(rows));

  // GEMM flop estimate per SCG epoch, averaged over the six network fits
  // of each kind: one forward (X·W1) and one backward (Xᵀ·dA) product of
  // rows x inputs x hidden, 2 flops per multiply-add.
  double mean_fh = 0.0;
  for (core::FeatureSet set : core::kAllFeatureSets) {
    mean_fh += static_cast<double>(core::feature_set_columns(set).size() *
                                   core::hidden_units_for(set));
  }
  mean_fh /= 6.0;
  const double train_rows =
      static_cast<double>(rows) -
      std::round(eval.validation.holdout_fraction * static_cast<double>(rows));
  const double mean_rows =
      (static_cast<double>(rows) + kPartitions * train_rows) /
      (1.0 + kPartitions);
  r.note("fits_per_s", median(fits_per_s));
  run.finish(median(fits_per_s), nnf_mpe / 100.0, 4.0 * mean_rows * mean_fh);
  return r;
}

// --- characterize ---------------------------------------------------------------

RunResult characterize(const RunOptions& options) {
  set_configured_jobs(kParallelJobs);
  Run run(options);
  Tracer& tracer = run.tracer();
  RunResult& r = run.result();

  CharacterizeInputs inputs;
  std::vector<sim::ApplicationSpec> coapps;
  sim::AppMrcLibrary coapp_library;
  // Set-up: generate the onboarding inputs and profile the four training
  // co-runners the phase-B sweep runs against.
  run.setup([&] {
    inputs = make_characterize_inputs(options.seed, kVariantsPerApp,
                                      kCloneRounds);
    coapps.clear();
    for (const std::string& name : sim::training_coapp_names()) {
      coapps.push_back(sim::find_application(name));
    }
    sim::ProfileMemo::global().clear();
    sim::AppMrcLibrary fresh;
    {
      auto span = tracer.span("sim.profile", true);
      fresh.profile_all(coapps);
    }
    coapp_library = std::move(fresh);
  });

  std::vector<sim::ApplicationSpec> targets = inputs.variants;
  for (const auto& round : inputs.clones) {
    targets.insert(targets.end(), round.begin(), round.end());
  }
  std::size_t variant_refs = 0;
  for (const auto& v : inputs.variants) {
    variant_refs += v.suggested_profile_length();
  }
  core::CampaignConfig sweep;
  sweep.targets = targets;
  sweep.coapps = coapps;
  sweep.jobs = kParallelJobs;
  const sim::MachineConfig machine = sim::xeon_e5_2697v2();
  const std::size_t expected_rows = targets.size() * coapps.size() *
                                    (machine.cores - 1) *
                                    machine.pstates.size();

  std::vector<double> refs_per_s, cells_per_s, apps_per_s;
  std::vector<std::string> mrc_digests, data_digests;
  double mean_slowdown = 0.0;
  run.passes([&](std::size_t) {
    // Phase A starts cold: a fresh library and an empty profile memo.
    sim::AppMrcLibrary library = coapp_library;
    sim::ProfileMemo::global().clear();
    const auto ta = Clock::now();
    {
      auto span = tracer.span("sim.profile", true);
      library.profile_all(inputs.variants);
    }
    const double phase_a_s = seconds_since(ta);

    // Phase B: clone profiles come from the memo (one call per round so
    // each clone draws its variant's profiling seed), then the sweep.
    const auto tb = Clock::now();
    core::CampaignResult campaign;
    {
      auto span = tracer.span("core.campaign");
      {
        auto inner = tracer.span("sim.profile", true);
        for (const auto& round : inputs.clones) library.profile_all(round);
      }
      sim::Simulator testbed(machine, &library,
                             testbed_options());
      campaign = core::run_campaign(testbed, sweep);
      book_stage_pool(tracer, "campaign");
    }
    const double phase_b_s = seconds_since(tb);

    refs_per_s.push_back(static_cast<double>(variant_refs) / phase_a_s);
    cells_per_s.push_back(
        static_cast<double>(campaign.completeness.cells_attempted) /
        phase_b_s);
    apps_per_s.push_back(static_cast<double>(targets.size()) /
                         (phase_a_s + phase_b_s));
    // Output guard: mean measured slowdown, co-located time over the
    // baseline time (feature 0) at the same P-state.
    const ml::Dataset& data = campaign.dataset;
    double slowdown_sum = 0.0;
    for (std::size_t row = 0; row < data.num_rows(); ++row) {
      slowdown_sum += data.target(row) / data.features(row)[0];
    }
    mean_slowdown = slowdown_sum / static_cast<double>(data.num_rows());
    r.attempted += inputs.variants.size();
    account_campaign(r, campaign, expected_rows);
    mrc_digests.push_back(digest_curves(library, targets));
    data_digests.push_back(digest_dataset(campaign.dataset));
    return phase_a_s + phase_b_s;
  });

  run.expect_identical(mrc_digests, "mrc_set");
  run.expect_identical(data_digests, "campaign_dataset");
  r.note("variants", static_cast<double>(inputs.variants.size()));
  r.note("targets", static_cast<double>(targets.size()));
  r.note("variant_refs", static_cast<double>(variant_refs));
  r.note("profile_refs_per_s", median(refs_per_s));
  r.note("cells_per_s", median(cells_per_s));
  r.note("mean_measured_slowdown", mean_slowdown);
  run.finish(median(apps_per_s), mean_slowdown, 0.0);
  return r;
}

// --- placement workloads ----------------------------------------------------------

/// The demo fleet's deployable nn-F predictor, built as
/// serve::demo::build_pipeline does but with a span per layer.
struct DemoState {
  sim::AppMrcLibrary library;
  std::vector<sim::ApplicationSpec> catalog;
  core::CampaignResult campaign;
  std::optional<core::ColocationPredictor> predictor;
};

void build_demo(Tracer& tracer, DemoState& state) {
  const sim::MachineConfig machine = serve::demo::fleet_node();
  const core::CampaignConfig config = serve::demo::campaign_config(kSerialJobs);
  sim::ProfileMemo::global().clear();
  state.library = sim::AppMrcLibrary();
  state.catalog = serve::demo::catalog();
  {
    auto span = tracer.span("sim.profile", true);
    state.library.profile_all(config.targets);
  }
  {
    auto span = tracer.span("core.campaign");
    sim::Simulator testbed(machine, &state.library);
    state.campaign = core::run_campaign(testbed, config);
  }
  core::ModelZooOptions zoo;
  zoo.mlp.max_iterations = kDemoNnIterations;
  {
    auto span = tracer.span("core.zoo_train", true);
    state.predictor = core::ColocationPredictor::train(
        state.campaign.dataset,
        {core::ModelTechnique::kNeuralNetwork, core::FeatureSet::kF}, zoo);
  }
}

/// nn-F flops per SCG epoch on the demo dataset (see paper_protocol).
double demo_gemm_flops_per_epoch(const DemoState& state) {
  return 4.0 * static_cast<double>(state.campaign.dataset.num_rows()) *
         static_cast<double>(
             core::feature_set_columns(core::FeatureSet::kF).size() *
             core::hidden_units_for(core::FeatureSet::kF));
}

RunResult placement_replay(const RunOptions& options) {
  set_configured_jobs(kSerialJobs);
  Run run(options);
  Tracer& tracer = run.tracer();
  RunResult& r = run.result();

  DemoState demo;
  std::vector<serve::Job> stream;
  run.setup([&] {
    build_demo(tracer, demo);
    std::vector<double> alone;
    for (const auto& spec : demo.catalog) {
      alone.push_back(demo.campaign.baselines.at(spec.name).execution_time_s[0]);
    }
    stream = make_replay_stream(options.seed, kArrivals, kFleetNodes,
                                serve::demo::fleet_node().cores, kUtilization,
                                alone);
  });

  serve::EventSimConfig config;
  config.node = serve::demo::fleet_node();
  config.nodes = kFleetNodes;
  std::vector<double> arrivals_per_s;
  std::vector<std::string> digests;
  double mean_slowdown = 0.0;
  run.passes([&](std::size_t) {
    serve::PlacementService service(&*demo.predictor);
    for (const auto& spec : demo.catalog) {
      service.register_app(demo.campaign.baselines.at(spec.name));
    }
    serve::EventSimulator sim(config, &demo.library, demo.catalog, &service,
                              &demo.campaign.baselines);
    const auto t0 = Clock::now();
    serve::ReplayOutcome out;
    {
      auto span = tracer.span("serve.replay");
      out = sim.replay(stream, sched::PlacementPolicy::kInterferenceAware);
      tracer.add_count("replay_rate_cache_hits",
                       static_cast<double>(out.rate_cache_hits));
      tracer.add_count("replay_contention_solves",
                       static_cast<double>(out.contention_solves));
      tracer.add_count("score_memo_entries",
                       static_cast<double>(service.stats().cache_misses));
    }
    const double replay_s = seconds_since(t0);
    arrivals_per_s.push_back(static_cast<double>(stream.size()) / replay_s);

    Digest d;
    std::uint64_t incomplete = 0;
    for (std::size_t i = 0; i < out.jobs.size(); ++i) {
      const serve::JobOutcome& j = out.jobs[i];
      d.add(static_cast<std::uint64_t>(j.node));
      d.add(static_cast<std::uint64_t>(j.pstate));
      d.add(static_cast<std::uint64_t>(j.deadline_met));
      d.add(j.arrival_s);
      d.add(j.start_s);
      d.add(j.finish_s);
      d.add(j.slowdown);
      const bool done = std::isfinite(j.finish_s) && std::isfinite(j.slowdown) &&
                        j.start_s >= stream[i].arrival_s &&
                        j.finish_s > j.start_s;
      if (!done) ++incomplete;
    }
    incomplete += stream.size() - std::min(stream.size(), out.jobs.size());
    d.add(out.makespan_s);
    d.add(out.total_energy_j);
    digests.push_back(d.hex());
    r.attempted += stream.size();
    r.failed += incomplete;
    r.check(incomplete == 0, "every replayed job completed");
    r.check(std::isfinite(out.mean_slowdown) && out.mean_slowdown >= 1.0,
            "mean slowdown finite and at least 1");
    mean_slowdown = out.mean_slowdown;
    return replay_s;
  });

  run.expect_identical(digests, "replay_outcome");
  r.note("arrivals", static_cast<double>(stream.size()));
  r.note("arrivals_per_s", median(arrivals_per_s));
  r.note("ia_mean_slowdown", mean_slowdown);
  run.finish(median(arrivals_per_s), mean_slowdown,
             demo_gemm_flops_per_epoch(demo));
  return r;
}

RunResult placement_query(const RunOptions& options) {
  set_configured_jobs(kSerialJobs);
  Run run(options);
  Tracer& tracer = run.tracer();
  RunResult& r = run.result();

  DemoState demo;
  QueryInputs inputs;
  const std::size_t pstates = serve::demo::fleet_node().pstates.size();
  run.setup([&] {
    build_demo(tracer, demo);
    inputs = make_query_inputs(options.seed, kQueryApps, kFleetNodes,
                               kQueryResidents, pstates, kQueriesPerPass,
                               demo.campaign.baselines);
  });

  std::vector<std::uint32_t> all_nodes(kFleetNodes);
  std::iota(all_nodes.begin(), all_nodes.end(), 0u);
  std::vector<double> queries_per_s, latency_us;
  std::vector<std::string> digests;
  double mean_chosen_cost = 0.0;
  latency_us.reserve(kQueriesPerPass * 16);
  run.passes([&](std::size_t) {
    serve::PlacementService service(&*demo.predictor);
    for (const auto& profile : inputs.catalog) service.register_app(profile);
    service.reset_fleet(kFleetNodes);
    std::vector<std::vector<std::uint32_t>> residents =
        inputs.initial_residents;
    for (std::size_t n = 0; n < kFleetNodes; ++n) {
      for (std::uint32_t app : residents[n]) service.add_resident(n, app);
    }
    std::vector<double> cost(kFleetNodes);
    Digest d;
    std::uint64_t failed = 0;
    double chosen_cost_sum = 0.0;
    const auto t0 = Clock::now();
    {
      auto span = tracer.span("serve.query");
      for (const QueryInputs::Query& q : inputs.queries) {
        const auto tq = Clock::now();
        try {
          service.score_candidates(q.target, all_nodes, q.pstate, cost);
        } catch (const std::exception&) {
          ++failed;
          continue;
        }
        latency_us.push_back(seconds_since(tq) * 1e6);
        if (!std::all_of(cost.begin(), cost.end(),
                         [](double c) { return std::isfinite(c); })) {
          ++failed;
        }
        for (double c : cost) d.add(c);
        // Churn: one resident departs, then the target joins the cheapest
        // node with a free slot (lowest index on ties).
        std::size_t node = q.depart_draw % kFleetNodes;
        while (residents[node].empty()) node = (node + 1) % kFleetNodes;
        auto& leaving = residents[node];
        const std::size_t slot = (q.depart_draw >> 8) % leaving.size();
        service.remove_resident(node, leaving[slot]);
        leaving.erase(leaving.begin() + static_cast<long>(slot));
        std::size_t best = kFleetNodes;
        for (std::size_t n = 0; n < kFleetNodes; ++n) {
          if (residents[n].size() < kQueryMaxResidents &&
              (best == kFleetNodes || cost[n] < cost[best])) {
            best = n;
          }
        }
        service.add_resident(best, q.target);
        residents[best].push_back(q.target);
        chosen_cost_sum += cost[best];
      }
      tracer.add_count("score_memo_entries",
                       static_cast<double>(service.stats().cache_misses));
    }
    const double pass_s = seconds_since(t0);
    queries_per_s.push_back(static_cast<double>(inputs.queries.size()) /
                            pass_s);
    digests.push_back(d.hex());
    mean_chosen_cost =
        chosen_cost_sum / static_cast<double>(inputs.queries.size());
    r.attempted += inputs.queries.size();
    r.failed += failed;
    r.check(failed == 0, "every query answered with finite costs");
    return pass_s;
  });

  run.expect_identical(digests, "query_costs");
  r.note("catalog_apps", static_cast<double>(inputs.catalog.size()));
  r.note("query_samples", static_cast<double>(latency_us.size()));
  r.note("queries_per_s", median(queries_per_s));
  r.note("query_p50_us", quantile(latency_us, 0.50));
  r.note("query_p99_us", quantile(latency_us, 0.99));
  r.note("mean_chosen_cost", mean_chosen_cost);
  run.finish(median(queries_per_s), mean_chosen_cost,
             demo_gemm_flops_per_epoch(demo));
  return r;
}

}  // namespace

RunResult run_workload(const RunOptions& options) {
  if (options.workload == "paper_protocol") return paper_protocol(options);
  if (options.workload == "characterize") return characterize(options);
  if (options.workload == "placement_replay") return placement_replay(options);
  if (options.workload == "placement_query") return placement_query(options);
  throw coloc::invalid_argument_error("unknown workload: " + options.workload);
}

}  // namespace perfbench
