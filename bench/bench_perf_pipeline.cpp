// Performance-trajectory harness for the PR 4 fast paths. Times the three
// pipeline stages the optimization targeted — trace profiling, the Table V
// collection campaign, and the paper's 100-partition set-F MLP validation —
// and races the batched MLP training/inference path against an in-file
// replica of the pre-optimization implementation (rowwise std::tanh
// loss/gradient, per-call-allocating predict, serial restarts) driven
// through the same repeated_subsampling_validation protocol.
//
// Stage 1 additionally races the batched trace->profile kernel path (PR 9:
// TraceGenerator::next_batch + the marker-bitmap StackDistanceProfiler)
// against an in-file replica of the pre-optimization implementation
// (Fenwick tree + std::unordered_map last-access table, one reference at a
// time) and reports the kernel speedup.
//
// Writes a machine-readable BENCH_pipeline.json (override with --out=FILE)
// recording the stage timings, the validation speedup, and a set of
// numerical-equivalence gates. The exit status reflects ONLY the
// equivalence gates — never timing — so CI can run this on noisy shared
// runners without flaking:
//   gate matmul_vs_naive          tiled GEMM == reference i-k-j loop
//   gate batched_loss_vs_reference batched loss/grad == rowwise oracle
//   gate fast_vs_legacy_mpe/nrmse  validation metrics match the replica
//   gate trace_batch_bit_identical next_batch() == per-reference next()
//   gate trace_profile_bit_identical batched profiler == Fenwick replica
//   gate cache_batch_bit_identical access_batch() == per-access walk
//   gate solve_cache_bit_identical cached contention solve == cold solve
//   gate campaign_parallel_bit_identical  parallel campaign == serial sweep
//   gate zoo_parallel_bit_identical       fused multi-restart zoo on the
//                                         flat task graph == sequential
//                                         restart loop, serially scheduled
//   gate zoo_warm_start_bit_identical     zoo reloaded from the store
//                                         bundle == freshly trained zoo
//
// The zoo race runs at max(--restarts, 4) SCG restarts per MLP fit: the
// serial arm pins the historical sequential restart loop (fused + pooled
// restarts disabled, serial validation scheduling) while the parallel arm
// runs the fused batched kernels on the flat model x partition task graph,
// so zoo_speedup measures the tentpole (scheduler + fused kernels) and the
// zoo_parallel_bit_identical gate polices its bit-identity. The JSON also
// records a "training" block (scg_fused_restarts_total, train_gemm_seconds
// sum/count, design-memo hits/misses) mirroring the manifest's training
// attribution section that obs_report --gate consumes.
//
// Scale knobs: --sweep-scale=N clones every campaign target N-fold, pushing
// the sweep to 10-100x the paper's cell count; --jobs-sweep=1,2,4,8 re-runs
// the (scaled) campaign at each jobs value and emits a "jobs_scaling" curve
// in the JSON, each run gated bit-identical against the serial dataset;
// --restarts=N raises the restart count everywhere (the zoo race floor
// stays 4); --no-parallel-restarts pins every fit to the historical serial
// restart loop, turning the zoo race into a scheduler-only comparison.
//
// The warm-start arm times training the full 12-model zoo cold against
// saving it to a checksummed store bundle (--zoo-out, default
// BENCH_zoo_bundle) and loading it back (--zoo-in overrides the load
// path). At --fault-rate 0 the reloaded models must serialize
// byte-identically to the trained ones.
//
// The campaign and model-zoo stages are additionally timed serial vs.
// parallel (--jobs / COLOC_JOBS workers) and the speedups reported; on a
// single-core host both arms time about the same, by design — the gates
// still verify the orchestration is byte-equivalent.
//
// Run the headline number (Release build):
//   ./build/bench/bench_perf_pipeline --partitions=100 --jobs=0
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/zoo_artifacts.hpp"
#include "linalg/matrix.hpp"
#include "ml/dataset.hpp"
#include "ml/mlp.hpp"
#include "ml/scg.hpp"
#include "ml/serialization.hpp"
#include "ml/validation.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/cache.hpp"
#include "sim/stack_distance.hpp"
#include "sim/trace.hpp"

namespace {

using namespace coloc;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One numerical-equivalence check: `value` must stay <= `limit`.
struct Gate {
  const char* name;
  double value = 0.0;
  double limit = 0.0;
  bool pass() const { return value <= limit; }
};

// ---------------------------------------------------------------------------
// Pre-optimization MLP replica. This is the seed implementation the batched
// path replaced: std::tanh through a row-at-a-time forward/backward pass,
// predict() allocating a fresh standardization buffer per call, and the
// default per-row predict_all loop. Kept here (not in src/) so the library
// carries exactly one tanh and one training path; the replica exists only
// to give the speedup measurement an honest baseline.
// ---------------------------------------------------------------------------

class LegacyMlp final : public ml::Regressor {
 public:
  static std::unique_ptr<LegacyMlp> fit(const linalg::Matrix& x,
                                        std::span<const double> y,
                                        const ml::MlpOptions& options) {
    linalg::Matrix design = x;
    ml::Standardizer scaler = ml::Standardizer::fit(design);
    scaler.transform(design);
    ml::TargetScaler target = ml::TargetScaler::fit(y);
    const std::vector<double> z = target.transform_all(y);

    auto model = std::unique_ptr<LegacyMlp>(new LegacyMlp);
    model->inputs_ = x.cols();
    model->hidden_ = options.hidden_units;
    model->scaler_ = std::move(scaler);
    model->target_ = std::move(target);
    model->params_.assign(model->num_parameters(), 0.0);

    Rng rng(options.seed);
    model->initialize(rng);

    ml::ScgObjective objective{
        .dimension = model->num_parameters(),
        .value_and_gradient =
            [&](std::span<const double> p, std::span<double> g) {
              std::copy(p.begin(), p.end(), model->params_.begin());
              return model->loss_and_gradient(design, z,
                                              options.weight_decay, g);
            },
    };
    std::vector<double> p = model->params_;
    ml::ScgOptions scg_options;
    scg_options.max_iterations = options.max_iterations;
    scg_options.gradient_tolerance = options.gradient_tolerance;
    const ml::ScgResult res = ml::scg_minimize(objective, p, scg_options);
    model->params_.assign(res.solution.begin(), res.solution.end());
    return model;
  }

  double predict(std::span<const double> features) const override {
    // Deliberately the pre-PR behaviour: heap-allocate the standardized
    // row on every call.
    std::vector<double> row(features.begin(), features.end());
    scaler_.transform_row(row);
    return target_.inverse(forward(row));
  }

  std::string describe() const override { return "LegacyMlp"; }

 private:
  LegacyMlp() = default;

  std::size_t num_parameters() const {
    return hidden_ * inputs_ + 2 * hidden_ + 1;
  }
  std::size_t b1_offset() const { return hidden_ * inputs_; }
  std::size_t w2_offset() const { return hidden_ * inputs_ + hidden_; }
  std::size_t b2_offset() const { return hidden_ * inputs_ + 2 * hidden_; }

  void initialize(Rng& rng) {
    const double w1_scale = std::sqrt(1.0 / static_cast<double>(inputs_));
    const double w2_scale = std::sqrt(1.0 / static_cast<double>(hidden_));
    for (std::size_t i = 0; i < hidden_ * inputs_; ++i)
      params_[i] = rng.normal(0.0, w1_scale);
    for (std::size_t i = 0; i < hidden_; ++i)
      params_[w2_offset() + i] = rng.normal(0.0, w2_scale);
  }

  double forward(std::span<const double> x) const {
    const double* w1 = params_.data();
    const double* b1 = params_.data() + b1_offset();
    const double* w2 = params_.data() + w2_offset();
    double out = params_[b2_offset()];
    for (std::size_t h = 0; h < hidden_; ++h) {
      double a = b1[h];
      const double* wrow = w1 + h * inputs_;
      for (std::size_t i = 0; i < inputs_; ++i) a += wrow[i] * x[i];
      out += w2[h] * std::tanh(a);
    }
    return out;
  }

  double loss_and_gradient(const linalg::Matrix& x, std::span<const double> y,
                           double weight_decay,
                           std::span<double> grad) const {
    const std::size_t m = x.rows();
    const double* w1 = params_.data();
    const double* b1 = params_.data() + b1_offset();
    const double* w2 = params_.data() + w2_offset();
    double* g_w1 = grad.data();
    double* g_b1 = grad.data() + b1_offset();
    double* g_w2 = grad.data() + w2_offset();
    double& g_b2 = grad[b2_offset()];
    std::fill(grad.begin(), grad.end(), 0.0);

    std::vector<double> act(hidden_);
    double loss = 0.0;
    const double inv_m = 1.0 / static_cast<double>(m);
    for (std::size_t r = 0; r < m; ++r) {
      const auto row = x.row(r);
      double out = params_[b2_offset()];
      for (std::size_t h = 0; h < hidden_; ++h) {
        double a = b1[h];
        const double* wrow = w1 + h * inputs_;
        for (std::size_t i = 0; i < inputs_; ++i) a += wrow[i] * row[i];
        act[h] = std::tanh(a);
        out += w2[h] * act[h];
      }
      const double err = out - y[r];
      loss += 0.5 * err * err;
      const double d_out = err * inv_m;
      g_b2 += d_out;
      for (std::size_t h = 0; h < hidden_; ++h) {
        g_w2[h] += d_out * act[h];
        const double d_a = d_out * w2[h] * (1.0 - act[h] * act[h]);
        g_b1[h] += d_a;
        double* grow = g_w1 + h * inputs_;
        for (std::size_t i = 0; i < inputs_; ++i) grow[i] += d_a * row[i];
      }
    }
    loss *= inv_m;
    if (weight_decay > 0.0) {
      double wnorm = 0.0;
      for (std::size_t i = 0; i < params_.size(); ++i) {
        wnorm += params_[i] * params_[i];
        grad[i] += weight_decay * params_[i];
      }
      loss += 0.5 * weight_decay * wnorm;
    }
    return loss;
  }

  std::size_t inputs_ = 0;
  std::size_t hidden_ = 0;
  std::vector<double> params_;
  ml::Standardizer scaler_;
  ml::TargetScaler target_;
};

// ---------------------------------------------------------------------------
// Pre-PR-9 stack-distance profiler replica: a Fenwick (binary indexed) tree
// of reuse markers queried with ~log(n) random probes per reference, plus a
// std::unordered_map last-access table. This is the seed implementation the
// marker-bitmap profiler replaced; it lives here (not in src/) so the
// library carries exactly one profiler, and exists to give the kernel
// speedup an honest baseline and the equivalence gate an oracle.
// ---------------------------------------------------------------------------

class LegacyStackProfiler {
 public:
  explicit LegacyStackProfiler(std::size_t max_references)
      : tree_(max_references) {
    last_access_.reserve(1 << 16);
  }

  std::uint64_t record(sim::LineAddress line) {
    const std::size_t now = static_cast<std::size_t>(time_);
    std::uint64_t distance = sim::kColdMiss;
    auto it = last_access_.find(line);
    if (it != last_access_.end()) {
      const std::size_t prev = it->second;
      distance = static_cast<std::uint64_t>(
          now > prev + 1 ? tree_.range_sum(prev + 1, now - 1) : 0);
      tree_.add(prev, -1);  // the line's marker moves to `now`
      it->second = now;
    } else {
      ++cold_;
      last_access_.emplace(line, now);
    }
    tree_.add(now, +1);
    ++time_;
    if (distance != sim::kColdMiss) {
      if (distance < max_tracked_) {
        if (distance >= histogram_.size()) histogram_.resize(distance + 1, 0);
        ++histogram_[distance];
      } else {
        ++beyond_;
      }
    }
    return distance;
  }

  std::uint64_t cold_misses() const { return cold_; }
  std::uint64_t beyond_tracked() const { return beyond_; }
  const std::vector<std::uint64_t>& histogram() const { return histogram_; }

 private:
  sim::FenwickTree tree_;
  std::unordered_map<sim::LineAddress, std::size_t> last_access_;
  std::vector<std::uint64_t> histogram_;
  std::size_t max_tracked_ = 1 << 22;
  std::uint64_t time_ = 0;
  std::uint64_t cold_ = 0;
  std::uint64_t beyond_ = 0;
};

/// Parses "1,2,4,8" into jobs values; ignores empty/invalid tokens.
std::vector<std::size_t> parse_jobs_list(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) {
    char* end = nullptr;
    const long v = std::strtol(token.c_str(), &end, 10);
    if (end != token.c_str() && *end == '\0' && v > 0) {
      out.push_back(static_cast<std::size_t>(v));
    }
  }
  return out;
}

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  linalg::Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-2.0, 2.0);
  return m;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Row-for-row, bit-for-bit dataset comparison (targets, tags, features).
bool datasets_bit_identical(const ml::Dataset& a, const ml::Dataset& b) {
  if (a.num_rows() != b.num_rows()) return false;
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    if (!bitwise_equal(a.target(r), b.target(r)) || a.tag(r) != b.tag(r)) {
      return false;
    }
    const auto fa = a.features(r);
    const auto fb = b.features(r);
    if (fa.size() != fb.size()) return false;
    for (std::size_t c = 0; c < fa.size(); ++c) {
      if (!bitwise_equal(fa[c], fb[c])) return false;
    }
  }
  return true;
}

void json_gate(std::ofstream& os, const Gate& g, bool last) {
  os << "    {\"name\": \"" << g.name << "\", \"value\": " << g.value
     << ", \"limit\": " << g.limit << ", \"pass\": "
     << (g.pass() ? "true" : "false") << "}" << (last ? "\n" : ",\n");
}

// ---------------------------------------------------------------------------
// Attribution capture. Each timed arm (campaign serial/parallel, zoo
// serial/parallel) gets its pool accounting read from the per-stage gauges
// the orchestrators export, its queue-wait/commit-hold histogram activity
// isolated as a before/after snapshot delta (the histograms are cumulative
// across the whole process), and — when tracing is live — a critical-path
// pass over only the spans recorded inside the arm's time window, so the
// two same-named stage roots (serial arm, parallel arm) never collide.
// ---------------------------------------------------------------------------

/// Cumulative-histogram activity attributable to one arm.
struct HistDelta {
  std::uint64_t count = 0;
  double sum = 0.0;
  double p99 = 0.0;
};

HistDelta hist_delta(const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after,
                     const std::string& name) {
  HistDelta d;
  const obs::MetricSample* a = after.find(name);
  if (a == nullptr) return d;
  const obs::MetricSample* b = before.find(name);
  std::vector<std::uint64_t> buckets = a->histogram_buckets;
  d.count = a->histogram_count;
  d.sum = a->histogram_sum;
  if (b != nullptr) {
    d.count -= b->histogram_count;
    d.sum -= b->histogram_sum;
    for (std::size_t i = 0;
         i < buckets.size() && i < b->histogram_buckets.size(); ++i)
      buckets[i] -= b->histogram_buckets[i];
  }
  d.p99 = obs::Histogram::quantile_from_counts(buckets, 0.99);
  return d;
}

/// Everything the attribution report needs about one timed arm.
struct ArmAttribution {
  double wall_s = 0.0;
  double busy_s = 0.0;
  double idle_s = 0.0;
  double workers = 0.0;
  double utilization = 0.0;
  HistDelta queue_wait;
  HistDelta commit_hold;
  obs::CriticalPathResult critical_path;
};

/// Critical path over only the spans that started inside [from_ns, to_ns].
obs::CriticalPathResult window_critical_path(std::uint64_t from_ns,
                                             std::uint64_t to_ns,
                                             const std::string& root) {
  const obs::TraceSink* sink = obs::TraceSink::current();
  if (sink == nullptr) return {};
  std::vector<obs::TraceEvent> window;
  for (obs::TraceEvent& e : sink->events()) {
    if (e.start_ns >= from_ns && e.start_ns <= to_ns)
      window.push_back(std::move(e));
  }
  return obs::CriticalPath::analyze(obs::SpanGraph::build(window), root);
}

/// Reads the arm's stage pool gauges (exported at the end of the arm) and
/// histogram deltas vs `before`. `stage` is the gauge label the
/// orchestrator exported ("campaign" or "validation").
ArmAttribution capture_arm(const char* stage, double wall_s,
                           const obs::MetricsSnapshot& before,
                           std::uint64_t from_ns, std::uint64_t to_ns,
                           const std::string& root_span) {
  auto& registry = obs::Registry::global();
  const obs::Labels labels = {{"stage", stage}};
  ArmAttribution arm;
  arm.wall_s = wall_s;
  arm.busy_s = registry.gauge("stage_pool_busy_seconds", labels).value();
  arm.idle_s = registry.gauge("stage_pool_idle_seconds", labels).value();
  arm.workers = registry.gauge("stage_pool_workers", labels).value();
  arm.utilization = registry.gauge("stage_pool_utilization", labels).value();
  const obs::MetricsSnapshot after = registry.snapshot();
  arm.queue_wait = hist_delta(before, after, "pool_queue_wait_seconds");
  arm.commit_hold = hist_delta(before, after, "pool_commit_hold_seconds");
  arm.critical_path = window_critical_path(from_ns, to_ns, root_span);
  return arm;
}

/// The serial-vs-parallel gap decomposition for one stage. All terms are
/// worker-seconds so they add up against gap = jobs*wall_par - wall_serial:
///   idle          workers parked while the arm's pool was alive
///   exec_overhead pool busy time in excess of the serial arm's wall
///                 (per-task span/bookkeeping cost; can be slightly
///                 negative when the parallel arm does less in-pool work)
///   serial_section worker capacity lost while no pool existed
///                 (setup, baselines, checkpoint flushes, reduction)
/// The three are independently sourced (pool accounting vs wall clocks),
/// so attributed_fraction ~ 1 checks the bookkeeping is consistent.
struct GapAttribution {
  double gap_worker_s = 0.0;
  double idle_s = 0.0;
  double exec_overhead_s = 0.0;
  double serial_section_s = 0.0;
  double attributed_fraction = 0.0;
};

GapAttribution attribute_gap(std::size_t jobs, double wall_serial_s,
                             const ArmAttribution& parallel) {
  GapAttribution g;
  const double capacity = static_cast<double>(jobs) * parallel.wall_s;
  g.gap_worker_s = capacity - wall_serial_s;
  g.idle_s = parallel.idle_s;
  g.exec_overhead_s = parallel.busy_s - wall_serial_s;
  g.serial_section_s = capacity - parallel.busy_s - parallel.idle_s;
  const double attributed =
      g.idle_s + g.exec_overhead_s + g.serial_section_s;
  g.attributed_fraction =
      std::abs(g.gap_worker_s) > 1e-12 ? attributed / g.gap_worker_s : 1.0;
  return g;
}

void json_arm(std::ofstream& os, const char* key, std::size_t jobs,
              double wall_serial_s, const ArmAttribution& serial,
              const ArmAttribution& parallel, bool last) {
  const GapAttribution gap = attribute_gap(jobs, wall_serial_s, parallel);
  const obs::CriticalPathResult& cp = parallel.critical_path;
  os << "    \"" << key << "\": {\n"
     << "      \"wall_serial_s\": " << serial.wall_s << ",\n"
     << "      \"wall_parallel_s\": " << parallel.wall_s << ",\n"
     << "      \"gap_worker_seconds\": " << gap.gap_worker_s << ",\n"
     << "      \"idle_seconds\": " << gap.idle_s << ",\n"
     << "      \"exec_overhead_seconds\": " << gap.exec_overhead_s << ",\n"
     << "      \"serial_section_seconds\": " << gap.serial_section_s << ",\n"
     << "      \"attributed_fraction\": " << gap.attributed_fraction << ",\n"
     << "      \"mean_worker_utilization\": " << parallel.utilization << ",\n"
     << "      \"pool_workers\": " << parallel.workers << ",\n"
     << "      \"pool_busy_seconds\": " << parallel.busy_s << ",\n"
     << "      \"queue_wait\": {\"sum_s\": " << parallel.queue_wait.sum
     << ", \"p99_s\": " << parallel.queue_wait.p99 << ", \"count\": "
     << parallel.queue_wait.count << "},\n"
     << "      \"commit_hold\": {\"sum_s\": " << parallel.commit_hold.sum
     << ", \"count\": " << parallel.commit_hold.count << "},\n"
     << "      \"critical_path_seconds\": " << cp.critical_path_seconds
     << ",\n"
     << "      \"parallel_overhead_seconds\": "
     << cp.parallel_overhead_seconds << ",\n"
     << "      \"critical_path_found\": " << (cp.found ? "true" : "false")
     << ",\n"
     << "      \"critical_path_coverage\": " << cp.coverage << ",\n"
     << "      \"critical_chain_length\": " << cp.chain_length << "\n"
     << "    }" << (last ? "\n" : ",\n");
}

void print_arm(const char* name, std::size_t jobs, double wall_serial_s,
               const ArmAttribution& parallel) {
  const GapAttribution gap = attribute_gap(jobs, wall_serial_s, parallel);
  std::printf(
      "attribution (%s): gap %.3f worker-s = idle %.3f + exec-overhead "
      "%.3f + serial-section %.3f (%.0f%% attributed)\n",
      name, gap.gap_worker_s, gap.idle_s, gap.exec_overhead_s,
      gap.serial_section_s, 100.0 * gap.attributed_fraction);
  if (parallel.critical_path.found) {
    std::printf(
      "  critical path      : %8.3f s of %.3f s wall (chain %zu/%zu "
      "tasks); queue-wait p99 %.2g s, commit-hold sum %.2g s\n",
      parallel.critical_path.critical_path_seconds,
      parallel.critical_path.wall_seconds,
      parallel.critical_path.chain_length, parallel.critical_path.tasks,
      parallel.queue_wait.p99, parallel.commit_hold.sum);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace coloc;
  const CliArgs args(argc, argv);
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const obs::ObsSession session(config.run_session());
  const std::string out_path = args.get("out", "BENCH_pipeline.json");

  // The attribution pass below walks the span graph; keep tracing live
  // even when the run was started without --trace-out/--bundle-out. The
  // local sink is destroyed before `session` (reverse declaration order),
  // by which point every span has closed.
  std::unique_ptr<obs::TraceSink> local_sink;
  if (obs::TraceSink::current() == nullptr) {
    local_sink = std::make_unique<obs::TraceSink>();
    local_sink->install();
  }

  // --- Stage 1: trace profiling (stack-distance pass over one app trace),
  // batched kernel vs the pre-PR Fenwick replica, with bit-identity gates.
  const sim::ApplicationSpec canneal = sim::find_application("canneal");
  const std::size_t trace_len = config.quick ? 200'000 : 2'000'000;
  sim::TraceGenerator generator(canneal.trace, config.seed);
  auto t0 = std::chrono::steady_clock::now();
  const std::vector<sim::LineAddress> trace = generator.generate(trace_len);
  const double generate_s = seconds_since(t0);

  // next_batch() must replay the per-reference next() stream exactly.
  bool trace_batch_identical = true;
  {
    sim::TraceGenerator scalar_gen(canneal.trace, config.seed);
    for (std::size_t i = 0; i < trace.size() && trace_batch_identical; ++i) {
      trace_batch_identical = scalar_gen.next() == trace[i];
    }
  }

  // Min-of-3 on both arms: sub-second single-shot walls swing the ratio
  // by tens of percent on a shared host.
  double profile_s = 0.0;
  std::optional<sim::StackDistanceProfiler> profiler_opt;
  for (int rep = 0; rep < 3; ++rep) {
    t0 = std::chrono::steady_clock::now();
    sim::StackDistanceProfiler run = sim::profile_trace(trace);
    const double wall = seconds_since(t0);
    if (rep == 0 || wall < profile_s) profile_s = wall;
    if (rep == 0) profiler_opt.emplace(std::move(run));
  }
  const sim::StackDistanceProfiler& profiler = *profiler_opt;

  double legacy_profile_s = 0.0;
  std::uint64_t legacy_cold = 0, legacy_beyond = 0;
  std::vector<std::uint64_t> legacy_histogram;
  for (int rep = 0; rep < 3; ++rep) {
    t0 = std::chrono::steady_clock::now();
    LegacyStackProfiler legacy_run(trace.size());
    for (const sim::LineAddress a : trace) legacy_run.record(a);
    const double wall = seconds_since(t0);
    if (rep == 0 || wall < legacy_profile_s) legacy_profile_s = wall;
    if (rep == 0) {
      legacy_cold = legacy_run.cold_misses();
      legacy_beyond = legacy_run.beyond_tracked();
      legacy_histogram = legacy_run.histogram();
    }
  }

  const bool profile_identical = profiler.cold_misses() == legacy_cold &&
                                 profiler.beyond_tracked() == legacy_beyond &&
                                 profiler.histogram() == legacy_histogram;
  const double kernel_speedup =
      profile_s > 0.0 ? legacy_profile_s / profile_s : 0.0;
  std::printf("trace profiling      : %8.3f s  (%zu refs, %llu cold; "
              "gen %.3f s)\n",
              profile_s, trace.size(),
              static_cast<unsigned long long>(profiler.cold_misses()),
              generate_s);
  std::printf("trace profiling (old): %8.3f s  (%.2fx kernel speedup)\n",
              legacy_profile_s, kernel_speedup);

  // Batched cache walk vs the per-access scalar path, over both a
  // power-of-two L2 and the non-power-of-two 12 MB LLC slice, standalone
  // and through the hierarchy filter.
  bool cache_batch_identical = true;
  {
    const std::size_t check_len = std::min<std::size_t>(trace.size(), 200'000);
    const std::span<const sim::LineAddress> lines(trace.data(), check_len);
    const std::vector<sim::CacheConfig> levels = {
        {.name = "L2", .size_bytes = 256 << 10, .line_bytes = 64,
         .associativity = 8},
        {.name = "LLC", .size_bytes = 12 << 20, .line_bytes = 64,
         .associativity = 16}};
    for (const sim::CacheConfig& cfg : levels) {
      sim::Cache batched(cfg);
      sim::Cache scalar(cfg);
      std::vector<std::uint8_t> hits(lines.size());
      batched.access_batch(lines, hits.data());
      for (std::size_t i = 0; i < lines.size() && cache_batch_identical;
           ++i) {
        cache_batch_identical = scalar.access(lines[i]) == (hits[i] != 0);
      }
      cache_batch_identical =
          cache_batch_identical &&
          batched.stats().hits == scalar.stats().hits &&
          batched.stats().misses == scalar.stats().misses;
      batched.reset_stats();
      scalar.reset_stats();
    }
    sim::CacheHierarchy batched_h(levels);
    sim::CacheHierarchy scalar_h(levels);
    std::size_t scalar_dram = 0;
    for (const sim::LineAddress a : lines) {
      scalar_dram += scalar_h.access(a) == scalar_h.num_levels() ? 1 : 0;
    }
    cache_batch_identical =
        cache_batch_identical && batched_h.access_batch(lines) == scalar_dram;
    for (std::size_t l = 0;
         l < batched_h.num_levels() && cache_batch_identical; ++l) {
      cache_batch_identical =
          batched_h.level(l).stats().accesses ==
              scalar_h.level(l).stats().accesses &&
          batched_h.level(l).stats().hits == scalar_h.level(l).stats().hits;
    }
    batched_h.reset_stats();
    scalar_h.reset_stats();
  }

  // --- Stage 2: collection campaign (Table V sweep on the 6-core Xeon),
  // serial vs. task-parallel. Each arm gets a fresh simulator so neither
  // benefits from the other's contention-solve cache; the sequenced
  // collector guarantees the two datasets are byte-identical.
  const std::size_t jobs = config.jobs != 0 ? config.jobs : configured_jobs();
  const sim::MachineConfig machine = sim::xeon_e5649();
  core::CampaignConfig campaign_config = core::CampaignConfig::paper_defaults();
  if (config.quick)
    campaign_config.pstate_indices = {0, machine.pstates.size() - 1};

  // --sweep-scale=N: clone every target N-1 times under derived names.
  // Clones share their donor's trace shape, so the sweep grows N-fold in
  // cells while the profile memo keeps cross-arm MRC work deduplicated.
  if (config.sweep_scale > 1) {
    const std::vector<sim::ApplicationSpec> originals = campaign_config.targets;
    for (std::size_t k = 2; k <= config.sweep_scale; ++k) {
      for (const sim::ApplicationSpec& app : originals) {
        sim::ApplicationSpec clone = app;
        clone.name = app.name + "~" + std::to_string(k);
        clone.trace.name = clone.name;
        campaign_config.targets.push_back(std::move(clone));
      }
    }
    std::printf("sweep scale          : %8zu x  (%zu target apps)\n",
                config.sweep_scale, campaign_config.targets.size());
  }

  sim::MeasurementOptions measurement;
  measurement.seed = config.seed;

  campaign_config.jobs = 1;
  sim::AppMrcLibrary serial_library;
  sim::Simulator serial_testbed(machine, &serial_library, measurement);
  serial_library.profile_all(campaign_config.targets);
  obs::MetricsSnapshot pre_arm = obs::Registry::global().snapshot();
  std::uint64_t arm_start_ns = obs::trace_now_ns();
  t0 = std::chrono::steady_clock::now();
  const core::CampaignResult campaign_serial =
      core::run_campaign(serial_testbed, campaign_config);
  const double campaign_serial_s = seconds_since(t0);
  const ArmAttribution campaign_serial_attr =
      capture_arm("campaign", campaign_serial_s, pre_arm, arm_start_ns,
                  obs::trace_now_ns(), "campaign");
  std::printf("campaign (serial)    : %8.3f s  (%zu rows)\n",
              campaign_serial_s, campaign_serial.dataset.num_rows());

  campaign_config.jobs = jobs;
  sim::AppMrcLibrary library;
  sim::Simulator testbed(machine, &library, measurement);
  library.profile_all(campaign_config.targets);
  pre_arm = obs::Registry::global().snapshot();
  arm_start_ns = obs::trace_now_ns();
  t0 = std::chrono::steady_clock::now();
  const core::CampaignResult campaign =
      core::run_campaign(testbed, campaign_config);
  const double campaign_s = seconds_since(t0);
  const ArmAttribution campaign_parallel_attr =
      capture_arm("campaign", campaign_s, pre_arm, arm_start_ns,
                  obs::trace_now_ns(), "campaign");
  const double campaign_speedup =
      campaign_s > 0.0 ? campaign_serial_s / campaign_s : 0.0;
  std::printf("campaign (jobs=%zu)   : %8.3f s  (%.2fx vs serial)\n", jobs,
              campaign_s, campaign_speedup);

  const bool campaign_identical =
      datasets_bit_identical(campaign.dataset, campaign_serial.dataset);

  // --- Stage 2a: jobs-scaling curve (--jobs-sweep=1,2,4,8). Each point
  // re-runs the (scaled) campaign at that jobs value; the profile memo
  // keeps the MRC work warm across points so the curve isolates
  // orchestration. Every point must reproduce the serial dataset
  // bit-for-bit. Each point is the minimum of three runs (fresh simulator
  // each, so no solve-cache carry-over): a paper-scale campaign is tens of
  // milliseconds, where one-shot walls are dominated by thread-spawn and
  // scheduler jitter. Speedups are quoted against the jobs=1 sweep point
  // when the list includes it (the same min-of-3 protocol on both sides),
  // falling back to the one-shot serial arm above.
  struct JobsScalingPoint {
    std::size_t jobs = 0;
    double wall_s = 0.0;
    double speedup_vs_serial = 0.0;
    bool bit_identical = true;
  };
  std::vector<JobsScalingPoint> jobs_scaling;
  bool jobs_sweep_identical = true;
  const std::vector<std::size_t> sweep_jobs = parse_jobs_list(config.jobs_sweep);
  for (const std::size_t j : sweep_jobs) {
    campaign_config.jobs = j;
    JobsScalingPoint point;
    point.jobs = j;
    point.wall_s = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      sim::AppMrcLibrary sweep_library;
      sim::Simulator sweep_testbed(machine, &sweep_library, measurement);
      sweep_library.profile_all(campaign_config.targets);
      t0 = std::chrono::steady_clock::now();
      const core::CampaignResult sweep_run =
          core::run_campaign(sweep_testbed, campaign_config);
      const double wall = seconds_since(t0);
      if (rep == 0 || wall < point.wall_s) point.wall_s = wall;
      if (rep == 0) {
        point.bit_identical = datasets_bit_identical(sweep_run.dataset,
                                                     campaign_serial.dataset);
      }
    }
    jobs_sweep_identical = jobs_sweep_identical && point.bit_identical;
    jobs_scaling.push_back(point);
  }
  const auto serial_point =
      std::find_if(jobs_scaling.begin(), jobs_scaling.end(),
                   [](const JobsScalingPoint& p) { return p.jobs == 1; });
  const double sweep_baseline_s =
      serial_point != jobs_scaling.end() ? serial_point->wall_s
                                         : campaign_serial_s;
  for (JobsScalingPoint& point : jobs_scaling) {
    point.speedup_vs_serial =
        point.wall_s > 0.0 ? sweep_baseline_s / point.wall_s : 0.0;
    std::printf("campaign (jobs=%zu sweep): %6.3f s  (%.2fx vs serial, %s)\n",
                point.jobs, point.wall_s, point.speedup_vs_serial,
                point.bit_identical ? "bit-identical" : "DIVERGED");
  }

  // --- Stage 2b: the 12-model evaluation zoo, serial vs. flattened batch
  // across the pool. Reduced partition/iteration counts keep the stage
  // proportionate; the equivalence gate is what matters on slow runners.
  // The race runs at >= 4 SCG restarts per MLP fit so it exercises the
  // fused multi-restart trainer: the serial arm pins the historical
  // sequential restart loop (fused + pooled restarts disabled), the
  // parallel arm runs the batched kernels on the flat task graph. The
  // bit-identity gate below therefore covers BOTH the scheduler and the
  // fused kernels. zoo_config itself stays untouched for Stage 2c so the
  // bundle digest is comparable across runs at default --restarts.
  core::EvaluationConfig zoo_config = config.evaluation();
  zoo_config.validation.partitions = std::min<std::size_t>(config.partitions,
                                                           10);
  zoo_config.zoo.mlp.max_iterations =
      std::min<std::size_t>(config.nn_iterations, 300);
  const std::size_t zoo_race_restarts =
      std::max<std::size_t>(config.restarts, 4);

  core::EvaluationConfig zoo_serial_config = zoo_config;
  zoo_serial_config.zoo.mlp.restarts = zoo_race_restarts;
  zoo_serial_config.zoo.mlp.fused_restarts = false;
  zoo_serial_config.validation.parallel = false;
  pre_arm = obs::Registry::global().snapshot();
  arm_start_ns = obs::trace_now_ns();
  t0 = std::chrono::steady_clock::now();
  const core::EvaluationSuite zoo_serial =
      core::evaluate_model_zoo(campaign.dataset, zoo_serial_config);
  const double zoo_serial_s = seconds_since(t0);
  const ArmAttribution zoo_serial_attr =
      capture_arm("validation", zoo_serial_s, pre_arm, arm_start_ns,
                  obs::trace_now_ns(), "validation");
  std::printf("model zoo (serial)   : %8.3f s  (12 models, %zu partitions, "
              "%zu restarts)\n",
              zoo_serial_s, zoo_config.validation.partitions,
              zoo_race_restarts);

  core::EvaluationConfig zoo_parallel_config = zoo_config;
  zoo_parallel_config.zoo.mlp.restarts = zoo_race_restarts;
  zoo_parallel_config.validation.parallel = true;
  zoo_parallel_config.validation.jobs = jobs;
  pre_arm = obs::Registry::global().snapshot();
  arm_start_ns = obs::trace_now_ns();
  t0 = std::chrono::steady_clock::now();
  const core::EvaluationSuite zoo_parallel =
      core::evaluate_model_zoo(campaign.dataset, zoo_parallel_config);
  const double zoo_parallel_s = seconds_since(t0);
  const ArmAttribution zoo_parallel_attr =
      capture_arm("validation", zoo_parallel_s, pre_arm, arm_start_ns,
                  obs::trace_now_ns(), "validation");
  const double zoo_speedup =
      zoo_parallel_s > 0.0 ? zoo_serial_s / zoo_parallel_s : 0.0;
  std::printf("model zoo (jobs=%zu fused): %8.3f s  (%.2fx vs serial)\n",
              jobs, zoo_parallel_s, zoo_speedup);

  bool zoo_identical =
      zoo_serial.evaluations.size() == zoo_parallel.evaluations.size();
  for (std::size_t i = 0; zoo_identical && i < zoo_serial.evaluations.size();
       ++i) {
    const auto& a = zoo_serial.evaluations[i].result;
    const auto& b = zoo_parallel.evaluations[i].result;
    zoo_identical = bitwise_equal(a.test_mpe, b.test_mpe) &&
                    bitwise_equal(a.train_mpe, b.train_mpe) &&
                    bitwise_equal(a.test_nrmse, b.test_nrmse) &&
                    bitwise_equal(a.train_nrmse, b.train_nrmse);
  }

  // --- Stage 2c: warm start from the artifact store. Train the full
  // twelve-model zoo once (cold), persist it as a checksummed bundle,
  // reload it, and require the reloaded models to serialize
  // byte-identically to the trained ones. The interesting number is the
  // warm-start speedup: what a deployment saves by shipping the bundle
  // instead of retraining at boot.
  const std::string zoo_bundle_dir =
      !config.zoo_out.empty() ? config.zoo_out : std::string("BENCH_zoo_bundle");
  const std::string zoo_load_dir =
      !config.zoo_in.empty() ? config.zoo_in : zoo_bundle_dir;
  store::FileOps& files = store::FileOps::real();

  t0 = std::chrono::steady_clock::now();
  const core::TrainedZoo zoo_cold =
      core::train_full_zoo(campaign.dataset, zoo_config.zoo);
  const double zoo_cold_s = seconds_since(t0);

  const store::ZooSaveResult saved = core::save_trained_zoo(
      files, zoo_bundle_dir, zoo_cold,
      {{"seed", std::to_string(config.seed)},
       {"machine", machine.name},
       {"nn_iters", std::to_string(zoo_config.zoo.mlp.max_iterations)}});
  obs::add_manifest_extra("zoo_bundle_digest", saved.bundle_digest);

  t0 = std::chrono::steady_clock::now();
  const core::ZooLoadOutcome warm = core::load_or_repair_zoo(
      files, zoo_load_dir, campaign.dataset, zoo_config.zoo);
  const double zoo_warm_s = seconds_since(t0);
  const double warm_speedup = zoo_warm_s > 0.0 ? zoo_cold_s / zoo_warm_s : 0.0;
  std::printf("zoo train (cold)     : %8.3f s  (12 models)\n", zoo_cold_s);
  std::printf("zoo load (warm)      : %8.3f s  (%.2fx vs cold; %zu "
              "retrained)\n",
              zoo_warm_s, warm_speedup, warm.retrained.size());

  bool zoo_warm_identical = warm.retrained.empty();
  for (const auto& [name, cold_model] : zoo_cold.models) {
    if (!zoo_warm_identical) break;
    const ml::Regressor* warm_model = warm.zoo.find(name);
    if (warm_model == nullptr) {
      zoo_warm_identical = false;
      break;
    }
    std::ostringstream cold_bytes, warm_bytes;
    ml::save_model(cold_bytes, *cold_model);
    ml::save_model(warm_bytes, *warm_model);
    zoo_warm_identical = cold_bytes.str() == warm_bytes.str();
  }

  const double end_to_end_serial_s = campaign_serial_s + zoo_serial_s;
  const double end_to_end_parallel_s = campaign_s + zoo_parallel_s;
  const double end_to_end_speedup =
      end_to_end_parallel_s > 0.0
          ? end_to_end_serial_s / end_to_end_parallel_s
          : 0.0;
  std::printf("end-to-end           : %8.3f s serial, %.3f s parallel "
              "(%.2fx)\n",
              end_to_end_serial_s, end_to_end_parallel_s, end_to_end_speedup);

  // Where did the serial-vs-parallel gap go? Decompose each stage's
  // worker-seconds and walk the parallel arm's span graph.
  print_arm("campaign", jobs, campaign_serial_s, campaign_parallel_attr);
  print_arm("zoo", jobs, zoo_serial_s, zoo_parallel_attr);

  // --- Stage 3: set-F MLP validation, fast path vs pre-PR replica.
  // Both arms share one MlpOptions so the comparison isolates the
  // implementation, not the hyperparameters.
  ml::MlpOptions mlp = config.evaluation().zoo.mlp;
  mlp.hidden_units = core::hidden_units_for(core::FeatureSet::kF);
  const auto& columns = core::feature_set_columns(core::FeatureSet::kF);
  ml::ValidationOptions validation;
  validation.partitions = config.partitions;

  const ml::ModelFactory fast_factory =
      [&mlp](const linalg::Matrix& x,
             std::span<const double> y) -> ml::RegressorPtr {
    return std::make_unique<ml::MlpRegressor>(ml::MlpRegressor::fit(x, y, mlp));
  };
  const ml::ModelFactory legacy_factory =
      [&mlp](const linalg::Matrix& x,
             std::span<const double> y) -> ml::RegressorPtr {
    return LegacyMlp::fit(x, y, mlp);
  };

  t0 = std::chrono::steady_clock::now();
  const ml::ValidationResult legacy = ml::repeated_subsampling_validation(
      campaign.dataset, columns, legacy_factory, validation);
  const double legacy_s = seconds_since(t0);
  std::printf("validation (legacy)  : %8.3f s  (MPE %.3f%%, NRMSE %.3f)\n",
              legacy_s, legacy.test_mpe, legacy.test_nrmse);

  t0 = std::chrono::steady_clock::now();
  const ml::ValidationResult fast = ml::repeated_subsampling_validation(
      campaign.dataset, columns, fast_factory, validation);
  const double fast_s = seconds_since(t0);
  std::printf("validation (fast)    : %8.3f s  (MPE %.3f%%, NRMSE %.3f)\n",
              fast_s, fast.test_mpe, fast.test_nrmse);

  const double speedup = fast_s > 0.0 ? legacy_s / fast_s : 0.0;
  std::printf("validation speedup   : %8.2fx (%zu partitions, set F)\n",
              speedup, validation.partitions);

  // --- Equivalence gates.
  std::vector<Gate> gates;
  Rng rng(config.seed ^ 0x5eedULL);

  {  // (a) tiled GEMM vs the naive reference loop, odd non-square shapes.
    double worst = 0.0;
    const std::size_t shapes[][3] = {{17, 31, 23}, {64, 64, 64}, {1, 129, 7}};
    for (const auto& s : shapes) {
      const linalg::Matrix a = random_matrix(s[0], s[1], rng);
      const linalg::Matrix b = random_matrix(s[1], s[2], rng);
      const linalg::Matrix fast_c = linalg::matmul(a, b);
      const linalg::Matrix ref_c = linalg::matmul_naive(a, b);
      worst = std::max(worst, max_abs_diff(fast_c.data(), ref_c.data()));
    }
    gates.push_back({"matmul_vs_naive_max_abs_diff", worst, 1e-12});
  }

  {  // (b) batched loss/gradient vs the rowwise reference oracle.
    const std::size_t m = 37, inputs = 9, hidden = 13;
    const linalg::Matrix x = random_matrix(m, inputs, rng);
    std::vector<double> y(m);
    for (double& v : y) v = rng.uniform(-1.0, 1.0);
    ml::MlpNetwork net(inputs, hidden);
    Rng init(config.seed + 1);
    net.initialize(init);
    std::vector<double> g_fast(net.num_parameters());
    std::vector<double> g_ref(net.num_parameters());
    const double l_fast = net.loss_and_gradient(x, y, 1e-6, g_fast);
    const double l_ref = net.loss_and_gradient_reference(x, y, 1e-6, g_ref);
    const double worst =
        std::max(std::abs(l_fast - l_ref), max_abs_diff(g_fast, g_ref));
    gates.push_back({"batched_loss_vs_reference_max_abs_diff", worst, 1e-12});
  }

  // (c) fast vs legacy validation metrics. The two arms differ only in the
  // tanh implementation (|rel err| < 1e-15 per call), so trained models —
  // and the averaged validation metrics — must agree far inside a quarter
  // of a percentage point.
  gates.push_back(
      {"fast_vs_legacy_test_mpe_pp", std::abs(fast.test_mpe - legacy.test_mpe),
       0.25});
  gates.push_back({"fast_vs_legacy_test_nrmse_pp",
                   std::abs(fast.test_nrmse - legacy.test_nrmse), 0.25});

  // (e) the batched simulation kernels must replay their scalar oracles
  // bit-for-bit: the run-length-segmented trace batch, the marker-bitmap
  // profiler vs the Fenwick replica, and the SoA cache walk.
  gates.push_back({"trace_batch_bit_identical",
                   trace_batch_identical ? 0.0 : 1.0, 0.0});
  gates.push_back({"trace_profile_bit_identical",
                   profile_identical ? 0.0 : 1.0, 0.0});
  gates.push_back({"cache_batch_bit_identical",
                   cache_batch_identical ? 0.0 : 1.0, 0.0});

  // (f) the task-parallel orchestration layers must be byte-equivalent to
  // their serial counterparts: the campaign's sequenced collector and the
  // flattened model-zoo batch.
  gates.push_back({"campaign_parallel_bit_identical",
                   campaign_identical ? 0.0 : 1.0, 0.0});
  gates.push_back({"zoo_parallel_bit_identical", zoo_identical ? 0.0 : 1.0,
                   0.0});
  if (!jobs_scaling.empty()) {
    gates.push_back({"jobs_sweep_bit_identical",
                     jobs_sweep_identical ? 0.0 : 1.0, 0.0});
  }

  // (g) the store round-trip: models reloaded from the zoo bundle must be
  // byte-identical to the freshly trained zoo (and nothing retrained).
  gates.push_back({"zoo_warm_start_bit_identical",
                   zoo_warm_identical ? 0.0 : 1.0, 0.0});

  {  // (d) memoized contention solve must be bit-identical to a cold solve.
    const sim::ApplicationSpec cg = sim::find_application("cg");
    const std::vector<sim::ApplicationSpec> coapps(3, cg);
    const sim::RunMeasurement first =
        testbed.run_colocated(canneal, coapps, 0, /*repetition=*/11);
    const sim::RunMeasurement second =
        testbed.run_colocated(canneal, coapps, 0, /*repetition=*/11);
    gates.push_back({"solve_cache_bit_identical",
                     bitwise_equal(first.execution_time_s,
                                   second.execution_time_s)
                         ? 0.0
                         : 1.0,
                     0.0});
  }

  bool all_pass = true;
  std::printf("\nequivalence gates:\n");
  for (const Gate& g : gates) {
    all_pass = all_pass && g.pass();
    std::printf("  %-40s %s  (%.3e <= %.3e)\n", g.name,
                g.pass() ? "PASS" : "FAIL", g.value, g.limit);
  }

  auto& registry = obs::Registry::global();
  const std::uint64_t hits =
      registry.counter("sim_solve_cache_hits_total").value();
  const std::uint64_t misses =
      registry.counter("sim_solve_cache_misses_total").value();
  const double hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  std::printf("solve cache          : %llu hits / %llu misses (%.1f%%)\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses), 100.0 * hit_rate);
  const std::uint64_t memo_hits =
      registry.counter("sim_profile_memo_hits_total").value();
  const std::uint64_t memo_misses =
      registry.counter("sim_profile_memo_misses_total").value();
  std::printf("profile memo         : %llu hits / %llu misses\n",
              static_cast<unsigned long long>(memo_hits),
              static_cast<unsigned long long>(memo_misses));
  const std::uint64_t fused_restarts =
      registry.counter("scg_fused_restarts_total").value();
  const obs::Histogram& train_gemm = registry.histogram("train_gemm_seconds");
  const std::uint64_t design_hits =
      registry.counter("validation_design_memo_hits_total").value();
  const std::uint64_t design_misses =
      registry.counter("validation_design_memo_misses_total").value();
  std::printf("fused trainer        : %llu fused restarts, %.3f s in batched "
              "GEMM (%llu calls)\n",
              static_cast<unsigned long long>(fused_restarts),
              train_gemm.sum(),
              static_cast<unsigned long long>(train_gemm.count()));
  std::printf("design memo          : %llu hits / %llu misses\n",
              static_cast<unsigned long long>(design_hits),
              static_cast<unsigned long long>(design_misses));

  std::ofstream os(out_path, std::ios::trunc);
  if (os) {
    os.precision(17);
    os << "{\n"
       << "  \"program\": \"bench_perf_pipeline\",\n"
       << "  \"partitions\": " << validation.partitions << ",\n"
       << "  \"nn_iterations\": " << mlp.max_iterations << ",\n"
       << "  \"seed\": " << config.seed << ",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"sweep_scale\": " << config.sweep_scale << ",\n"
       << "  \"restarts\": " << config.restarts << ",\n"
       << "  \"zoo_race_restarts\": " << zoo_race_restarts << ",\n"
       << "  \"timings_s\": {\n"
       << "    \"trace_generate\": " << generate_s << ",\n"
       << "    \"trace_profile\": " << profile_s << ",\n"
       << "    \"trace_profile_legacy\": " << legacy_profile_s << ",\n"
       << "    \"campaign_serial\": " << campaign_serial_s << ",\n"
       << "    \"campaign_parallel\": " << campaign_s << ",\n"
       << "    \"zoo_serial\": " << zoo_serial_s << ",\n"
       << "    \"zoo_parallel\": " << zoo_parallel_s << ",\n"
       << "    \"zoo_train_cold\": " << zoo_cold_s << ",\n"
       << "    \"zoo_load_warm\": " << zoo_warm_s << ",\n"
       << "    \"end_to_end_serial\": " << end_to_end_serial_s << ",\n"
       << "    \"end_to_end_parallel\": " << end_to_end_parallel_s << ",\n"
       << "    \"validation_legacy\": " << legacy_s << ",\n"
       << "    \"validation_fast\": " << fast_s << "\n  },\n"
       << "  \"kernel_speedup\": " << kernel_speedup << ",\n"
       << "  \"campaign_speedup\": " << campaign_speedup << ",\n";
    os << "  \"jobs_scaling\": [\n";
    for (std::size_t i = 0; i < jobs_scaling.size(); ++i) {
      const JobsScalingPoint& p = jobs_scaling[i];
      os << "    {\"jobs\": " << p.jobs << ", \"wall_s\": " << p.wall_s
         << ", \"speedup_vs_serial\": " << p.speedup_vs_serial
         << ", \"bit_identical\": " << (p.bit_identical ? "true" : "false")
         << "}" << (i + 1 == jobs_scaling.size() ? "\n" : ",\n");
    }
    os << "  ],\n"
       << "  \"zoo_speedup\": " << zoo_speedup << ",\n"
       << "  \"zoo_warm_start_speedup\": " << warm_speedup << ",\n"
       << "  \"zoo_bundle_digest\": \"" << saved.bundle_digest << "\",\n"
       << "  \"zoo_models_retrained\": " << warm.retrained.size() << ",\n"
       << "  \"end_to_end_speedup\": " << end_to_end_speedup << ",\n"
       << "  \"validation_speedup\": " << speedup << ",\n"
       << "  \"fast\": {\"test_mpe\": " << fast.test_mpe
       << ", \"test_nrmse\": " << fast.test_nrmse << "},\n"
       << "  \"legacy\": {\"test_mpe\": " << legacy.test_mpe
       << ", \"test_nrmse\": " << legacy.test_nrmse << "},\n"
       << "  \"solve_cache\": {\"hits\": " << hits << ", \"misses\": "
       << misses << ", \"hit_rate\": " << hit_rate << "},\n"
       << "  \"profile_memo\": {\"hits\": " << memo_hits << ", \"misses\": "
       << memo_misses << "},\n"
       << "  \"training\": {\"scg_fused_restarts_total\": " << fused_restarts
       << ", \"train_gemm_seconds_sum\": " << train_gemm.sum()
       << ", \"train_gemm_seconds_count\": " << train_gemm.count()
       << ", \"design_memo_hits\": " << design_hits
       << ", \"design_memo_misses\": " << design_misses << "},\n"
       << "  \"attribution\": {\n";
    json_arm(os, "campaign", jobs, campaign_serial_s, campaign_serial_attr,
             campaign_parallel_attr, /*last=*/false);
    json_arm(os, "zoo", jobs, zoo_serial_s, zoo_serial_attr,
             zoo_parallel_attr, /*last=*/true);
    os << "  },\n"
       << "  \"equivalence\": [\n";
    for (std::size_t i = 0; i < gates.size(); ++i)
      json_gate(os, gates[i], i + 1 == gates.size());
    os << "  ],\n"
       << "  \"equivalence_ok\": " << (all_pass ? "true" : "false") << "\n"
       << "}\n";
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", out_path.c_str());
  }

  return all_pass ? 0 : 1;
}
