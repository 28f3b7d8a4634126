#include "obs/attribution.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/json.hpp"

namespace coloc::obs {

namespace {

std::string format_seconds(double s) {
  char buf[64];
  if (std::abs(s) >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3f s", s);
  } else if (std::abs(s) >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f us", s * 1e6);
  }
  return buf;
}

std::string format_pct(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", pct);
  return buf;
}

}  // namespace

double HistogramStats::mean() const {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double HistogramStats::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  double last_finite = 0.0;
  for (const auto& [le, c] : buckets) {
    cumulative += c;
    if (std::isfinite(le)) last_finite = le;
    if (static_cast<double>(cumulative) >= rank) {
      return std::isfinite(le) ? le : last_finite;
    }
  }
  return last_finite;
}

MetricsDoc MetricsDoc::load_file(const std::string& path) {
  const JsonValue doc = json_parse_file(path);
  const JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    throw std::runtime_error(path + ": not a metrics snapshot (no metrics)");
  }
  MetricsDoc out;
  out.entries.reserve(metrics->size());
  for (const JsonValue& m : metrics->array) {
    if (!m.is_object()) continue;
    MetricEntry entry;
    if (const JsonValue* v = m.find("name"); v != nullptr) {
      entry.name = v->string;
    }
    if (const JsonValue* v = m.find("type"); v != nullptr) {
      entry.type = v->string;
    }
    if (const JsonValue* v = m.find("labels");
        v != nullptr && v->is_object()) {
      for (const auto& [k, val] : v->object) {
        entry.labels.emplace_back(k, val.string);
      }
    }
    if (entry.type == "histogram") {
      if (const JsonValue* v = m.find("count");
          v != nullptr && v->is_number()) {
        entry.histogram.count = static_cast<std::uint64_t>(v->number);
      }
      if (const JsonValue* v = m.find("sum");
          v != nullptr && v->is_number()) {
        entry.histogram.sum = v->number;
      }
      if (const JsonValue* v = m.find("buckets");
          v != nullptr && v->is_array()) {
        for (const JsonValue& b : v->array) {
          const JsonValue* le = b.find("le");
          const JsonValue* c = b.find("count");
          if (le == nullptr || c == nullptr || !c->is_number()) continue;
          const double bound =
              le->is_number() ? le->number
                              : std::numeric_limits<double>::infinity();
          entry.histogram.buckets.emplace_back(
              bound, static_cast<std::uint64_t>(c->number));
        }
      }
    } else if (const JsonValue* v = m.find("value");
               v != nullptr && v->is_number()) {
      entry.value = v->number;
    }
    out.entries.push_back(std::move(entry));
  }
  return out;
}

const MetricEntry* MetricsDoc::find(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& labels) const {
  for (const MetricEntry& e : entries) {
    if (e.name != name) continue;
    bool all = true;
    for (const auto& want : labels) {
      if (std::find(e.labels.begin(), e.labels.end(), want) ==
          e.labels.end()) {
        all = false;
        break;
      }
    }
    if (all) return &e;
  }
  return nullptr;
}

BundleData BundleData::load(const std::string& path) {
  BundleData bundle;
  std::string manifest_path = path;
  const std::string suffix = "manifest.json";
  const bool is_manifest =
      path.size() >= suffix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
  if (is_manifest) {
    const std::size_t slash = path.find_last_of('/');
    bundle.dir = slash == std::string::npos ? "." : path.substr(0, slash);
  } else {
    bundle.dir = path;
    while (!bundle.dir.empty() && bundle.dir.back() == '/') {
      bundle.dir.pop_back();
    }
    manifest_path = bundle.dir + "/manifest.json";
  }
  bundle.manifest = Manifest::from_json_file(manifest_path);
  bundle.metrics = MetricsDoc::load_file(bundle.dir + "/metrics.json");
  return bundle;
}

double residual_tolerance(double capacity_seconds) {
  constexpr double kFloorSeconds = 1e-3;
  constexpr double kCapacityFraction = 0.01;
  return std::max(kFloorSeconds, kCapacityFraction * capacity_seconds);
}

namespace {

/// Named numbers read out of one bundle's metrics.json.
using Values = std::vector<std::pair<std::string, double>>;

struct SurfacedCounter {
  std::string_view section;
  std::string_view name;
};

/// The counters the report and the diff surface, by section: what the
/// crash-safety layers count when they detect damage or recover from it,
/// and the fused trainer's and the design memo's tallies.
constexpr SurfacedCounter kSurfacedCounters[] = {
    {"recovery", "store_corruption_detected_total"},
    {"recovery", "supervisor_stage_executed_total"},
    {"recovery", "supervisor_stage_skipped_total"},
    {"recovery", "supervisor_stage_replayed_total"},
    {"recovery", "supervisor_clean_stops_total"},
    {"recovery", "zoo_models_retrained_total"},
    {"recovery", "checkpoint_rows_loaded_total"},
    {"training", "scg_runs_total"},
    {"training", "scg_epochs_total"},
    {"training", "scg_fused_restarts_total"},
    {"training", "validation_design_memo_hits_total"},
    {"training", "validation_design_memo_misses_total"},
};

/// "name{k=v,...}", or the bare name when the entry has no labels.
std::string rendered_name(const MetricEntry& e) {
  if (e.labels.empty()) return e.name;
  std::string out = e.name + "{";
  for (std::size_t i = 0; i < e.labels.size(); ++i) {
    if (i > 0) out += ',';
    out += e.labels[i].first + "=" + e.labels[i].second;
  }
  return out + "}";
}

/// The section's non-zero surfaced counters, in metrics.json order.
Values surfaced(const MetricsDoc& metrics, std::string_view section) {
  Values out;
  for (const MetricEntry& e : metrics.entries) {
    if (e.type != "counter" || e.value == 0.0) continue;
    for (const SurfacedCounter& c : kSurfacedCounters) {
      if (c.section == section && c.name == e.name) {
        out.emplace_back(rendered_name(e), e.value);
      }
    }
  }
  return out;
}

/// Each stage's stage_wall_seconds{stage}, in stage-name order.
Values stage_walls(const MetricsDoc& metrics) {
  Values out;
  for (const MetricEntry& e : metrics.entries) {
    if (e.name != "stage_wall_seconds") continue;
    for (const auto& [key, stage] : e.labels) {
      if (key == "stage") out.emplace_back(stage, e.value);
    }
  }
  return out;
}

const double* find_value(const Values& values, const std::string& name) {
  for (const auto& [n, v] : values) {
    if (n == name) return &v;
  }
  return nullptr;
}

/// The names of `a`, then those only in `b`.
std::vector<std::string> union_names(const Values& a, const Values& b) {
  std::vector<std::string> names;
  for (const auto& [name, v] : a) names.push_back(name);
  for (const auto& [name, v] : b) {
    if (find_value(a, name) == nullptr) names.push_back(name);
  }
  return names;
}

}  // namespace

std::vector<StageAccounting> account_stages(const BundleData& bundle) {
  const MetricsDoc& metrics = bundle.metrics;
  std::vector<StageAccounting> out;
  for (const auto& [stage, wall] : stage_walls(metrics)) {
    StageAccounting s;
    s.stage = stage;
    s.wall_seconds = wall;
    const Labels labels = {{"stage", stage}};
    if (const MetricEntry* runs = metrics.find("stage_runs_total", labels)) {
      s.runs = static_cast<std::uint64_t>(runs->value);
    }
    const MetricEntry* workers = metrics.find("stage_pool_workers", labels);
    s.pooled = workers != nullptr;
    if (s.pooled) {
      s.workers = workers->value;
      const std::pair<const char*, double*> pool[] = {
          {"stage_pool_wall_seconds", &s.call_wall_seconds},
          {"stage_pool_busy_seconds", &s.busy_seconds},
          {"stage_pool_idle_seconds", &s.idle_seconds},
          {"stage_pool_wait_seconds", &s.wait_seconds},
          {"stage_pool_utilization", &s.utilization},
          {"stage_pool_unbalanced_calls_total", &s.unbalanced_calls},
      };
      for (const auto& [name, value] : pool) {
        const MetricEntry* e = metrics.find(name, labels);
        if (e == nullptr) {
          s.failures.push_back(std::string("missing ") + name);
        } else {
          *value = e->value;
        }
      }
      if (s.call_wall_seconds > s.wall_seconds) {
        s.failures.push_back("pool call " +
                             format_seconds(s.call_wall_seconds) +
                             " outlasts the stage's " +
                             format_seconds(s.wall_seconds));
      }
      if (s.unbalanced_calls > 0.0) {
        s.failures.push_back(
            std::to_string(static_cast<std::uint64_t>(s.unbalanced_calls)) +
            " unbalanced pool call(s): residual over the tolerance");
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

namespace {

void render_histogram_line(std::ostringstream& os, const BundleData& bundle,
                           const char* name, const char* title) {
  const MetricEntry* e = bundle.metrics.find(name);
  os << "  " << title << ": ";
  if (e == nullptr || e->histogram.count == 0) {
    os << "no samples\n";
    return;
  }
  const HistogramStats& h = e->histogram;
  os << h.count << " samples, sum " << format_seconds(h.sum) << ", mean "
     << format_seconds(h.mean()) << ", p50 <= "
     << format_seconds(h.quantile(0.5)) << ", p99 <= "
     << format_seconds(h.quantile(0.99)) << "\n";
}

}  // namespace

ReportResult render_report(const BundleData& bundle) {
  ReportResult result;
  std::ostringstream os;
  const Manifest& m = bundle.manifest;
  os << "== run manifest ==\n"
     << "  program:  " << m.info.program << "\n"
     << "  build:    " << m.git_describe << " (" << m.build_type << ", "
     << m.compiler << ")\n"
     << "  run:      seed=" << m.info.seed << " jobs=" << m.info.jobs
     << " fault_rate=" << m.info.fault_rate;
  if (!m.info.machine_preset.empty()) {
    os << " machine=" << m.info.machine_preset;
  }
  os << "\n"
     << "  wall:     " << format_seconds(m.total_wall_seconds)
     << "  cpu: " << format_seconds(m.cpu_seconds) << "  peak_rss: "
     << (m.peak_rss_kb >= 0
             ? std::to_string(m.peak_rss_kb / 1024) + " MB"
             : std::string("unknown"))
     << "\n"
     << "  metrics digest: " << m.metrics_digest << "\n";

  os << "\n== stages ==\n";
  for (const StageAccounting& s : account_stages(bundle)) {
    os << "  " << s.stage << ": wall " << format_seconds(s.wall_seconds);
    if (s.runs > 1) os << " (last of " << s.runs << " calls)";
    if (!s.pooled) {
      os << " (no pool call)\n";
      continue;
    }
    os << " = pool call " << format_seconds(s.call_wall_seconds)
       << " + outside " << format_seconds(s.outside_seconds()) << "\n"
       << "    " << static_cast<int>(s.workers) << " workers x "
       << format_seconds(s.call_wall_seconds) << " = busy "
       << format_seconds(s.busy_seconds) << " + idle "
       << format_seconds(s.idle_seconds) << " (wait "
       << format_seconds(s.wait_seconds) << " + tail "
       << format_seconds(s.tail_seconds()) << ") + residual "
       << format_seconds(s.residual_seconds()) << "\n"
       << "    utilization "
       << static_cast<int>(s.utilization * 100.0 + 0.5)
       << "%, residual tolerance "
       << format_seconds(residual_tolerance(s.capacity_seconds()))
       << ", unbalanced calls "
       << static_cast<std::uint64_t>(s.unbalanced_calls) << ": "
       << (s.failures.empty() ? "ok" : "FAIL") << "\n";
    for (const std::string& why : s.failures) {
      result.failures.push_back(s.stage + ": " + why);
    }
  }

  // The training section also splits the objective's seconds
  // (train_gemm_seconds) over train_kernel_seconds{kernel}; the rest of the
  // objective is gathering and scattering the restart planes.
  const MetricEntry* objective = bundle.metrics.find("train_gemm_seconds");
  const double objective_s =
      objective != nullptr ? objective->histogram.sum : 0.0;
  for (const char* section : {"recovery", "training"}) {
    const Values counters = surfaced(bundle.metrics, section);
    std::vector<const MetricEntry*> kernels;
    if (std::string_view(section) == "training") {
      for (const MetricEntry& e : bundle.metrics.entries) {
        if (e.name == "train_kernel_seconds" && e.histogram.count > 0)
          kernels.push_back(&e);
      }
    }
    if (counters.empty() && kernels.empty()) continue;
    os << "\n== " << section << " ==\n";
    for (const auto& [name, value] : counters) {
      os << "  " << name << ": " << static_cast<std::uint64_t>(value)
         << "\n";
    }
    for (const MetricEntry* e : kernels) {
      os << "  " << rendered_name(*e) << ": "
         << format_seconds(e->histogram.sum);
      if (objective_s > 0.0) {
        os << " (" << static_cast<int>(e->histogram.sum / objective_s * 100.0 +
                                       0.5)
           << "% of train gemm)";
      }
      os << "\n";
    }
  }

  // Queue wait is each chunk's backlog position (call start -> claim), so
  // on large calls it tracks stage wall; the scheduling delay is the
  // stages' wait above.
  os << "\n== task attribution (histograms) ==\n";
  render_histogram_line(os, bundle, "pool_queue_wait_seconds",
                        "queue wait  ");
  render_histogram_line(os, bundle, "pool_exec_seconds",
                        "execution   ");
  render_histogram_line(os, bundle, "pool_commit_hold_seconds",
                        "commit hold ");
  render_histogram_line(os, bundle, "train_gemm_seconds",
                        "train gemm  ");

  os << "\n== accounting check ==\n";
  if (result.failures.empty()) {
    os << "  OK: every stage's accounting balances\n";
  } else {
    os << "  FAIL: " << result.failures.size() << " check(s)\n";
    for (const std::string& f : result.failures) os << "    - " << f << "\n";
  }
  result.text = os.str();
  return result;
}

namespace {

/// Percent change current vs baseline; 0 when the baseline is ~0.
double pct_change(double baseline, double current) {
  if (!(baseline > 1e-12)) return 0.0;
  return (current - baseline) / baseline * 100.0;
}

/// Regression test with a tolerance so "exactly at threshold" trips
/// (floating-point pct arithmetic must not mask a configured bound).
bool trips(double pct, double threshold_pct) {
  return pct >= threshold_pct - 1e-9;
}

/// Prints "label: a -> b (pct)" and records a regression when the growth
/// reaches `threshold_pct`.
void gate(std::ostringstream& os, DiffResult& result,
          const std::string& label, double a, double b,
          double threshold_pct) {
  const double pct = pct_change(a, b);
  os << "  " << label << ": " << format_seconds(a) << " -> "
     << format_seconds(b) << " (" << format_pct(pct) << ")";
  if (trips(pct, threshold_pct)) {
    os << "  REGRESSION";
    result.regressions.push_back(label + " " + format_pct(pct) +
                                 " (threshold " + format_pct(threshold_pct) +
                                 ")");
  }
  os << "\n";
}

/// Gates one statistic of a histogram both bundles sampled; a histogram
/// missing from either bundle is reported, never gated.
void gate_histogram(std::ostringstream& os, DiffResult& result,
                    const BundleData& baseline, const BundleData& current,
                    const char* name, bool sum, double threshold_pct) {
  const std::string label = std::string(name) + (sum ? " sum" : " p99");
  const MetricEntry* a = baseline.metrics.find(name);
  const MetricEntry* b = current.metrics.find(name);
  if (a == nullptr || b == nullptr || a->histogram.count == 0 ||
      b->histogram.count == 0) {
    os << "  " << label << ": absent in one or both bundles\n";
    return;
  }
  const auto stat = [sum](const HistogramStats& h) {
    return sum ? h.sum : h.quantile(0.99);
  };
  gate(os, result, label, stat(a->histogram), stat(b->histogram),
       threshold_pct);
}

}  // namespace

DiffResult diff_bundles(const BundleData& baseline,
                        const BundleData& current) {
  DiffResult result;
  std::ostringstream os;
  os << "== bundle diff ==\n"
     << "  baseline: " << baseline.manifest.info.program << " @ "
     << baseline.manifest.git_describe << " (" << baseline.dir << ")\n"
     << "  current:  " << current.manifest.info.program << " @ "
     << current.manifest.git_describe << " (" << current.dir << ")\n"
     << "  thresholds: stage wall +" << kStageWallRegressionPct
     << "%, queue-wait p99 +" << kQueueWaitP99RegressionPct
     << "%, predict p99 +" << kPredictP99RegressionPct
     << "%, train gemm sum +" << kTrainGemmSumRegressionPct << "%\n";

  if (baseline.manifest.metrics_digest == current.manifest.metrics_digest &&
      !baseline.manifest.metrics_digest.empty()) {
    os << "  metrics digests identical (" << baseline.manifest.metrics_digest
       << ")\n";
  }

  os << "\n== stage wall ==\n";
  const Values walls_a = stage_walls(baseline.metrics);
  const Values walls_b = stage_walls(current.metrics);
  for (const std::string& stage : union_names(walls_a, walls_b)) {
    const double* a = find_value(walls_a, stage);
    const double* b = find_value(walls_b, stage);
    if (a == nullptr || b == nullptr) {
      os << "  " << stage << ": only in "
         << (a == nullptr ? "current" : "baseline") << " bundle\n";
      continue;
    }
    gate(os, result, "stage " + stage + " wall", *a, *b,
         kStageWallRegressionPct);
  }

  // Queue wait, placement query latency and the fused trainer's GEMM
  // seconds gate only when both bundles sampled them, so benches without
  // placement or training keep diffing unchanged. A trainer silently
  // falling back shows as the GEMM sum growing past its threshold.
  os << "\n== histograms ==\n";
  gate_histogram(os, result, baseline, current, "pool_queue_wait_seconds",
                 false, kQueueWaitP99RegressionPct);
  gate_histogram(os, result, baseline, current, "placement_predict_seconds",
                 false, kPredictP99RegressionPct);
  gate_histogram(os, result, baseline, current, "train_gemm_seconds", true,
                 kTrainGemmSumRegressionPct);

  // Training and recovery counters are not gated, but a diff must make it
  // obvious when one run trained differently, detected corruption or
  // replayed stages and the other did not.
  for (const char* section : {"training", "recovery"}) {
    const Values a = surfaced(baseline.metrics, section);
    const Values b = surfaced(current.metrics, section);
    if (a.empty() && b.empty()) continue;
    os << "\n== " << section << " ==\n";
    const auto count = [](const double* v) {
      return v == nullptr ? std::uint64_t{0}
                          : static_cast<std::uint64_t>(*v);
    };
    for (const std::string& name : union_names(a, b)) {
      os << "  " << name << ": " << count(find_value(a, name)) << " -> "
         << count(find_value(b, name)) << "\n";
    }
  }

  os << "\n== resources ==\n"
     << "  total wall: " << format_seconds(baseline.manifest.total_wall_seconds)
     << " -> " << format_seconds(current.manifest.total_wall_seconds) << " ("
     << format_pct(pct_change(baseline.manifest.total_wall_seconds,
                              current.manifest.total_wall_seconds))
     << ")\n";
  if (baseline.manifest.peak_rss_kb >= 0 &&
      current.manifest.peak_rss_kb >= 0) {
    os << "  peak rss: " << baseline.manifest.peak_rss_kb / 1024 << " MB -> "
       << current.manifest.peak_rss_kb / 1024 << " MB ("
       << format_pct(pct_change(
              static_cast<double>(baseline.manifest.peak_rss_kb),
              static_cast<double>(current.manifest.peak_rss_kb)))
       << ")\n";
  }

  result.regression = !result.regressions.empty();
  os << "\n== verdict ==\n";
  if (result.regression) {
    os << "  REGRESSION: " << result.regressions.size()
       << " threshold(s) tripped\n";
    for (const std::string& r : result.regressions) {
      os << "    - " << r << "\n";
    }
  } else {
    os << "  OK: no thresholds tripped\n";
  }
  result.text = os.str();
  return result;
}

}  // namespace coloc::obs
