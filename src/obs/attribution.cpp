#include "obs/attribution.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

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

std::vector<StageAccounting> account_stages(const BundleData& bundle) {
  std::vector<StageAccounting> out;
  for (const StageRecord& record : bundle.manifest.stages) {
    StageAccounting s;
    s.stage = record.stage;
    s.wall_seconds = record.wall_seconds;
    const std::vector<std::pair<std::string, std::string>> labels = {
        {"stage", s.stage}};
    const MetricEntry* workers = bundle.metrics.find("stage_pool_workers",
                                                     labels);
    s.pooled = workers != nullptr;
    if (s.pooled) {
      s.workers = workers->value;
      const std::pair<const char*, double*> gauges[] = {
          {"stage_pool_wall_seconds", &s.call_wall_seconds},
          {"stage_pool_busy_seconds", &s.busy_seconds},
          {"stage_pool_idle_seconds", &s.idle_seconds},
          {"stage_pool_wait_seconds", &s.wait_seconds},
          {"stage_pool_utilization", &s.utilization},
      };
      for (const auto& [name, value] : gauges) {
        const MetricEntry* e = bundle.metrics.find(name, labels);
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
      const double tolerance = residual_tolerance(s.capacity_seconds());
      if (std::abs(s.residual_seconds()) > tolerance) {
        s.failures.push_back("residual " +
                             format_seconds(s.residual_seconds()) +
                             " exceeds the tolerance " +
                             format_seconds(tolerance));
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
       << format_seconds(residual_tolerance(s.capacity_seconds())) << ": "
       << (s.failures.empty() ? "ok" : "FAIL") << "\n";
    for (const std::string& why : s.failures) {
      result.failures.push_back(s.stage + ": " + why);
    }
  }

  if (!m.recovery.empty()) {
    os << "\n== recovery ==\n";
    for (const RecoveryRecord& r : m.recovery) {
      os << "  " << r.counter << ": " << r.value << "\n";
    }
  }

  if (!m.training.empty()) {
    os << "\n== training ==\n";
    for (const TrainingRecord& t : m.training) {
      os << "  " << t.metric << ": ";
      if (t.metric.size() > 4 &&
          t.metric.compare(t.metric.size() - 4, 4, "_sum") == 0) {
        os << format_seconds(t.value);
      } else {
        os << static_cast<std::uint64_t>(t.value);
      }
      os << "\n";
    }
    const double gemm_sum = m.training_value("train_gemm_seconds_sum");
    const double gemm_count = m.training_value("train_gemm_seconds_count");
    if (gemm_sum >= 0.0 && gemm_count > 0.0) {
      os << "  (mean fused-kernel seconds per fit: "
         << format_seconds(gemm_sum / gemm_count) << ")\n";
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

}  // namespace

DiffResult diff_bundles(const BundleData& baseline, const BundleData& current,
                        const DiffThresholds& thresholds) {
  DiffResult result;
  std::ostringstream os;
  os << "== bundle diff ==\n"
     << "  baseline: " << baseline.manifest.info.program << " @ "
     << baseline.manifest.git_describe << " (" << baseline.dir << ")\n"
     << "  current:  " << current.manifest.info.program << " @ "
     << current.manifest.git_describe << " (" << current.dir << ")\n"
     << "  thresholds: stage wall +" << thresholds.stage_wall_pct
     << "%, queue-wait p99 +" << thresholds.queue_wait_p99_pct
     << "%, predict p99 +" << thresholds.predict_p99_pct
     << "%, train gemm sum +" << thresholds.train_gemm_sum_pct << "%\n";

  if (baseline.manifest.metrics_digest == current.manifest.metrics_digest &&
      !baseline.manifest.metrics_digest.empty()) {
    os << "  metrics digests identical (" << baseline.manifest.metrics_digest
       << ")\n";
  }

  os << "\n== stage wall ==\n";
  // Union of stage names, baseline order first.
  std::vector<std::string> stages;
  for (const StageRecord& s : baseline.manifest.stages) {
    stages.push_back(s.stage);
  }
  for (const StageRecord& s : current.manifest.stages) {
    if (std::find(stages.begin(), stages.end(), s.stage) == stages.end()) {
      stages.push_back(s.stage);
    }
  }
  for (const std::string& stage : stages) {
    const double a = baseline.manifest.stage_wall(stage);
    const double b = current.manifest.stage_wall(stage);
    if (a < 0.0 || b < 0.0) {
      os << "  " << stage << ": only in "
         << (a < 0.0 ? "current" : "baseline") << " bundle\n";
      continue;
    }
    const double pct = pct_change(a, b);
    os << "  " << stage << ": " << format_seconds(a) << " -> "
       << format_seconds(b) << " (" << format_pct(pct) << ")";
    if (trips(pct, thresholds.stage_wall_pct)) {
      os << "  REGRESSION";
      result.regressions.push_back(
          "stage " + stage + " wall " + format_pct(pct) + " (threshold " +
          format_pct(thresholds.stage_wall_pct) + ")");
    }
    os << "\n";
  }

  os << "\n== queue wait p99 ==\n";
  const MetricEntry* qa = baseline.metrics.find("pool_queue_wait_seconds");
  const MetricEntry* qb = current.metrics.find("pool_queue_wait_seconds");
  if (qa != nullptr && qb != nullptr && qa->histogram.count > 0 &&
      qb->histogram.count > 0) {
    const double a = qa->histogram.quantile(0.99);
    const double b = qb->histogram.quantile(0.99);
    const double pct = pct_change(a, b);
    os << "  pool_queue_wait_seconds p99: " << format_seconds(a) << " -> "
       << format_seconds(b) << " (" << format_pct(pct) << ")";
    if (trips(pct, thresholds.queue_wait_p99_pct)) {
      os << "  REGRESSION";
      result.regressions.push_back(
          "pool_queue_wait_seconds p99 " + format_pct(pct) +
          " (threshold " + format_pct(thresholds.queue_wait_p99_pct) + ")");
    }
    os << "\n";
  } else {
    os << "  (absent in one or both bundles)\n";
  }

  // Placement-service query latency is gated only when both bundles carry
  // the metric, so non-placement benches keep diffing unchanged.
  const MetricEntry* pa = baseline.metrics.find("placement_predict_seconds");
  const MetricEntry* pb = current.metrics.find("placement_predict_seconds");
  if (pa != nullptr && pb != nullptr && pa->histogram.count > 0 &&
      pb->histogram.count > 0) {
    os << "\n== placement predict p99 ==\n";
    const double a = pa->histogram.quantile(0.99);
    const double b = pb->histogram.quantile(0.99);
    const double pct = pct_change(a, b);
    os << "  placement_predict_seconds p99: " << format_seconds(a) << " -> "
       << format_seconds(b) << " (" << format_pct(pct) << ")";
    if (trips(pct, thresholds.predict_p99_pct)) {
      os << "  REGRESSION";
      result.regressions.push_back(
          "placement_predict_seconds p99 " + format_pct(pct) +
          " (threshold " + format_pct(thresholds.predict_p99_pct) + ")");
    }
    os << "\n";
  }

  // Training attribution: the counter union renders ungated (like
  // recovery), but train_gemm_seconds_sum is gated when both bundles
  // recorded fused training — a silent fall-back to the sequential path
  // shows up here as the sum collapsing to absence, and a kernel
  // regression as the sum growing past the threshold.
  if (!baseline.manifest.training.empty() ||
      !current.manifest.training.empty()) {
    os << "\n== training ==\n";
    std::vector<std::string> metrics;
    for (const TrainingRecord& t : baseline.manifest.training) {
      metrics.push_back(t.metric);
    }
    for (const TrainingRecord& t : current.manifest.training) {
      if (std::find(metrics.begin(), metrics.end(), t.metric) ==
          metrics.end()) {
        metrics.push_back(t.metric);
      }
    }
    for (const std::string& metric : metrics) {
      const double a = baseline.manifest.training_value(metric);
      const double b = current.manifest.training_value(metric);
      os << "  " << metric << ": " << (a < 0.0 ? 0.0 : a) << " -> "
         << (b < 0.0 ? 0.0 : b);
      if (metric == "train_gemm_seconds_sum" && a > 0.0 && b >= 0.0) {
        const double pct = pct_change(a, b);
        os << " (" << format_pct(pct) << ")";
        if (trips(pct, thresholds.train_gemm_sum_pct)) {
          os << "  REGRESSION";
          result.regressions.push_back(
              "train_gemm_seconds_sum " + format_pct(pct) + " (threshold " +
              format_pct(thresholds.train_gemm_sum_pct) + ")");
        }
      }
      os << "\n";
    }
  }

  // Recovery counters are not gated, but a diff must make it obvious when
  // one run detected corruption or replayed stages and the other did not.
  if (!baseline.manifest.recovery.empty() ||
      !current.manifest.recovery.empty()) {
    os << "\n== recovery ==\n";
    std::vector<std::string> counters;
    for (const RecoveryRecord& r : baseline.manifest.recovery) {
      counters.push_back(r.counter);
    }
    for (const RecoveryRecord& r : current.manifest.recovery) {
      if (std::find(counters.begin(), counters.end(), r.counter) ==
          counters.end()) {
        counters.push_back(r.counter);
      }
    }
    for (const std::string& counter : counters) {
      os << "  " << counter << ": "
         << baseline.manifest.recovery_value(counter) << " -> "
         << current.manifest.recovery_value(counter) << "\n";
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
