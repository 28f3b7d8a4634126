#include "obs/manifest.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/json.hpp"
#include "obs/session.hpp"

// Build identity is injected by src/obs/CMakeLists.txt (execute_process
// at configure time); the fallbacks keep non-CMake builds compiling.
#ifndef COLOC_GIT_DESCRIBE
#define COLOC_GIT_DESCRIBE "unknown"
#endif
#ifndef COLOC_BUILD_TYPE
#define COLOC_BUILD_TYPE "unknown"
#endif
#ifndef COLOC_COMPILER
#define COLOC_COMPILER "unknown"
#endif
#ifndef COLOC_BUILD_FLAGS
#define COLOC_BUILD_FLAGS ""
#endif

namespace coloc::obs {

std::uint64_t fnv1a64(std::string_view data, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

double process_cpu_seconds() {
  std::ifstream stat("/proc/self/stat");
  if (!stat) return -1.0;
  std::string line;
  if (!std::getline(stat, line)) return -1.0;
  // Field 2 (comm) may contain spaces; skip past the closing paren.
  const std::size_t paren = line.rfind(')');
  if (paren == std::string::npos) return -1.0;
  std::istringstream is(line.substr(paren + 1));
  std::string field;
  // Fields 3..13 precede utime (14) and stime (15).
  for (int i = 3; i <= 13; ++i) {
    if (!(is >> field)) return -1.0;
  }
  long utime = -1, stime = -1;
  if (!(is >> utime >> stime)) return -1.0;
  const long ticks = sysconf(_SC_CLK_TCK);
  if (ticks <= 0) return -1.0;
  return static_cast<double>(utime + stime) / static_cast<double>(ticks);
}

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex16(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Counters worth surfacing in the manifest itself: everything the
/// crash-safety layers emit when they detect damage or recover from it.
constexpr const char* kRecoveryCounters[] = {
    "store_corruption_detected_total",
    "storage_faults_injected_total",
    "supervisor_stage_executed_total",
    "supervisor_stage_skipped_total",
    "supervisor_stage_replayed_total",
    "supervisor_clean_stops_total",
    "zoo_models_retrained_total",
    "checkpoint_rows_loaded_total",
};

/// Training-attribution counters surfaced in the manifest: the fused SCG
/// trainer's throughput story, so an obs_report diff can police training
/// regressions (fused path silently off, memo thrashing) from the
/// manifest alone.
constexpr const char* kTrainingCounters[] = {
    "scg_runs_total",
    "scg_epochs_total",
    "scg_fused_restarts_total",
    "validation_design_memo_hits_total",
    "validation_design_memo_misses_total",
};

bool is_training_counter(const std::string& name) {
  for (const char* candidate : kTrainingCounters) {
    if (name == candidate) return true;
  }
  return false;
}

bool is_recovery_counter(const std::string& name) {
  for (const char* candidate : kRecoveryCounters) {
    if (name == candidate) return true;
  }
  return false;
}

std::string rendered_counter_name(const MetricSample& s) {
  if (s.labels.empty()) return s.name;
  std::string out = s.name + "{";
  bool first = true;
  for (const auto& [k, v] : s.labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=" + v;
  }
  out += '}';
  return out;
}

std::mutex& extras_mutex() {
  static std::mutex m;
  return m;
}

std::map<std::string, std::string>& extras_registry() {
  static std::map<std::string, std::string> registry;
  return registry;
}

}  // namespace

void add_manifest_extra(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(extras_mutex());
  extras_registry()[key] = value;
}

std::vector<std::pair<std::string, std::string>> manifest_extras() {
  std::lock_guard<std::mutex> lock(extras_mutex());
  return {extras_registry().begin(), extras_registry().end()};
}

void clear_manifest_extras() {
  std::lock_guard<std::mutex> lock(extras_mutex());
  extras_registry().clear();
}

Manifest Manifest::collect(const ManifestInfo& info,
                           const MetricsSnapshot& snapshot,
                           double total_wall_seconds) {
  Manifest m;
  m.info = info;
  m.git_describe = COLOC_GIT_DESCRIBE;
  m.build_type = COLOC_BUILD_TYPE;
  m.compiler = COLOC_COMPILER;
  m.build_flags = COLOC_BUILD_FLAGS;
  m.total_wall_seconds = total_wall_seconds;
  m.cpu_seconds = process_cpu_seconds();
  // Qualified: the data member of the same name shadows the free function.
  m.peak_rss_kb = coloc::obs::peak_rss_kb();
  for (const MetricSample& s : snapshot.samples) {
    if (s.name != "stage_wall_seconds" || s.kind != MetricKind::kGauge) {
      continue;
    }
    for (const auto& [k, v] : s.labels) {
      if (k == "stage") {
        m.stages.push_back(StageRecord{v, s.gauge_value});
      }
    }
  }
  std::sort(m.stages.begin(), m.stages.end(),
            [](const StageRecord& a, const StageRecord& b) {
              return a.stage < b.stage;
            });
  for (const MetricSample& s : snapshot.samples) {
    if (s.kind != MetricKind::kCounter || !is_recovery_counter(s.name)) {
      continue;
    }
    if (s.counter_value == 0) continue;  // quiet runs keep the section empty
    m.recovery.push_back(
        RecoveryRecord{rendered_counter_name(s), s.counter_value});
  }
  std::sort(m.recovery.begin(), m.recovery.end(),
            [](const RecoveryRecord& a, const RecoveryRecord& b) {
              return a.counter < b.counter;
            });
  for (const MetricSample& s : snapshot.samples) {
    if (s.kind == MetricKind::kCounter && is_training_counter(s.name)) {
      if (s.counter_value == 0) continue;  // untrained runs keep it empty
      m.training.push_back(TrainingRecord{
          rendered_counter_name(s), static_cast<double>(s.counter_value)});
    } else if (s.kind == MetricKind::kHistogram &&
               s.name == "train_gemm_seconds" && s.histogram_count > 0) {
      m.training.push_back(
          TrainingRecord{s.name + "_sum", s.histogram_sum});
      m.training.push_back(TrainingRecord{
          s.name + "_count", static_cast<double>(s.histogram_count)});
    }
  }
  std::sort(m.training.begin(), m.training.end(),
            [](const TrainingRecord& a, const TrainingRecord& b) {
              return a.metric < b.metric;
            });
  // Fold in the process-global extras; explicit info.extra entries win.
  for (const auto& [k, v] : manifest_extras()) {
    const bool present = std::any_of(
        m.info.extra.begin(), m.info.extra.end(),
        [&k = k](const auto& kv) { return kv.first == k; });
    if (!present) m.info.extra.emplace_back(k, v);
  }
  m.metrics_digest = hex16(fnv1a64(coloc::obs::to_json(snapshot)));
  return m;
}

std::string Manifest::to_json() const {
  std::ostringstream os;
  os << "{\"program\":\"" << json_escape(info.program) << "\","
     << "\"machine_preset\":\"" << json_escape(info.machine_preset) << "\","
     << "\"seed\":" << info.seed << ","
     << "\"jobs\":" << info.jobs << ","
     << "\"fault_rate\":" << format_double(info.fault_rate) << ",";
  os << "\"extra\":{";
  bool first = true;
  for (const auto& [k, v] : info.extra) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(k) << "\":\"" << json_escape(v) << '"';
  }
  os << "},";
  os << "\"git_describe\":\"" << json_escape(git_describe) << "\","
     << "\"build_type\":\"" << json_escape(build_type) << "\","
     << "\"compiler\":\"" << json_escape(compiler) << "\","
     << "\"build_flags\":\"" << json_escape(build_flags) << "\","
     << "\"total_wall_seconds\":" << format_double(total_wall_seconds) << ","
     << "\"cpu_seconds\":" << format_double(cpu_seconds) << ","
     << "\"peak_rss_kb\":" << peak_rss_kb << ",";
  os << "\"stages\":[";
  first = true;
  for (const StageRecord& s : stages) {
    if (!first) os << ',';
    first = false;
    os << "{\"stage\":\"" << json_escape(s.stage)
       << "\",\"wall_seconds\":" << format_double(s.wall_seconds) << '}';
  }
  os << "],";
  os << "\"recovery\":[";
  first = true;
  for (const RecoveryRecord& r : recovery) {
    if (!first) os << ',';
    first = false;
    os << "{\"counter\":\"" << json_escape(r.counter)
       << "\",\"value\":" << r.value << '}';
  }
  os << "],";
  os << "\"training\":[";
  first = true;
  for (const TrainingRecord& t : training) {
    if (!first) os << ',';
    first = false;
    os << "{\"metric\":\"" << json_escape(t.metric)
       << "\",\"value\":" << format_double(t.value) << '}';
  }
  os << "],";
  os << "\"metrics_digest\":\"" << metrics_digest << "\"}";
  return os.str();
}

bool Manifest::write(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  os << to_json() << '\n';
  return static_cast<bool>(os);
}

Manifest Manifest::from_json_file(const std::string& path) {
  const JsonValue doc = json_parse_file(path);
  Manifest m;
  auto str = [&doc](const char* key, std::string& out) {
    if (const JsonValue* v = doc.find(key); v != nullptr && v->is_string()) {
      out = v->string;
    }
  };
  str("program", m.info.program);
  str("machine_preset", m.info.machine_preset);
  str("git_describe", m.git_describe);
  str("build_type", m.build_type);
  str("compiler", m.compiler);
  str("build_flags", m.build_flags);
  str("metrics_digest", m.metrics_digest);
  if (const JsonValue* v = doc.find("seed"); v != nullptr && v->is_number()) {
    m.info.seed = static_cast<std::uint64_t>(v->number);
  }
  if (const JsonValue* v = doc.find("jobs"); v != nullptr && v->is_number()) {
    m.info.jobs = static_cast<std::size_t>(v->number);
  }
  if (const JsonValue* v = doc.find("fault_rate");
      v != nullptr && v->is_number()) {
    m.info.fault_rate = v->number;
  }
  if (const JsonValue* v = doc.find("total_wall_seconds");
      v != nullptr && v->is_number()) {
    m.total_wall_seconds = v->number;
  }
  if (const JsonValue* v = doc.find("cpu_seconds");
      v != nullptr && v->is_number()) {
    m.cpu_seconds = v->number;
  }
  if (const JsonValue* v = doc.find("peak_rss_kb");
      v != nullptr && v->is_number()) {
    m.peak_rss_kb = static_cast<long>(v->number);
  }
  if (const JsonValue* v = doc.find("extra");
      v != nullptr && v->is_object()) {
    for (const auto& [k, val] : v->object) {
      if (val.is_string()) m.info.extra.emplace_back(k, val.string);
    }
  }
  if (const JsonValue* v = doc.find("stages"); v != nullptr && v->is_array()) {
    for (const JsonValue& s : v->array) {
      if (!s.is_object()) continue;
      StageRecord record;
      if (const JsonValue* name = s.find("stage");
          name != nullptr && name->is_string()) {
        record.stage = name->string;
      }
      if (const JsonValue* wall = s.find("wall_seconds");
          wall != nullptr && wall->is_number()) {
        record.wall_seconds = wall->number;
      }
      m.stages.push_back(std::move(record));
    }
  }
  if (const JsonValue* v = doc.find("recovery");
      v != nullptr && v->is_array()) {
    for (const JsonValue& r : v->array) {
      if (!r.is_object()) continue;
      RecoveryRecord record;
      if (const JsonValue* name = r.find("counter");
          name != nullptr && name->is_string()) {
        record.counter = name->string;
      }
      if (const JsonValue* value = r.find("value");
          value != nullptr && value->is_number()) {
        record.value = static_cast<std::uint64_t>(value->number);
      }
      m.recovery.push_back(std::move(record));
    }
  }
  if (const JsonValue* v = doc.find("training");
      v != nullptr && v->is_array()) {
    for (const JsonValue& t : v->array) {
      if (!t.is_object()) continue;
      TrainingRecord record;
      if (const JsonValue* name = t.find("metric");
          name != nullptr && name->is_string()) {
        record.metric = name->string;
      }
      if (const JsonValue* value = t.find("value");
          value != nullptr && value->is_number()) {
        record.value = value->number;
      }
      m.training.push_back(std::move(record));
    }
  }
  return m;
}

double Manifest::stage_wall(const std::string& stage) const {
  for (const StageRecord& s : stages) {
    if (s.stage == stage) return s.wall_seconds;
  }
  return -1.0;
}

std::uint64_t Manifest::recovery_value(const std::string& counter) const {
  for (const RecoveryRecord& r : recovery) {
    if (r.counter == counter) return r.value;
  }
  return 0;
}

double Manifest::training_value(const std::string& metric) const {
  for (const TrainingRecord& t : training) {
    if (t.metric == metric) return t.value;
  }
  return -1.0;
}

}  // namespace coloc::obs
