#include "obs/manifest.hpp"

#include <cstdio>
#include <fstream>
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

std::string hex16(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

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
     << "\"peak_rss_kb\":" << peak_rss_kb << ","
     << "\"metrics_digest\":\"" << metrics_digest << "\"}";
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
  return m;
}

}  // namespace coloc::obs
