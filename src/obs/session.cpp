#include "obs/session.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>

#include "common/error.hpp"  // header-only: obs links nothing from common
#include "obs/metrics.hpp"

namespace coloc::obs {

ObsSession::ObsSession(ObsOptions options)
    : options_(std::move(options)),
      start_(std::chrono::steady_clock::now()) {
  if (options_.bundle_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(options_.bundle_dir, ec);
  if (ec || !std::filesystem::is_directory(options_.bundle_dir, ec)) {
    throw invalid_argument_error(
        "cannot create bundle directory " + options_.bundle_dir +
        (ec ? ": " + ec.message() : std::string()));
  }
  sink_ = std::make_unique<TraceSink>();
  sink_->install();
}

ObsSession::~ObsSession() { finalize(); }

void ObsSession::add_manifest_extra(const std::string& key,
                                    const std::string& value) {
  auto& extra = options_.manifest.extra;
  for (auto& [k, v] : extra) {
    if (k == key) {
      v = value;
      return;
    }
  }
  extra.emplace_back(key, value);
}

double ObsSession::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void ObsSession::finalize() {
  if (finalized_) return;
  finalized_ = true;

  if (options_.flush_hook) options_.flush_hook();

  if (sink_ != nullptr) {
    if (TraceSink::current() == sink_.get()) TraceSink::uninstall();
    const auto check = [](bool written, const std::string& path) {
      if (!written) std::fprintf(stderr, "[obs] failed to write %s\n",
                                 path.c_str());
    };
    const std::string dir = options_.bundle_dir + "/";
    check(sink_->write_chrome_json(dir + "trace.json"), dir + "trace.json");
    const MetricsSnapshot snapshot = Registry::global().snapshot();
    check(write_metrics_file(snapshot, dir + "metrics.json"),
          dir + "metrics.json");
    check(Manifest::collect(options_.manifest, snapshot, elapsed_seconds())
              .write(dir + "manifest.json"),
          dir + "manifest.json");
  }

  if (options_.report_resources) {
    const double wall_s = elapsed_seconds();
    const long rss_kb = peak_rss_kb();
    // One greppable line on stdout so bench trajectories can track cost.
    if (rss_kb >= 0) {
      std::printf("[%s] total_wall_time_s=%.3f peak_rss_mb=%.1f\n",
                  options_.label.c_str(), wall_s,
                  static_cast<double>(rss_kb) / 1024.0);
    } else {
      std::printf("[%s] total_wall_time_s=%.3f peak_rss_mb=unknown\n",
                  options_.label.c_str(), wall_s);
    }
  }
}

long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  if (!status) return -1;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream is(line.substr(6));
    long kb = -1;
    is >> kb;
    return is ? kb : -1;
  }
  return -1;
}

}  // namespace coloc::obs
