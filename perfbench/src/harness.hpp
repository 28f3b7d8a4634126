// Measurement plumbing shared by the benchmark workloads: a monotonic
// clock, order statistics, bit-exact output digests, an in-memory span
// tracer that snapshots the library's metrics registry at every span
// boundary, the host-bound probe, and the result record printed as the
// run's last line.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// Median of `values` (mean of the two middle values for even counts).
/// Throws on an empty input.
double median(std::vector<double> values);

/// Linear-interpolated quantile, q in [0, 1]. Throws on an empty input.
double quantile(std::vector<double> values, double q);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// FNV-1a over the exact bytes of every value fed in: two outputs digest
/// equal only if they are bit-identical.
class Digest {
 public:
  void add(double v);
  void add(std::uint64_t v);
  void add(std::string_view s);
  std::string hex() const;

 private:
  void bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Per-instrument change of the global registry between two snapshots.
/// Counters and histograms are differenced.
class RegistryDelta {
 public:
  static RegistryDelta between(const coloc::obs::MetricsSnapshot& before,
                               const coloc::obs::MetricsSnapshot& after);

  /// Adds `other` scaled by `weight` (counts become fractional).
  void accumulate(const RegistryDelta& other, double weight);

  double counter(const std::string& name,
                 const coloc::obs::Labels& labels = {}) const;
  double histogram_sum(const std::string& name) const;
  /// Quantile over the differenced bucket counts (0 when empty).
  double histogram_quantile(const std::string& name, double q) const;

 private:
  struct Entry {
    double value = 0.0;  // counter
    double sum = 0.0;    // histogram
    std::vector<double> buckets;
  };
  static std::string key(const std::string& name,
                         const coloc::obs::Labels& labels);
  const Entry* find(const std::string& name,
                    const coloc::obs::Labels& labels) const;
  std::map<std::string, Entry> entries_;
};

/// Spans recorded around the benchmark's calls into the library. Every
/// span boundary snapshots the metrics registry, so each span carries the
/// counts the library bumped while it was open; a span's self time is its
/// duration minus the time its child spans cover. A disabled tracer
/// records nothing and costs one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Spans are recorded only while the tracer is enabled and active; a
  /// traced run toggles this per pass to interleave untraced passes.
  void set_active(bool active) { active_ = active; }
  bool recording() const { return enabled_ && active_; }

  class Scope {
   public:
    Scope(Tracer* tracer, std::size_t id) : tracer_(tracer), id_(id) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t id_;
  };

  /// Opens a span nested in the innermost open span; closed by the scope.
  /// With `book_global_pool`, the change in global_pool() worker busy/idle
  /// time while the span is open is booked to it.
  Scope span(std::string name, bool book_global_pool = false);

  /// Books worker busy/idle seconds from a pool that reports its own
  /// accounting (the campaign and validation stage gauges) to the
  /// innermost open span.
  void add_pool_time(double busy_s, double idle_s);

  /// Adds a workload-side count (one the registry does not carry) to the
  /// innermost open span.
  void add_count(const std::string& name, double value);

  struct Span {
    std::string name;
    std::size_t parent = kNone;
    std::size_t root = kNone;  // outermost ancestor (itself for roots)
    double start_s = 0.0;
    double end_s = 0.0;
    double child_s = 0.0;
    double pool_busy_s = 0.0;
    double pool_idle_s = 0.0;
    RegistryDelta delta;
    std::map<std::string, double> counts;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Closed spans in opening order.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  void close(std::size_t id);

  struct Open {
    coloc::obs::MetricsSnapshot before;
    bool book_pool = false;
    coloc::PoolStats pool_before;
  };

  bool enabled_;
  bool active_ = true;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Open> open_state_;  // parallel to spans_
  std::vector<std::size_t> stack_;
};

/// Per-layer roll-up of a trace: every value is "one traced set-up plus
/// the mean traced pass". Spans rooted at a span named "setup" weigh 1 /
/// (number of such roots); spans rooted at "pass" weigh 1 / (number of
/// passes).
class LayerView {
 public:
  explicit LayerView(const Tracer& tracer);

  /// Weighted self seconds of spans named `name`.
  double self_s(const std::string& name) const;
  /// Weighted registry delta over all root spans.
  const RegistryDelta& delta() const { return delta_; }
  double pool_busy_s() const { return pool_busy_; }
  double pool_idle_s() const { return pool_idle_; }
  /// Weighted pool busy seconds booked to spans named `name`.
  double pool_busy_of(const std::string& name) const;
  /// Weighted sum of Tracer::add_count values named `name`.
  double count(const std::string& name) const;

 private:
  double weight_of(const Tracer::Span& span) const;

  const Tracer& tracer_;
  double setup_weight_ = 0.0;
  double pass_weight_ = 0.0;
  RegistryDelta delta_;
  double pool_busy_ = 0.0;
  double pool_idle_ = 0.0;
};

/// One reading of the host microbenchmarks from src/counters.
struct HostProbe {
  double triad_gbs = 0.0;         // STREAM-triad bandwidth
  double chase_ns = 0.0;          // dependent-load latency per step
  double compute_gflops = 0.0;    // register-resident polynomial kernel

  static HostProbe measure();
};

/// What a run prints. Metrics keep insertion order.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Free-form diagnostics (digests, probe readings, pass times).
  std::vector<std::pair<std::string, std::string>> diagnostics;
  std::vector<std::string> check_failures;

  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);
  /// Records a correctness check; a failed check clears `correct`.
  void check(bool ok, const std::string& what);

  /// Diagnostics line followed by the contract's result line.
  void print() const;
};

}  // namespace perfbench
