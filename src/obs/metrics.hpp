// Thread-safe metrics registry: counters, gauges, and log-scale histograms.
//
// Design goals, in priority order:
//   1. Near-zero cost on the hot path. Updating an instrument is one
//      relaxed atomic RMW; no locks, no allocation, no string hashing.
//      Call sites resolve instruments ONCE (function-local static or
//      member reference) and keep the reference — references returned by
//      Registry stay valid for the registry's lifetime, even across
//      reset() (which zeroes values but never deallocates instruments).
//   2. Labeled families. The same metric name may carry different label
//      sets (e.g. resilient_cells_total{result="ok"} vs {result="resumed"}),
//      each backed by an independent instrument.
//   3. Exportable snapshots. snapshot() copies a consistent-enough view
//      (per-instrument atomicity; no global stop-the-world) that renders
//      as one JSON document (a run bundle's metrics.json).
//
// The process-wide registry is Registry::global(); tests typically build
// their own local Registry instances.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace coloc::obs {

/// Monotonically increasing event tally.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, last gradient norm, ...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double expected = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(expected, expected + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram over fixed log-scale (base-2) buckets.
///
/// Bucket i has upper bound kMinUpperBound * 2^i (inclusive); bucket 0
/// additionally absorbs everything <= kMinUpperBound (including zero and
/// negatives), and the last bucket absorbs everything above the
/// second-to-last bound (+inf). With kMinUpperBound = 1e-9 and 64 buckets
/// the finite range spans 1 ns .. ~4.6e9 s when values are seconds.
class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = 64;
  static constexpr double kMinUpperBound = 1e-9;

  /// Upper bound of bucket i; +inf for the last bucket.
  static double bucket_upper_bound(std::size_t i);
  /// Index of the bucket that receives `v`.
  static std::size_t bucket_index(double v);

  void observe(double v) {
    counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double expected = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(expected, expected + v,
                                       std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

  /// Approximate quantile (q in [0,1]) from the bucket upper bounds.
  double quantile(double q) const;

  /// Same estimator over an externally-held bucket-count vector (e.g. the
  /// delta of two exported snapshots); counts.size() may be any length up
  /// to kNumBuckets, indexed by bucket. Returns 0 when all counts are 0.
  static double quantile_from_counts(std::span<const std::uint64_t> counts,
                                     double q);

  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Label key/value pairs identifying one member of a metric family.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Point-in-time copy of one instrument, ready for export.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter_value = 0;                // kCounter
  double gauge_value = 0.0;                       // kGauge
  std::uint64_t histogram_count = 0;              // kHistogram
  double histogram_sum = 0.0;                     // kHistogram
  std::vector<std::uint64_t> histogram_buckets;   // kHistogram
};

struct MetricsSnapshot {
  /// Sorted by (name, labels); each sample's labels are themselves sorted
  /// by key, so every rendering (JSON, digests) is deterministic.
  std::vector<MetricSample> samples;

  /// First sample matching name (+labels when given); nullptr if absent.
  const MetricSample* find(const std::string& name,
                           const Labels& labels = {}) const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide registry used by the instrumented library code.
  static Registry& global();

  /// Returns the instrument for (name, labels), creating it on first use.
  /// The reference stays valid for the registry's lifetime.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});

  MetricsSnapshot snapshot() const;

  /// Zeroes every instrument, keeping registrations (and outstanding
  /// references) valid. Intended for tests and between-run resets.
  void reset();

 private:
  template <typename T>
  T& lookup(std::map<std::string, std::unique_ptr<T>>& family,
            const std::string& name, const Labels& labels);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  // Parallel bookkeeping: map key -> (name, labels) for snapshots.
  std::map<std::string, std::pair<std::string, Labels>> names_;
};

/// RAII wall-clock timer for one named pipeline stage. On destruction
/// (or stop()) sets stage_wall_seconds{stage=<name>} in the global
/// registry and bumps stage_runs_total{stage=<name>}, giving dashboards a
/// per-stage latency series without threading timing through every
/// signature. `stage` must outlive the timer (string literals in
/// practice).
class StageTimer {
 public:
  explicit StageTimer(const char* stage);
  ~StageTimer();
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Records now; further stop() calls (and the destructor) are no-ops.
  /// Returns the elapsed seconds that were recorded.
  double stop();

 private:
  const char* stage_;
  std::chrono::steady_clock::time_point start_;
  bool stopped_ = false;
};

/// Renders a snapshot as a JSON document:
/// {"bucket_scheme": {...}, "metrics": [...]}. Key order is deterministic
/// (samples sorted by name+labels, label keys sorted), and bucket_scheme
/// documents the histogram bucket boundaries (log base-2 buckets, see
/// Histogram) so a consumer can interpret "le" bounds without this header.
std::string to_json(const MetricsSnapshot& snapshot);

/// Writes to_json(snapshot) to `path`. Returns false (and logs nothing) on
/// I/O error.
bool write_metrics_file(const MetricsSnapshot& snapshot,
                        const std::string& path);

}  // namespace coloc::obs
