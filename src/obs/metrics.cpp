#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.hpp"

namespace coloc::obs {

namespace {

/// Canonical map key: name + sorted labels, separated by unit separators
/// (bytes that cannot appear in sane metric names or label values).
std::string make_key(const std::string& name, const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  for (const auto& [k, v] : sorted) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

}  // namespace

double Histogram::bucket_upper_bound(std::size_t i) {
  if (i + 1 >= kNumBuckets) return std::numeric_limits<double>::infinity();
  return kMinUpperBound * std::exp2(static_cast<double>(i));
}

std::size_t Histogram::bucket_index(double v) {
  if (!(v > kMinUpperBound)) return 0;  // also catches NaN, <=0
  // Bucket i covers (bound(i-1), bound(i)]; a tiny tolerance keeps exact
  // powers of two on the inclusive side despite log2 rounding.
  const double r = std::log2(v / kMinUpperBound);
  const double idx = std::ceil(r - 1e-9);
  if (idx >= static_cast<double>(kNumBuckets - 1)) return kNumBuckets - 1;
  return idx < 1.0 ? 1 : static_cast<std::size_t>(idx);
}

double Histogram::quantile_from_counts(
    std::span<const std::uint64_t> counts, double q) {
  std::uint64_t n = 0;
  for (std::uint64_t c : counts) n += c;
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(n);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank) {
      const double upper = bucket_upper_bound(i);
      return std::isinf(upper) ? bucket_upper_bound(kNumBuckets - 2) : upper;
    }
  }
  return bucket_upper_bound(kNumBuckets - 2);
}

double Histogram::quantile(double q) const {
  std::array<std::uint64_t, kNumBuckets> counts;
  for (std::size_t i = 0; i < kNumBuckets; ++i) counts[i] = bucket_count(i);
  return quantile_from_counts(counts, q);
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

template <typename T>
T& Registry::lookup(std::map<std::string, std::unique_ptr<T>>& family,
                    const std::string& name, const Labels& labels) {
  const std::string key = make_key(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = family.find(key);
  if (it == family.end()) {
    it = family.emplace(key, std::make_unique<T>()).first;
    names_.emplace(key, std::make_pair(name, labels));
  }
  return *it->second;
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  return lookup(counters_, name, labels);
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  return lookup(gauges_, name, labels);
}

Histogram& Registry::histogram(const std::string& name, const Labels& labels) {
  return lookup(histograms_, name, labels);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.samples.reserve(counters_.size() + gauges_.size() +
                       histograms_.size());
  for (const auto& [key, instrument] : counters_) {
    MetricSample s;
    const auto& meta = names_.at(key);
    s.name = meta.first;
    s.labels = meta.second;
    std::sort(s.labels.begin(), s.labels.end());
    s.kind = MetricKind::kCounter;
    s.counter_value = instrument->value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [key, instrument] : gauges_) {
    MetricSample s;
    const auto& meta = names_.at(key);
    s.name = meta.first;
    s.labels = meta.second;
    std::sort(s.labels.begin(), s.labels.end());
    s.kind = MetricKind::kGauge;
    s.gauge_value = instrument->value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [key, instrument] : histograms_) {
    MetricSample s;
    const auto& meta = names_.at(key);
    s.name = meta.first;
    s.labels = meta.second;
    std::sort(s.labels.begin(), s.labels.end());
    s.kind = MetricKind::kHistogram;
    s.histogram_count = instrument->count();
    s.histogram_sum = instrument->sum();
    s.histogram_buckets.resize(Histogram::kNumBuckets);
    for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      s.histogram_buckets[i] = instrument->bucket_count(i);
    }
    snap.samples.push_back(std::move(s));
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, c] : counters_) c->reset();
  for (auto& [key, g] : gauges_) g->reset();
  for (auto& [key, h] : histograms_) h->reset();
}

const MetricSample* MetricsSnapshot::find(const std::string& name,
                                          const Labels& labels) const {
  for (const MetricSample& s : samples) {
    if (s.name != name) continue;
    if (labels.empty() || s.labels == labels) return &s;
  }
  return nullptr;
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  // The bucket scheme is part of the document so "le" bounds are
  // interpretable (and digests comparable) without compiled-in constants.
  os << "{\"bucket_scheme\":{\"base\":2,\"min_upper_bound\":"
     << format_double(Histogram::kMinUpperBound)
     << ",\"num_buckets\":" << Histogram::kNumBuckets
     << ",\"description\":\"bucket i upper bound = min_upper_bound * 2^i "
        "(inclusive); bucket 0 absorbs <= min_upper_bound; last bucket is "
        "+Inf\"},\"metrics\":[";
  bool first = true;
  for (const MetricSample& s : snapshot.samples) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(s.name) << "\",\"labels\":{";
    bool first_label = true;
    for (const auto& [k, v] : s.labels) {
      if (!first_label) os << ',';
      first_label = false;
      os << '"' << json_escape(k) << "\":\"" << json_escape(v) << '"';
    }
    os << "},";
    switch (s.kind) {
      case MetricKind::kCounter:
        os << "\"type\":\"counter\",\"value\":" << s.counter_value;
        break;
      case MetricKind::kGauge:
        os << "\"type\":\"gauge\",\"value\":" << format_double(s.gauge_value);
        break;
      case MetricKind::kHistogram: {
        os << "\"type\":\"histogram\",\"count\":" << s.histogram_count
           << ",\"sum\":" << format_double(s.histogram_sum)
           << ",\"buckets\":[";
        bool first_bucket = true;
        for (std::size_t i = 0; i < s.histogram_buckets.size(); ++i) {
          if (s.histogram_buckets[i] == 0) continue;
          if (!first_bucket) os << ',';
          first_bucket = false;
          const double bound = Histogram::bucket_upper_bound(i);
          os << "{\"le\":";
          if (std::isinf(bound)) {
            os << "\"+Inf\"";
          } else {
            os << format_double(bound);
          }
          os << ",\"count\":" << s.histogram_buckets[i] << '}';
        }
        os << ']';
        break;
      }
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

StageTimer::StageTimer(const char* stage)
    : stage_(stage), start_(std::chrono::steady_clock::now()) {}

StageTimer::~StageTimer() { stop(); }

double StageTimer::stop() {
  if (stopped_) return 0.0;
  stopped_ = true;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  auto& registry = Registry::global();
  registry.gauge("stage_wall_seconds", {{"stage", stage_}}).set(elapsed);
  registry.counter("stage_runs_total", {{"stage", stage_}}).inc();
  return elapsed;
}

bool write_metrics_file(const MetricsSnapshot& snapshot,
                        const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  os << to_json(snapshot);
  return static_cast<bool>(os);
}

}  // namespace coloc::obs
