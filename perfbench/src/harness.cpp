#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "counters/microbench.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no values");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

// --- Digest -----------------------------------------------------------------

void Digest::bytes(const void* p, std::size_t n) {
  const auto* c = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= c[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) { bytes(&v, sizeof v); }
void Digest::add(std::uint64_t v) { bytes(&v, sizeof v); }
void Digest::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  bytes(s.data(), s.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

// --- RegistryDelta ----------------------------------------------------------

std::string RegistryDelta::key(const std::string& name,
                               const coloc::obs::Labels& labels) {
  std::string k = name;
  for (const auto& [lk, lv] : labels) k += "|" + lk + "=" + lv;
  return k;
}

RegistryDelta RegistryDelta::between(
    const coloc::obs::MetricsSnapshot& before,
    const coloc::obs::MetricsSnapshot& after) {
  using coloc::obs::MetricKind;
  RegistryDelta delta;
  for (const coloc::obs::MetricSample& a : after.samples) {
    const coloc::obs::MetricSample* b = before.find(a.name, a.labels);
    Entry e;
    switch (a.kind) {
      case MetricKind::kCounter:
        e.value = static_cast<double>(a.counter_value -
                                      (b ? b->counter_value : 0));
        break;
      case MetricKind::kGauge:
        continue;
      case MetricKind::kHistogram:
        e.sum =a.histogram_sum - (b ? b->histogram_sum : 0.0);
        e.buckets.resize(a.histogram_buckets.size());
        for (std::size_t i = 0; i < e.buckets.size(); ++i) {
          const std::uint64_t prev =
              b && i < b->histogram_buckets.size() ? b->histogram_buckets[i]
                                                   : 0;
          e.buckets[i] = static_cast<double>(a.histogram_buckets[i] - prev);
        }
        break;
    }
    delta.entries_[key(a.name, a.labels)] = std::move(e);
  }
  return delta;
}

void RegistryDelta::accumulate(const RegistryDelta& other, double weight) {
  for (const auto& [k, e] : other.entries_) {
    Entry& mine = entries_[k];
    mine.value += weight * e.value;
    mine.sum += weight * e.sum;
    if (mine.buckets.size() < e.buckets.size()) {
      mine.buckets.resize(e.buckets.size(), 0.0);
    }
    for (std::size_t i = 0; i < e.buckets.size(); ++i) {
      mine.buckets[i] += weight * e.buckets[i];
    }
  }
}

const RegistryDelta::Entry* RegistryDelta::find(
    const std::string& name, const coloc::obs::Labels& labels) const {
  const auto it = entries_.find(key(name, labels));
  return it == entries_.end() ? nullptr : &it->second;
}

double RegistryDelta::counter(const std::string& name,
                              const coloc::obs::Labels& labels) const {
  const Entry* e = find(name, labels);
  return e ? e->value : 0.0;
}

double RegistryDelta::histogram_sum(const std::string& name) const {
  const Entry* e = find(name, {});
  return e ? e->sum : 0.0;
}

double RegistryDelta::histogram_quantile(const std::string& name,
                                         double q) const {
  const Entry* e = find(name, {});
  if (e == nullptr) return 0.0;
  // The registry's estimator takes integer counts; weighted deltas are
  // rounded, which keeps bucket boundaries exact.
  std::vector<std::uint64_t> counts(e->buckets.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<std::uint64_t>(std::llround(e->buckets[i]));
  }
  return coloc::obs::Histogram::quantile_from_counts(counts, q);
}

// --- Tracer -----------------------------------------------------------------

Tracer::Scope Tracer::span(std::string name, bool book_global_pool) {
  if (!recording()) return Scope(nullptr, 0);
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? kNone : stack_.back();
  s.root = s.parent == kNone ? spans_.size() : spans_[s.parent].root;
  Open open;
  open.book_pool = book_global_pool;
  if (book_global_pool) open.pool_before = coloc::global_pool().stats();
  open.before = coloc::obs::Registry::global().snapshot();
  s.start_s = seconds_since(epoch_);
  spans_.push_back(std::move(s));
  open_state_.push_back(std::move(open));
  stack_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

void Tracer::close(std::size_t id) {
  Span& s = spans_[id];
  s.end_s = seconds_since(epoch_);
  Open& open = open_state_[id];
  s.delta = RegistryDelta::between(open.before,
                                   coloc::obs::Registry::global().snapshot());
  open.before = {};
  if (open.book_pool) {
    const coloc::PoolStats after = coloc::global_pool().stats();
    s.pool_busy_s += after.busy_seconds - open.pool_before.busy_seconds;
    s.pool_idle_s += after.idle_seconds - open.pool_before.idle_seconds;
  }
  if (s.parent != kNone) spans_[s.parent].child_s += s.end_s - s.start_s;
  stack_.pop_back();
}

void Tracer::add_pool_time(double busy_s, double idle_s) {
  if (!recording() || stack_.empty()) return;
  Span& s = spans_[stack_.back()];
  s.pool_busy_s += busy_s;
  s.pool_idle_s += idle_s;
}

void Tracer::add_count(const std::string& name, double value) {
  if (!recording() || stack_.empty()) return;
  spans_[stack_.back()].counts[name] += value;
}

// --- LayerView --------------------------------------------------------------

LayerView::LayerView(const Tracer& tracer) : tracer_(tracer) {
  std::size_t setups = 0, passes = 0;
  for (const Tracer::Span& s : tracer.spans()) {
    if (s.parent != Tracer::kNone) continue;
    if (s.name == "setup") ++setups;
    if (s.name == "pass") ++passes;
  }
  setup_weight_ = setups ? 1.0 / static_cast<double>(setups) : 0.0;
  pass_weight_ = passes ? 1.0 / static_cast<double>(passes) : 0.0;
  for (const Tracer::Span& s : tracer.spans()) {
    const double w = weight_of(s);
    pool_busy_ += w * s.pool_busy_s;
    pool_idle_ += w * s.pool_idle_s;
    if (s.parent == Tracer::kNone) delta_.accumulate(s.delta, w);
  }
}

double LayerView::weight_of(const Tracer::Span& span) const {
  const std::string& root = tracer_.spans()[span.root].name;
  if (root == "setup") return setup_weight_;
  if (root == "pass") return pass_weight_;
  return 0.0;
}

double LayerView::self_s(const std::string& name) const {
  double total = 0.0;
  for (const Tracer::Span& s : tracer_.spans()) {
    if (s.name == name) {
      total += weight_of(s) * (s.end_s - s.start_s - s.child_s);
    }
  }
  return total;
}

double LayerView::pool_busy_of(const std::string& name) const {
  double total = 0.0;
  for (const Tracer::Span& s : tracer_.spans()) {
    if (s.name == name) total += weight_of(s) * s.pool_busy_s;
  }
  return total;
}

double LayerView::count(const std::string& name) const {
  double total = 0.0;
  for (const Tracer::Span& s : tracer_.spans()) {
    const auto it = s.counts.find(name);
    if (it != s.counts.end()) total += weight_of(s) * it->second;
  }
  return total;
}

// --- HostProbe --------------------------------------------------------------

HostProbe HostProbe::measure() {
  HostProbe probe;
  volatile double sink = 0.0;

  // Sizes stay well below every workload's footprint, so the probe never
  // sets the run's peak RSS. Triad over three 4 MiB arrays: reads b and c,
  // writes a (24 B/elem).
  constexpr std::size_t kTriadElems = 512u << 10;
  constexpr std::size_t kTriadIters = 24;
  auto t0 = Clock::now();
  sink = sink + coloc::counters::stream_triad(kTriadElems, kTriadIters);
  probe.triad_gbs = 24.0 * kTriadElems * kTriadIters / seconds_since(t0) / 1e9;

  // The chase builds its ring inside the call, so latency is the time
  // difference between a long and a short chase over the same ring.
  constexpr std::size_t kChaseBytes = 8u << 20;
  constexpr std::size_t kShortSteps = 200'000, kLongSteps = 1'200'000;
  t0 = Clock::now();
  sink = sink + static_cast<double>(
                    coloc::counters::pointer_chase(kChaseBytes, kShortSteps));
  const double short_s = seconds_since(t0);
  t0 = Clock::now();
  sink = sink + static_cast<double>(
                    coloc::counters::pointer_chase(kChaseBytes, kLongSteps));
  const double long_s = seconds_since(t0);
  probe.chase_ns = std::max(long_s - short_s, 1e-9) * 1e9 /
                   static_cast<double>(kLongSteps - kShortSteps);

  // Horner degree-7 polynomial: 7 mul + 7 add, plus the accumulate and the
  // fractional-part subtract = 16 flops per iteration.
  constexpr std::size_t kComputeIters = 4'000'000;
  t0 = Clock::now();
  sink = sink + coloc::counters::compute_kernel(kComputeIters);
  probe.compute_gflops = 16.0 * kComputeIters / seconds_since(t0) / 1e9;
  (void)sink;
  return probe;
}

// --- RunResult --------------------------------------------------------------

void RunResult::metric(const std::string& name, double value,
                       const std::string& unit) {
  metrics.emplace_back(name, std::make_pair(value, unit));
}

void RunResult::note(const std::string& key, const std::string& value) {
  diagnostics.emplace_back(key, value);
}

void RunResult::note(const std::string& key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  diagnostics.emplace_back(key, buf);
}

void RunResult::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    check_failures.push_back(what);
  }
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void RunResult::print() const {
  std::string diag = "{\"diagnostics\": {";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    if (i) diag += ", ";
    diag += json_string(diagnostics[i].first) + ": " +
            json_string(diagnostics[i].second);
  }
  diag += "}, \"check_failures\": [";
  for (std::size_t i = 0; i < check_failures.size(); ++i) {
    if (i) diag += ", ";
    diag += json_string(check_failures[i]);
  }
  diag += "]}";
  std::printf("%s\n", diag.c_str());

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += json_string(metrics[i].first) + ": {\"value\": " +
            json_number(metrics[i].second.first) +
            ", \"unit\": " + json_string(metrics[i].second.second) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
