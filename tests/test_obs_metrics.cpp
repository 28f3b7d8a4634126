#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "obs/json.hpp"

namespace coloc::obs {
namespace {

TEST(Counter, StartsAtZeroAndIncrements) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Gauge, ConcurrentAddsSumExactly) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kAdds; ++i) g.add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kAdds);
}

TEST(Histogram, BucketEdges) {
  // Bucket 0 absorbs everything at or below the smallest bound,
  // including zero, negatives, and NaN.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-3.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0u);
  EXPECT_EQ(Histogram::bucket_index(Histogram::kMinUpperBound), 0u);

  // Upper bounds are inclusive: exactly bound(i) lands in bucket i.
  for (std::size_t i = 1; i + 1 < Histogram::kNumBuckets; ++i) {
    const double bound = Histogram::bucket_upper_bound(i);
    EXPECT_EQ(Histogram::bucket_index(bound), i) << "bound of bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(bound * 1.0001), i + 1)
        << "just above bucket " << i;
  }

  // Beyond the last finite bound everything goes to the overflow bucket.
  const double top = Histogram::bucket_upper_bound(Histogram::kNumBuckets - 2);
  EXPECT_EQ(Histogram::bucket_index(top * 2.0), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kNumBuckets - 1);
  EXPECT_TRUE(std::isinf(
      Histogram::bucket_upper_bound(Histogram::kNumBuckets - 1)));
}

TEST(Histogram, ObserveTracksCountSumAndBuckets) {
  Histogram h;
  h.observe(1e-3);
  h.observe(1e-3);
  h.observe(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.sum(), 2.002, 1e-12);
  EXPECT_NEAR(h.mean(), 2.002 / 3.0, 1e-12);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(1e-3)), 2u);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(2.0)), 1u);
}

TEST(Histogram, ConcurrentObservationsSumExactly) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kObs = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kObs; ++i) h.observe(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kObs);
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads) * kObs);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_index(1.0)),
            static_cast<std::uint64_t>(kThreads) * kObs);
}

TEST(Histogram, QuantileApproximatesFromBuckets) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(0.001);
  for (int i = 0; i < 100; ++i) h.observe(10.0);
  // The median upper-bounds the low half; p99 the high half.
  EXPECT_LE(h.quantile(0.5), 0.002);
  EXPECT_GE(h.quantile(0.99), 10.0);
}

TEST(Registry, SameNameAndLabelsReturnSameInstrument) {
  Registry registry;
  Counter& a = registry.counter("x_total", {{"k", "v"}});
  Counter& b = registry.counter("x_total", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  Counter& c = registry.counter("x_total", {{"k", "other"}});
  EXPECT_NE(&a, &c);
}

TEST(Registry, LabelOrderDoesNotMatter) {
  Registry registry;
  Counter& a = registry.counter("y_total", {{"a", "1"}, {"b", "2"}});
  Counter& b = registry.counter("y_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Registry, ConcurrentRegistrationAndIncrementSumExactly) {
  Registry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Every thread resolves the same family member itself.
      Counter& c = registry.counter("contended_total", {{"kind", "shared"}});
      for (int i = 0; i < kIncrements; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  const MetricsSnapshot snap = registry.snapshot();
  const MetricSample* s =
      snap.find("contended_total", {{"kind", "shared"}});
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->counter_value,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Registry, ResetZeroesButKeepsReferencesValid) {
  Registry registry;
  Counter& c = registry.counter("r_total");
  Histogram& h = registry.histogram("r_seconds");
  c.inc(5);
  h.observe(1.0);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.inc();  // the reference must still be usable
  EXPECT_EQ(registry.snapshot().find("r_total")->counter_value, 1u);
}

TEST(Registry, SnapshotIsSortedAndTyped) {
  Registry registry;
  registry.counter("b_total").inc(2);
  registry.gauge("a_gauge").set(1.5);
  registry.histogram("c_seconds").observe(0.25);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "a_gauge");
  EXPECT_EQ(snap.samples[0].kind, MetricKind::kGauge);
  EXPECT_EQ(snap.samples[1].name, "b_total");
  EXPECT_EQ(snap.samples[1].kind, MetricKind::kCounter);
  EXPECT_EQ(snap.samples[2].name, "c_seconds");
  EXPECT_EQ(snap.samples[2].kind, MetricKind::kHistogram);
}

TEST(Export, JsonRoundTripsThroughTheJsonReader) {
  Registry registry;
  registry.counter("cells_total", {{"phase", "colocated"}}).inc(42);
  registry.gauge("grad_norm").set(0.125);
  Histogram& h = registry.histogram("cell_seconds");
  h.observe(0.001);
  h.observe(0.002);

  const JsonValue doc = json_parse(to_json(registry.snapshot()));
  const JsonValue& metrics = doc.at("metrics");
  ASSERT_TRUE(metrics.is_array());
  ASSERT_EQ(metrics.size(), 3u);

  bool saw_counter = false, saw_gauge = false, saw_histogram = false;
  for (const JsonValue& m : metrics.array) {
    const std::string& name = m.at("name").string;
    if (name == "cells_total") {
      saw_counter = true;
      EXPECT_EQ(m.at("type").string, "counter");
      EXPECT_DOUBLE_EQ(m.at("value").number, 42.0);
      EXPECT_EQ(m.at("labels").at("phase").string, "colocated");
    } else if (name == "grad_norm") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(m.at("value").number, 0.125);
    } else if (name == "cell_seconds") {
      saw_histogram = true;
      EXPECT_DOUBLE_EQ(m.at("count").number, 2.0);
      EXPECT_NEAR(m.at("sum").number, 0.003, 1e-12);
      EXPECT_GE(m.at("buckets").size(), 1u);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_histogram);
}

TEST(Export, WritesJsonOrTextByExtension) {
  Registry registry;
  registry.counter("w_total").inc(3);
  const std::string json_path =
      testing::TempDir() + "coloc_metrics_test.json";
  ASSERT_TRUE(write_metrics_file(registry.snapshot(), json_path));
  const JsonValue doc = json_parse_file(json_path);
  EXPECT_EQ(doc.at("metrics").size(), 1u);
}

TEST(Export, JsonDocumentsBucketSchemeAndIsDeterministic) {
  Registry registry;
  // Register labels in shuffled key order; the snapshot must sort them so
  // repeated exports (and their digests) are byte-identical.
  registry.counter("cells_total", {{"phase", "alone"}, {"app", "cg"}}).inc(7);
  registry.histogram("cell_seconds").observe(0.5);

  const std::string first = to_json(registry.snapshot());
  const std::string second = to_json(registry.snapshot());
  EXPECT_EQ(first, second);

  const JsonValue doc = json_parse(first);
  const JsonValue& scheme = doc.at("bucket_scheme");
  EXPECT_DOUBLE_EQ(scheme.at("base").number, 2.0);
  EXPECT_DOUBLE_EQ(scheme.at("min_upper_bound").number,
                   Histogram::kMinUpperBound);
  EXPECT_DOUBLE_EQ(scheme.at("num_buckets").number,
                   static_cast<double>(Histogram::kNumBuckets));
  EXPECT_TRUE(scheme.at("description").is_string());

  // Label keys render sorted regardless of registration order.
  bool saw_labeled_counter = false;
  for (const JsonValue& m : doc.at("metrics").array) {
    if (m.at("name").string != "cells_total") continue;
    saw_labeled_counter = true;
    const JsonValue& labels = m.at("labels");
    ASSERT_EQ(labels.object.size(), 2u);
    EXPECT_EQ(labels.object[0].first, "app");
    EXPECT_EQ(labels.object[1].first, "phase");
  }
  EXPECT_TRUE(saw_labeled_counter);
}

TEST(GlobalRegistry, IsASingleton) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
}

}  // namespace
}  // namespace coloc::obs
