#include "sim/stack_distance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/app_model.hpp"
#include "sim/cache.hpp"
#include "sim/trace.hpp"

namespace coloc::sim {
namespace {

// The profiler's histogram as a vector, so gtest can compare and print it.
std::vector<std::uint64_t> as_vector(std::span<const std::uint64_t> h) {
  return {h.begin(), h.end()};
}

TEST(Fenwick, PrefixSums) {
  FenwickTree t(8);
  t.add(0, 1);
  t.add(3, 2);
  t.add(7, 5);
  EXPECT_EQ(t.prefix_sum(0), 1);
  EXPECT_EQ(t.prefix_sum(2), 1);
  EXPECT_EQ(t.prefix_sum(3), 3);
  EXPECT_EQ(t.prefix_sum(7), 8);
}

TEST(Fenwick, RangeSums) {
  FenwickTree t(10);
  for (std::size_t i = 0; i < 10; ++i) t.add(i, 1);
  EXPECT_EQ(t.range_sum(0, 9), 10);
  EXPECT_EQ(t.range_sum(3, 5), 3);
  EXPECT_EQ(t.range_sum(7, 7), 1);
}

TEST(Fenwick, NegativeUpdates) {
  FenwickTree t(4);
  t.add(1, 5);
  t.add(1, -3);
  EXPECT_EQ(t.prefix_sum(3), 2);
}

TEST(Fenwick, OutOfRangeThrows) {
  FenwickTree t(4);
  EXPECT_THROW(t.add(4, 1), coloc::runtime_error);
  EXPECT_THROW(t.range_sum(2, 1), coloc::runtime_error);
}

TEST(StackDistance, ColdMissesMarked) {
  StackDistanceProfiler p(10);
  EXPECT_EQ(p.record(100), kColdMiss);
  EXPECT_EQ(p.record(200), kColdMiss);
  EXPECT_EQ(p.cold_misses(), 2u);
}

TEST(StackDistance, ImmediateReuseIsZero) {
  StackDistanceProfiler p(10);
  p.record(1);
  EXPECT_EQ(p.record(1), 0u);
}

TEST(StackDistance, CountsDistinctIntermediates) {
  StackDistanceProfiler p(10);
  // a b c b a: distance(a at end) = 2 distinct (b, c).
  p.record('a');
  p.record('b');
  p.record('c');
  EXPECT_EQ(p.record('b'), 1u);  // distinct between: {c}
  EXPECT_EQ(p.record('a'), 2u);  // distinct between: {b, c}
}

TEST(StackDistance, RepeatedLinesCountOnce) {
  StackDistanceProfiler p(10);
  // a b b b a: only one distinct line between the two a's.
  p.record('a');
  p.record('b');
  p.record('b');
  p.record('b');
  EXPECT_EQ(p.record('a'), 1u);
}

TEST(StackDistance, MatchesBruteForceOnRandomTrace) {
  coloc::Rng rng(3);
  std::vector<LineAddress> trace;
  for (int i = 0; i < 400; ++i) trace.push_back(rng.uniform_index(40));
  const auto expected = brute_force_stack_distances(trace);
  StackDistanceProfiler p(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(p.record(trace[i]), expected[i]) << "at index " << i;
  }
}

TEST(StackDistance, MatchesBruteForceOnSkewedTrace) {
  coloc::Rng rng(4);
  std::vector<LineAddress> trace;
  for (int i = 0; i < 300; ++i) trace.push_back(rng.zipf(64, 1.0));
  const auto expected = brute_force_stack_distances(trace);
  StackDistanceProfiler p(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(p.record(trace[i]), expected[i]);
  }
}

TEST(StackDistance, HistogramAccumulates) {
  StackDistanceProfiler p(10);
  p.record(1);
  p.record(1);  // distance 0
  p.record(2);
  p.record(1);  // distance 1
  const auto& h = p.histogram();
  ASSERT_GE(h.size(), 2u);
  EXPECT_EQ(h[0], 1u);
  EXPECT_EQ(h[1], 1u);
}

TEST(StackDistance, CapacityExceededThrows) {
  StackDistanceProfiler p(2);
  p.record(1);
  p.record(2);
  EXPECT_THROW(p.record(3), coloc::runtime_error);
}

TEST(StackDistance, RecordBatchMatchesScalarRecord) {
  TraceSpec spec;
  spec.name = "batch-equiv";
  Phase phase;
  phase.working_set_lines = 512;
  phase.mix = {.streaming = 0.25, .strided = 0.25, .hot_cold = 0.25,
               .pointer = 0.25};
  spec.phases = {phase};
  TraceGenerator gen(spec, 13);
  const auto trace = gen.generate(8000);

  StackDistanceProfiler scalar(trace.size());
  for (const LineAddress a : trace) scalar.record(a);

  StackDistanceProfiler batched(trace.size());
  const std::size_t chunks[] = {1, 13, 500, 64, 7, 2048};
  std::size_t done = 0, chunk_index = 0;
  while (done < trace.size()) {
    const std::size_t len =
        std::min(chunks[chunk_index++ % std::size(chunks)],
                 trace.size() - done);
    batched.record_batch(
        std::span<const LineAddress>(trace.data() + done, len));
    done += len;
  }
  EXPECT_EQ(batched.references(), scalar.references());
  EXPECT_EQ(batched.cold_misses(), scalar.cold_misses());
  EXPECT_EQ(as_vector(batched.histogram()), as_vector(scalar.histogram()));
}

// The Bennett-Kruskal formulation on a Fenwick tree: the distinct lines
// inside a reuse window are the markers strictly between the two accesses.
std::vector<std::uint64_t> fenwick_distances(
    std::span<const LineAddress> trace) {
  std::vector<std::uint64_t> distances(trace.size(), kColdMiss);
  FenwickTree markers(trace.size());
  std::unordered_map<LineAddress, std::size_t> last;
  for (std::size_t t = 0; t < trace.size(); ++t) {
    const auto it = last.find(trace[t]);
    if (it != last.end()) {
      const std::size_t prev = it->second;
      distances[t] = t > prev + 1 ? static_cast<std::uint64_t>(
                                        markers.range_sum(prev + 1, t - 1))
                                  : 0;
      markers.add(prev, -1);
      it->second = t;
    } else {
      last.emplace(trace[t], t);
    }
    markers.add(t, +1);
  }
  return distances;
}

// Past the first superblock (65,536 references) the kernel's prefix count
// reads whole superblock, block and word windows; check it there against
// the Fenwick oracle. The capacity is not a multiple of a block or a
// superblock, the trace's long stream phase gives reuse distances above
// 65,536, and batches of 1, 7, 4,096 and 65,537 references alternate with
// record() calls. Then canneal's real trace, profiled whole.
TEST(StackDistance, RecordBatchMatchesFenwickOracleAcrossSuperblocks) {
  TraceSpec spec;
  spec.name = "superblocks";
  Phase stream, hot;
  stream.working_set_lines = 70'001;
  stream.mix = {.streaming = 0.85, .pointer = 0.15};
  stream.weight = 0.8;
  hot.working_set_lines = 2'500;
  hot.mix = {.strided = 0.4, .hot_cold = 0.6};
  hot.weight = 0.2;
  spec.phases = {stream, hot};
  TraceGenerator gen(spec, 41);
  gen.set_horizon(50'000);
  const auto trace = gen.generate(200'003);
  const std::size_t capacity = trace.size() + 77;
  ASSERT_NE(capacity % 512, 0u);
  ASSERT_NE(capacity % 65'536, 0u);

  const std::vector<std::uint64_t> expected = fenwick_distances(trace);
  std::uint64_t longest = 0;
  for (const std::uint64_t d : expected) {
    if (d != kColdMiss) longest = std::max(longest, d);
  }
  ASSERT_GT(longest, 65'536u);

  StackDistanceProfiler p(capacity);
  EXPECT_THROW(p.record_batch(std::vector<LineAddress>(capacity + 1, 5)),
               coloc::runtime_error);
  EXPECT_EQ(p.references(), 0u);

  std::vector<std::uint64_t> histogram;
  std::uint64_t cold = 0;
  const std::size_t steps[] = {0, 1, 7, 0, 4'096, 65'537};  // 0: record()
  std::size_t done = 0;
  for (std::size_t step = 0; done < trace.size(); ++step) {
    const std::size_t len = steps[step % std::size(steps)];
    if (len == 0) {
      ASSERT_EQ(p.record(trace[done]), expected[done]) << "at " << done;
    } else {
      const std::size_t take = std::min(len, trace.size() - done);
      p.record_batch(std::span<const LineAddress>(trace.data() + done, take));
    }
    const std::size_t end = done + std::max<std::size_t>(len, 1);
    for (; done < std::min(end, trace.size()); ++done) {
      const std::uint64_t d = expected[done];
      if (d == kColdMiss) {
        ++cold;
        continue;
      }
      if (d >= histogram.size()) histogram.resize(d + 1, 0);
      ++histogram[d];
    }
    ASSERT_EQ(p.references(), done) << "after step " << step;
    ASSERT_EQ(p.cold_misses(), cold) << "after step " << step;
    ASSERT_EQ(as_vector(p.histogram()), histogram) << "after step " << step;
  }

  // A batch past the capacity left, or one holding the reserved address,
  // throws and records nothing.
  const std::vector<LineAddress> too_long(78, 3);
  EXPECT_THROW(p.record_batch(too_long), coloc::runtime_error);
  const std::vector<LineAddress> reserved = {4, ~LineAddress{0}, 6};
  EXPECT_THROW(p.record_batch(reserved), coloc::runtime_error);
  EXPECT_EQ(p.references(), trace.size());
  EXPECT_EQ(as_vector(p.histogram()), histogram);

  const std::vector<LineAddress> canneal =
      TraceGenerator(find_application("canneal").trace, 99).generate(500'000);
  std::vector<std::uint64_t> canneal_histogram;
  std::uint64_t canneal_cold = 0;
  for (const std::uint64_t d : fenwick_distances(canneal)) {
    if (d == kColdMiss) {
      ++canneal_cold;
      continue;
    }
    if (d >= canneal_histogram.size()) canneal_histogram.resize(d + 1, 0);
    ++canneal_histogram[d];
  }
  const StackDistanceProfiler profiled = profile_trace(canneal);
  EXPECT_EQ(profiled.cold_misses(), canneal_cold);
  EXPECT_EQ(as_vector(profiled.histogram()), canneal_histogram);
}

TEST(StackDistance, ManyDistinctLinesSurviveMapGrowth) {
  // Enough distinct lines to force several open-addressing map rehashes;
  // distances must still match the brute-force oracle.
  coloc::Rng rng(9);
  std::vector<LineAddress> trace;
  for (int i = 0; i < 3000; ++i) {
    trace.push_back(rng.uniform_index(2000) * (1ULL << 26));
  }
  const auto expected = brute_force_stack_distances(trace);
  StackDistanceProfiler p(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(p.record(trace[i]), expected[i]) << "at index " << i;
  }
}

TEST(StackDistance, DistinctLinesBoundLeavesDistancesUnchanged) {
  // The bound only sizes the map and histogram up front: a tight, a loose
  // and a too-small bound (the map must still grow twice) all give the
  // unbounded profiler's distances, in batches and one reference at a
  // time.
  coloc::Rng rng(17);
  std::vector<LineAddress> trace;
  for (int i = 0; i < 40'000; ++i) {
    trace.push_back(rng.uniform_index(16'000) * (1ULL << 26));
  }
  StackDistanceProfiler unbounded(trace.size());
  std::vector<std::uint64_t> expected;
  for (const LineAddress a : trace) expected.push_back(unbounded.record(a));
  ASSERT_GT(unbounded.cold_misses(), 12'000u);
  for (const std::size_t bound : {16'000u, 1'000'000u, 100u}) {
    StackDistanceProfiler batched(trace.size(), bound);
    batched.record_batch(trace);
    EXPECT_EQ(as_vector(batched.histogram()), as_vector(unbounded.histogram()))
        << bound;
    EXPECT_EQ(batched.cold_misses(), unbounded.cold_misses()) << bound;
    StackDistanceProfiler scalar(trace.size(), bound);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_EQ(scalar.record(trace[i]), expected[i])
          << "bound " << bound << " at index " << i;
    }
  }
}

// The fundamental Mattson property: for a fully-associative LRU cache of
// capacity C, an access hits iff its stack distance < C. Sweep capacities
// as a parameterized property test against the real cache model.
class MattsonProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MattsonProperty, LruCacheAgreesWithStackDistances) {
  const std::size_t capacity = GetParam();
  coloc::Rng rng(7 + capacity);
  TraceSpec spec;
  spec.name = "mixed";
  Phase phase;
  phase.working_set_lines = 256;
  phase.mix = {.streaming = 0.3, .strided = 0.2, .hot_cold = 0.4,
               .pointer = 0.1};
  spec.phases = {phase};
  TraceGenerator gen(spec, 11);
  const auto trace = gen.generate(6000);

  CacheConfig config;
  config.line_bytes = 64;
  config.size_bytes = capacity * 64;
  config.associativity = capacity;  // fully associative
  Cache cache(config);
  StackDistanceProfiler profiler(trace.size());

  for (const LineAddress a : trace) {
    const bool hit = cache.access(a);
    const std::uint64_t d = profiler.record(a);
    const bool predicted_hit = d != kColdMiss && d < capacity;
    EXPECT_EQ(hit, predicted_hit);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, MattsonProperty,
                         ::testing::Values(4, 16, 64, 128, 300));

}  // namespace
}  // namespace coloc::sim
