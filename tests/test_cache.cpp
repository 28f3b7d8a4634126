#include "sim/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/app_model.hpp"
#include "sim/trace.hpp"

namespace coloc::sim {
namespace {

CacheConfig small_cache(std::size_t lines, std::size_t assoc) {
  CacheConfig c;
  c.name = "test";
  c.line_bytes = 64;
  c.size_bytes = lines * 64;
  c.associativity = assoc;
  return c;
}

TEST(CacheTest, FirstAccessMissesSecondHits) {
  Cache cache(small_cache(64, 4));
  EXPECT_FALSE(cache.access(42));
  EXPECT_TRUE(cache.access(42));
  EXPECT_EQ(cache.stats().accesses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheTest, LruEvictsOldest) {
  // Fully-associative 4-line cache (1 set x 4 ways).
  Cache cache(small_cache(4, 4));
  cache.access(0);
  cache.access(1);
  cache.access(2);
  cache.access(3);
  cache.access(4);  // evicts 0
  EXPECT_FALSE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.access(0));  // 0 must miss now
}

TEST(CacheTest, AccessRefreshesLru) {
  Cache cache(small_cache(4, 4));
  cache.access(0);
  cache.access(1);
  cache.access(2);
  cache.access(3);
  cache.access(0);  // refresh 0; LRU is now 1
  cache.access(4);  // evicts 1
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
}

TEST(CacheTest, SetMappingSeparatesConflicts) {
  // 8 lines, 2-way: 4 sets. Lines 0 and 4 share set 0; 1 maps to set 1.
  Cache cache(small_cache(8, 2));
  cache.access(0);
  cache.access(4);
  cache.access(8);  // third line in set 0: evicts 0
  EXPECT_FALSE(cache.contains(0));
  cache.access(1);
  EXPECT_TRUE(cache.contains(1));  // set 1 untouched by the conflict
}

TEST(CacheTest, ContainsDoesNotTouchState) {
  Cache cache(small_cache(4, 4));
  cache.access(0);
  cache.access(1);
  cache.access(2);
  cache.access(3);
  // Probing 0 via contains must NOT refresh it.
  EXPECT_TRUE(cache.contains(0));
  cache.access(4);  // still evicts 0 (oldest by true access order)
  EXPECT_FALSE(cache.contains(0));
}

TEST(CacheTest, FlushEmptiesCache) {
  Cache cache(small_cache(16, 4));
  cache.access(5);
  cache.flush();
  EXPECT_FALSE(cache.contains(5));
}

TEST(CacheTest, ResetStatsKeepsContents) {
  Cache cache(small_cache(16, 4));
  cache.access(5);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_TRUE(cache.contains(5));
}

TEST(CacheTest, NonPowerOfTwoSetCount) {
  // 12 sets x 4 ways = 48 lines (mirrors real sliced LLC geometry).
  Cache cache(small_cache(48, 4));
  for (LineAddress a = 0; a < 48; ++a) cache.access(a);
  std::size_t resident = 0;
  for (LineAddress a = 0; a < 48; ++a) resident += cache.contains(a);
  EXPECT_EQ(resident, 48u);
}

TEST(CacheTest, MissRatioComputed) {
  Cache cache(small_cache(16, 4));
  cache.access(1);
  cache.access(1);
  cache.access(2);
  cache.access(2);
  EXPECT_DOUBLE_EQ(cache.stats().miss_ratio(), 0.5);
}

TEST(CacheTest, InvalidGeometryRejected) {
  CacheConfig c = small_cache(10, 4);  // 10 lines not divisible by 4 ways
  EXPECT_THROW(Cache{c}, coloc::runtime_error);
  CacheConfig zero;
  zero.line_bytes = 0;
  EXPECT_THROW(Cache{zero}, coloc::runtime_error);
}

TEST(CacheProperty, LargerCacheNeverMissesMore) {
  // LRU inclusion property on a fully-associative pair of caches.
  coloc::Rng rng(1);
  Cache small(small_cache(32, 32));
  Cache large(small_cache(64, 64));
  for (int i = 0; i < 20000; ++i) {
    const LineAddress a = rng.zipf(256, 0.8);
    small.access(a);
    large.access(a);
  }
  EXPECT_LE(large.stats().misses, small.stats().misses);
}

TEST(HierarchyTest, UpperHitShieldsLower) {
  CacheHierarchy h({small_cache(16, 4), small_cache(64, 4)});
  h.access(3);                       // miss everywhere
  EXPECT_EQ(h.access(3), 0u);        // L1 hit
  EXPECT_EQ(h.level(1).stats().accesses, 1u);  // only the initial miss
}

TEST(HierarchyTest, MissReturnsLevelCount) {
  CacheHierarchy h({small_cache(16, 4), small_cache(64, 4)});
  EXPECT_EQ(h.access(99), 2u);  // missed both -> DRAM
}

TEST(HierarchyTest, LlcCountersTrackLastLevel) {
  CacheHierarchy h({small_cache(4, 4), small_cache(64, 4)});
  // 8 distinct lines: all miss L1 and L2 (cold).
  for (LineAddress a = 0; a < 8; ++a) h.access(a);
  EXPECT_EQ(h.llc_accesses(), 8u);
  EXPECT_EQ(h.llc_misses(), 8u);
  // Lines 4..7 are still in L1 (4 lines) — re-access hits L1, LLC silent.
  h.access(7);
  EXPECT_EQ(h.llc_accesses(), 8u);
  // Line 0 fell out of L1 but sits in L2: LLC access + hit.
  h.access(0);
  EXPECT_EQ(h.llc_accesses(), 9u);
  EXPECT_EQ(h.llc_misses(), 8u);
}

TEST(HierarchyTest, ResetStatsClearsAllLevels) {
  CacheHierarchy h({small_cache(16, 4), small_cache(64, 4)});
  h.access(1);
  h.reset_stats();
  EXPECT_EQ(h.level(0).stats().accesses, 0u);
  EXPECT_EQ(h.level(1).stats().accesses, 0u);
}

TEST(HierarchyTest, EmptyRejected) {
  EXPECT_THROW(CacheHierarchy{{}}, coloc::runtime_error);
}

// --- access_batch() must replay the per-access scalar walk exactly: same
// hit/miss stream, same stats, same final contents — for power-of-two and
// non-power-of-two set counts, odd chunkings, and through the hierarchy.

std::vector<LineAddress> zipf_trace(std::size_t n, std::size_t universe,
                                    std::uint64_t seed) {
  coloc::Rng rng(seed);
  std::vector<LineAddress> trace(n);
  for (LineAddress& a : trace) a = rng.zipf(universe, 0.9);
  return trace;
}

void expect_batch_matches_scalar(const CacheConfig& config,
                                 std::span<const LineAddress> trace) {
  Cache batched(config);
  Cache scalar(config);
  std::vector<std::uint8_t> hits(trace.size());
  // Feed the batched cache in ragged chunks so chunk seams are exercised.
  const std::size_t chunks[] = {1, 127, 64, 1000, 33};
  std::size_t done = 0, chunk_index = 0;
  while (done < trace.size()) {
    const std::size_t len =
        std::min(chunks[chunk_index++ % std::size(chunks)],
                 trace.size() - done);
    batched.access_batch(trace.subspan(done, len), hits.data() + done);
    done += len;
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(scalar.access(trace[i]), hits[i] != 0) << "at index " << i;
  }
  EXPECT_EQ(batched.stats().accesses, scalar.stats().accesses);
  EXPECT_EQ(batched.stats().hits, scalar.stats().hits);
  EXPECT_EQ(batched.stats().misses, scalar.stats().misses);
  // Final contents must agree too: the same lines are resident, among the
  // low addresses and every line the trace touched.
  for (LineAddress a = 0; a < 512; ++a) {
    ASSERT_EQ(batched.contains(a), scalar.contains(a)) << "line " << a;
  }
  for (const LineAddress a : trace) {
    ASSERT_EQ(batched.contains(a), scalar.contains(a)) << "line " << a;
  }
}

// 200k references of canneal's real trace through the Xeon E5649's L2
// (256 KB, 8-way: 512 sets) and 12 MB 16-way LLC (12,288 sets).
std::vector<LineAddress> canneal_trace() {
  return TraceGenerator(find_application("canneal").trace, 99)
      .generate(200'000);
}
const CacheConfig kL2{.name = "L2", .size_bytes = 256 << 10,
                      .line_bytes = 64, .associativity = 8};
const CacheConfig kLlc{.name = "LLC", .size_bytes = 12 << 20,
                       .line_bytes = 64, .associativity = 16};

TEST(CacheBatch, MatchesScalarPowerOfTwoSets) {
  const auto trace = zipf_trace(20000, 400, 17);
  expect_batch_matches_scalar(small_cache(256, 4), trace);
  expect_batch_matches_scalar(kL2, canneal_trace());
}

TEST(CacheBatch, MatchesScalarNonPowerOfTwoSets) {
  // 12 sets x 4 ways, mirroring a sliced LLC: exercises the modulo set
  // indexing path rather than the pow2 mask.
  const auto trace = zipf_trace(20000, 300, 18);
  expect_batch_matches_scalar(small_cache(48, 4), trace);
  expect_batch_matches_scalar(kLlc, canneal_trace());
}

TEST(CacheBatch, MatchesScalarFullyAssociative) {
  const auto trace = zipf_trace(5000, 128, 19);
  expect_batch_matches_scalar(small_cache(32, 32), trace);
}

TEST(CacheBatch, NullHitsPointerOnlyCountsStats) {
  const auto trace = zipf_trace(5000, 200, 20);
  Cache batched(small_cache(64, 4));
  Cache scalar(small_cache(64, 4));
  const std::size_t batch_hits =
      batched.access_batch(std::span<const LineAddress>(trace));
  std::size_t scalar_hits = 0;
  for (const LineAddress a : trace) scalar_hits += scalar.access(a);
  EXPECT_EQ(batch_hits, scalar_hits);
  EXPECT_EQ(batched.stats().hits, scalar.stats().hits);
}

void expect_hierarchy_matches_scalar(const std::vector<CacheConfig>& levels,
                                     std::span<const LineAddress> trace) {
  CacheHierarchy batched(levels);
  CacheHierarchy scalar(levels);
  std::size_t scalar_dram = 0;
  for (const LineAddress a : trace) {
    scalar_dram += scalar.access(a) == scalar.num_levels() ? 1 : 0;
  }
  const std::size_t batched_dram = batched.access_batch(trace);
  EXPECT_EQ(batched_dram, scalar_dram);
  for (std::size_t l = 0; l < batched.num_levels(); ++l) {
    EXPECT_EQ(batched.level(l).stats().accesses,
              scalar.level(l).stats().accesses) << "level " << l;
    EXPECT_EQ(batched.level(l).stats().hits, scalar.level(l).stats().hits)
        << "level " << l;
    EXPECT_EQ(batched.level(l).stats().misses,
              scalar.level(l).stats().misses) << "level " << l;
  }
  EXPECT_EQ(batched.llc_accesses(), scalar.llc_accesses());
  EXPECT_EQ(batched.llc_misses(), scalar.llc_misses());
}

TEST(CacheBatch, HierarchyMatchesScalarLevelByLevel) {
  expect_hierarchy_matches_scalar(
      {small_cache(16, 4), small_cache(48, 4), small_cache(256, 8)},
      zipf_trace(20000, 600, 21));
  expect_hierarchy_matches_scalar({kL2, kLlc}, canneal_trace());
}

}  // namespace
}  // namespace coloc::sim
