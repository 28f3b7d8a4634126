// ExactMemo: the sharded exact-key memo behind the profile memo, the
// contention-solve cache and the validation design memo. The properties
// under test: values round-trip bit-exactly, the first stored value wins
// (also under concurrent stores), clear() empties every shard, the caller's
// counters are the ones that move, and the key helpers keep field
// boundaries.
//
// FlatMemo: the bounded flat table behind the serve score and rate memos.
// The properties under test: every 64-bit key round-trips exactly, the
// first stored value wins, a full table drops every entry before it adds a
// new key, live entries stay within capacity under random churn with every
// drop counted, and a drop frees what the dropped values own.
#include "common/memo.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <latch>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace coloc {
namespace {

using Curve = std::vector<double>;

bool bitwise_equal(const Curve& a, const Curve& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::string key_for(std::uint64_t seed) {
  std::string key;
  memo_key::append_u64(key, seed);
  memo_key::append_string(key, "memo-demo");
  return key;
}

TEST(ExactMemo, StoreLookupRoundTripIsExact) {
  ExactMemo<Curve> memo("test_exact_memo_hits_total",
                        "test_exact_memo_misses_total");
  const Curve curve = {0.51234567891234, 0.2503, 0.125, -0.0};
  const std::string key = key_for(3);

  EXPECT_FALSE(memo.lookup(key).has_value());
  EXPECT_TRUE(bitwise_equal(memo.store(key, curve), curve));
  EXPECT_EQ(memo.size(), 1u);
  const std::optional<Curve> out = memo.lookup(key);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(bitwise_equal(*out, curve));
}

TEST(ExactMemo, FirstWriterWins) {
  ExactMemo<Curve> memo("test_exact_memo_hits_total",
                        "test_exact_memo_misses_total");
  const std::string key = key_for(4);
  const Curve first = {0.5};
  const Curve second = {0.25};
  memo.store(key, first);
  // The duplicate store is dropped and hands back the first value.
  EXPECT_TRUE(bitwise_equal(memo.store(key, second), first));
  const std::optional<Curve> out = memo.lookup(key);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(bitwise_equal(*out, first));
  EXPECT_EQ(memo.size(), 1u);
}

TEST(ExactMemo, ClearEmptiesAllShards) {
  ExactMemo<Curve> memo("test_exact_memo_hits_total",
                        "test_exact_memo_misses_total");
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    memo.store(key_for(seed), Curve{0.5});
  }
  EXPECT_EQ(memo.size(), 32u);
  memo.clear();
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_FALSE(memo.lookup(key_for(0)).has_value());
}

TEST(ExactMemo, ConcurrentStoresAgreeOnOneWinner) {
  ExactMemo<Curve> memo("test_exact_memo_hits_total",
                        "test_exact_memo_misses_total");
  constexpr std::size_t kThreads = 8;
  const std::string key = key_for(5);
  std::vector<Curve> stored(kThreads), seen(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      stored[t] = memo.store(key, Curve{static_cast<double>(t)});
      seen[t] = memo.lookup(key).value_or(Curve{});
    });
  }
  for (std::thread& thread : threads) thread.join();

  ASSERT_EQ(memo.size(), 1u);
  const Curve winner = *memo.lookup(key);
  ASSERT_EQ(winner.size(), 1u);
  EXPECT_LT(winner[0], static_cast<double>(kThreads));
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(bitwise_equal(stored[t], winner)) << t;
    EXPECT_TRUE(bitwise_equal(seen[t], winner)) << t;
  }
}

TEST(ExactMemo, CountsUnderTheCallersCounterNames) {
  auto& registry = obs::Registry::global();
  const obs::Counter& hits = registry.counter("test_exact_memo_a_hits_total");
  const obs::Counter& misses =
      registry.counter("test_exact_memo_a_misses_total");
  const obs::Counter& other_hits =
      registry.counter("test_exact_memo_b_hits_total");
  const obs::Counter& other_misses =
      registry.counter("test_exact_memo_b_misses_total");
  ExactMemo<Curve> a("test_exact_memo_a_hits_total",
                     "test_exact_memo_a_misses_total");
  ExactMemo<Curve> b("test_exact_memo_b_hits_total",
                     "test_exact_memo_b_misses_total");
  const std::uint64_t h0 = hits.value(), m0 = misses.value();
  const std::uint64_t oh0 = other_hits.value(), om0 = other_misses.value();

  a.lookup(key_for(6));  // miss
  a.store(key_for(6), Curve{1.0});
  a.lookup(key_for(6));  // hit
  a.lookup(key_for(6));  // hit

  EXPECT_EQ(hits.value() - h0, 2u);
  EXPECT_EQ(misses.value() - m0, 1u);
  EXPECT_EQ(other_hits.value(), oh0);
  EXPECT_EQ(other_misses.value(), om0);
  EXPECT_EQ(b.size(), 0u);
}

TEST(ExactMemoKey, LengthPrefixKeepsStringBoundaries) {
  // Separator-joined keys would map ("ab", "c") and ("a", "bc") together.
  std::string split_late, split_early;
  memo_key::append_string(split_late, "ab");
  memo_key::append_string(split_late, "c");
  memo_key::append_string(split_early, "a");
  memo_key::append_string(split_early, "bc");
  EXPECT_NE(split_late, split_early);

  std::string zero, negative_zero;
  memo_key::append_double(zero, 0.0);
  memo_key::append_double(negative_zero, -0.0);
  EXPECT_NE(zero, negative_zero);
}

// --- FlatMemo ---------------------------------------------------------------

constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};
const char* const kFlatEvictions = "test_flat_memo_evictions_total";

/// A value that differs for every key, so a hit under the wrong key shows.
double value_of(std::uint64_t key) {
  return static_cast<double>(mix64(key) >> 11) * 0x1.0p-53;
}

TEST(FlatMemo, RoundTripIsExactForEveryKey) {
  FlatMemo<double> memo(64, kFlatEvictions);
  const std::vector<std::uint64_t> keys = {
      0, 1, 2, kAllOnes, kAllOnes - 1, std::uint64_t{1} << 63,
      std::uint64_t{0xFFFFFFFF} << 32 | 0xFFFFFF00};
  // Bit patterns a numeric compare would blur: -0.0 against 0.0, and a NaN.
  const std::vector<double> values = {
      -0.0, 0.0, 1.5, std::numeric_limits<double>::quiet_NaN(), 0.125,
      1e-300, 3.0};
  for (std::uint64_t key : keys) EXPECT_EQ(memo.find(key), nullptr) << key;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const double stored = memo.insert(keys[i], values[i]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(stored),
              std::bit_cast<std::uint64_t>(values[i]));
  }
  EXPECT_EQ(memo.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const double* hit = memo.find(keys[i]);
    ASSERT_NE(hit, nullptr) << keys[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*hit),
              std::bit_cast<std::uint64_t>(values[i]))
        << keys[i];
  }
  memo.clear();
  EXPECT_EQ(memo.size(), 0u);
  for (std::uint64_t key : keys) EXPECT_EQ(memo.find(key), nullptr) << key;
}

TEST(FlatMemo, FirstInsertWins) {
  FlatMemo<double> memo(3, kFlatEvictions);
  for (std::uint64_t key : {std::uint64_t{0}, std::uint64_t{7}, kAllOnes}) {
    EXPECT_EQ(memo.insert(key, 0.5), 0.5);
    EXPECT_EQ(memo.insert(key, 0.25), 0.5);
    ASSERT_NE(memo.find(key), nullptr);
    EXPECT_EQ(*memo.find(key), 0.5);
  }
  // Also when the table is full: a stored key is found, nothing drops.
  EXPECT_EQ(memo.size(), 3u);
  EXPECT_EQ(memo.insert(7, 0.125), 0.5);
  EXPECT_EQ(memo.evictions(), 0u);
}

TEST(FlatMemo, FullTableDropsEveryEntryBeforeAddingANewKey) {
  const obs::Counter& evicted = obs::Registry::global().counter(kFlatEvictions);
  const std::uint64_t before = evicted.value();
  FlatMemo<double> memo(4, kFlatEvictions);
  for (std::uint64_t key = 0; key < 4; ++key) memo.insert(key, value_of(key));
  EXPECT_EQ(memo.size(), 4u);
  EXPECT_EQ(memo.evictions(), 0u);
  // Key 4 finds the table full: keys 0-3 (key 0 too) drop, key 4 stays.
  EXPECT_EQ(memo.insert(4, value_of(4)), value_of(4));
  EXPECT_EQ(memo.evictions(), 4u);
  EXPECT_EQ(evicted.value() - before, 4u);
  EXPECT_EQ(memo.size(), 1u);
  for (std::uint64_t key = 0; key < 4; ++key) {
    EXPECT_EQ(memo.find(key), nullptr) << key;
  }
  const double* hit = memo.find(4);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, value_of(4));
}

TEST(FlatMemo, RandomChurnStaysWithinCapacity) {
  constexpr std::size_t kCapacity = 64;
  const obs::Counter& evicted = obs::Registry::global().counter(kFlatEvictions);
  const std::uint64_t before = evicted.value();
  FlatMemo<double> memo(kCapacity, kFlatEvictions);
  Rng rng(20261017);
  // 512 distinct keys, 0 and ~0 among them, against 64 live entries: every
  // step is a hit or an insert, and the table fills and drops all the time.
  const auto key_at = [](std::uint64_t i) {
    return i == 511 ? kAllOnes : i * 0x9E3779B97F4A7C15ULL;
  };
  std::uint64_t added = 0, hits = 0;
  for (int step = 0; step < 1'000'000; ++step) {
    const std::uint64_t key = key_at(rng.uniform_index(512));
    if (const double* hit = memo.find(key)) {
      ASSERT_EQ(*hit, value_of(key)) << "step " << step;
      ++hits;
    } else {
      ASSERT_EQ(memo.insert(key, value_of(key)), value_of(key));
      ++added;
    }
    ASSERT_LE(memo.size(), kCapacity) << "step " << step;
    // Every entry ever added is live or was counted as evicted.
    ASSERT_EQ(added, memo.size() + memo.evictions()) << "step " << step;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(memo.evictions(), 0u);
  EXPECT_EQ(evicted.value() - before, memo.evictions());
}

/// Live bytes held by vectors that allocate through CountingAllocator.
std::size_t g_counted_bytes = 0;

template <typename T>
struct CountingAllocator {
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  CountingAllocator() = default;
  template <typename U>
  CountingAllocator(const CountingAllocator<U>&) {}
  T* allocate(std::size_t n) {
    g_counted_bytes += n * sizeof(T);
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) {
    g_counted_bytes -= n * sizeof(T);
    std::allocator<T>{}.deallocate(p, n);
  }
  friend bool operator==(const CountingAllocator&, const CountingAllocator&) {
    return true;
  }
};

TEST(FlatMemo, DropFreesTheVectorsItDrops) {
  // The rate memo's value type, with an allocator that only counts.
  using Rates = std::vector<double, CountingAllocator<double>>;
  constexpr std::size_t kBytes = 1000 * sizeof(double);
  const std::size_t baseline = g_counted_bytes;
  {
    FlatMemo<Rates> memo(4, kFlatEvictions);
    for (std::uint64_t key = 1; key <= 4; ++key) {
      memo.insert(key, Rates(1000, static_cast<double>(key)));
    }
    EXPECT_EQ(g_counted_bytes - baseline, 4 * kBytes);
    memo.insert(5, Rates(1000, 5.0));  // drops keys 1-4
    EXPECT_EQ(memo.evictions(), 4u);
    EXPECT_EQ(g_counted_bytes - baseline, 1 * kBytes);
    const Rates* kept = memo.find(5);
    ASSERT_NE(kept, nullptr);
    EXPECT_EQ(kept->front(), 5.0);
    memo.clear();
    EXPECT_EQ(g_counted_bytes, baseline);
  }
  EXPECT_EQ(g_counted_bytes, baseline);
}

}  // namespace
}  // namespace coloc
