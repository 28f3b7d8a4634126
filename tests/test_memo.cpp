// ExactMemo: the sharded exact-key memo behind the profile memo, the
// contention-solve cache and the validation design memo. The properties
// under test: values round-trip bit-exactly, the first stored value wins
// (also under concurrent stores), clear() empties every shard, the caller's
// counters are the ones that move, and the key helpers keep field
// boundaries.
#include "common/memo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

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

}  // namespace
}  // namespace coloc
