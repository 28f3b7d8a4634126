#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.hpp"

namespace coloc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(Rng, ReseedRestoresStream) {
  Rng a(77);
  const auto x1 = a();
  const auto x2 = a();
  a.reseed(77);
  EXPECT_EQ(a(), x1);
  EXPECT_EQ(a(), x2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 9.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(9);
  EXPECT_THROW(rng.uniform_index(0), coloc::runtime_error);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParameters) {
  Rng rng(12);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
}

TEST(Rng, LognormalUnitMedian) {
  Rng rng(14);
  std::vector<double> xs(20001);
  for (auto& x : xs) x = rng.lognormal(0.0, 0.3);
  std::nth_element(xs.begin(), xs.begin() + 10000, xs.end());
  EXPECT_NEAR(xs[10000], 1.0, 0.02);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(15);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.005);
}

TEST(Rng, ExponentialRejectsNonpositiveRate) {
  Rng rng(16);
  EXPECT_THROW(rng.exponential(0.0), coloc::runtime_error);
  EXPECT_THROW(rng.exponential(-1.0), coloc::runtime_error);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ZipfStaysInRange) {
  Rng rng(18);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(rng.zipf(100, 0.9), 100u);
  }
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(19);
  const int n = 50000;
  int low = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.zipf(10000, 1.1) < 100) ++low;
  }
  // With s=1.1 the first 1% of ranks should receive far more than 1% of
  // the mass.
  EXPECT_GT(low, n / 5);
}

TEST(Rng, ZipfSingleElement) {
  Rng rng(20);
  EXPECT_EQ(rng.zipf(1, 1.0), 0u);
}

// The sampler's cached acceptance bounds must leave every draw as the
// one-shot Rng::zipf makes it: same rank, same uniform() consumption. The
// sizes cover n = 1 (no draw), a table smaller than its cap, a table at
// the cap, and ranks above it; s = 1.0 takes the log/exp branch.
TEST(Rng, ZipfSamplerMatchesOneShotDraws) {
  const std::uint64_t sizes[] = {1, 2, std::uint64_t{1} << 16,
                                 (std::uint64_t{1} << 16) + 1,
                                 std::uint64_t{1} << 20};
  const double exponents[] = {0.7, 0.9, 1.0, 1.1};
  for (const std::uint64_t n : sizes) {
    for (const double s : exponents) {
      Rng one_shot(31), cached(31);
      ZipfSampler sampler(n, s);
      bool above_table = false;
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t rank = sampler(cached);
        ASSERT_EQ(rank, one_shot.zipf(n, s))
            << "n " << n << " s " << s << " draw " << i;
        above_table = above_table || rank >= ZipfSampler::kCachedRanks;
      }
      ASSERT_EQ(cached.uniform(), one_shot.uniform()) << "n " << n
                                                      << " s " << s;
      if (n == (std::uint64_t{1} << 20)) {
        EXPECT_TRUE(above_table) << "no draw above the table at s " << s;
      }
    }
  }
}

TEST(Rng, PermutationIsBijective) {
  Rng rng(21);
  const auto p = rng.permutation(257);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(22);
  const auto s = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<std::size_t> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 30u);
  for (auto v : seen) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(23);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), coloc::runtime_error);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(24);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(25);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

}  // namespace
}  // namespace coloc
