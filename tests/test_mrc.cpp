#include "sim/mrc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/cache.hpp"
#include "sim/trace.hpp"

namespace coloc::sim {
namespace {

MissRatioCurve profile_zipf_curve(std::size_t ws, std::size_t refs,
                                  std::uint64_t seed,
                                  bool include_cold = false) {
  coloc::Rng rng(seed);
  StackDistanceProfiler p(refs);
  for (std::size_t i = 0; i < refs; ++i) p.record(rng.zipf(ws, 0.9));
  return MissRatioCurve::from_profiler(p, 8, include_cold);
}

TEST(Mrc, MonotoneNonincreasing) {
  const MissRatioCurve curve = profile_zipf_curve(2000, 50000, 1);
  double prev = 1.1;
  for (double c = 1; c <= 4000; c *= 1.3) {
    const double r = curve.miss_ratio(c);
    EXPECT_LE(r, prev + 1e-12);
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
    prev = r;
  }
}

TEST(Mrc, FullCapacityReachesCompulsoryOnly) {
  // Warm curve with the cache as big as the footprint: everything fits.
  const MissRatioCurve curve = profile_zipf_curve(500, 30000, 2);
  EXPECT_NEAR(curve.miss_ratio(500), 0.0, 1e-9);
  EXPECT_NEAR(curve.ratios().back(), 0.0, 1e-9);
}

TEST(Mrc, TinyCapacityMissesAlmostEverything) {
  // Uniform traffic over 1000 lines: a 1-line cache hits ~never.
  coloc::Rng rng(3);
  StackDistanceProfiler p(40000);
  for (std::size_t i = 0; i < 40000; ++i)
    p.record(rng.uniform_index(1000));
  const MissRatioCurve curve = MissRatioCurve::from_profiler(p);
  EXPECT_GT(curve.miss_ratio(1), 0.95);
}

TEST(Mrc, AgreesWithFullyAssociativeCacheSimulation) {
  // Cross-check the analytic curve against the real cache model at several
  // capacities (include_cold=true so both count the same events).
  TraceSpec spec;
  spec.name = "m";
  Phase phase;
  phase.working_set_lines = 512;
  phase.mix = {.streaming = 0.25, .hot_cold = 0.5, .pointer = 0.25};
  spec.phases = {phase};
  TraceGenerator gen(spec, 5);
  const auto trace = gen.generate(30000);

  StackDistanceProfiler p(trace.size());
  for (auto a : trace) p.record(a);
  const MissRatioCurve curve =
      MissRatioCurve::from_profiler(p, 16, /*include_cold=*/true);

  for (std::size_t capacity : {16u, 64u, 256u}) {
    CacheConfig config;
    config.line_bytes = 64;
    config.size_bytes = capacity * 64;
    config.associativity = capacity;
    Cache cache(config);
    for (auto a : trace) cache.access(a);
    EXPECT_NEAR(curve.miss_ratio(static_cast<double>(capacity)),
                cache.stats().miss_ratio(), 0.02)
        << "capacity " << capacity;
  }
}

TEST(Mrc, KnotsAreHistogramSuffixSums) {
  // Each knot at capacity C <= the histogram size holds the references
  // with distance >= C (plus cold misses in the raw curve) over the total;
  // the terminal knot past the histogram holds only the cold misses.
  coloc::Rng rng(23);
  StackDistanceProfiler p(60000);
  for (std::size_t i = 0; i < 60000; ++i) p.record(rng.zipf(3000, 0.6));
  const auto& hist = p.histogram();
  for (const bool include_cold : {false, true}) {
    const MissRatioCurve curve = MissRatioCurve::from_profiler(p, 8,
                                                               include_cold);
    const double cold =
        include_cold ? static_cast<double>(p.cold_misses()) : 0.0;
    const double total = static_cast<double>(
        include_cold ? p.references() : p.references() - p.cold_misses());
    ASSERT_EQ(curve.capacities().back(), hist.size() + 1.0);
    EXPECT_EQ(curve.ratios().back(), cold / total);
    for (std::size_t k = 0; k + 1 < curve.capacities().size(); ++k) {
      const auto capacity = static_cast<std::size_t>(curve.capacities()[k]);
      std::uint64_t warm = 0;
      for (std::size_t d = capacity; d < hist.size(); ++d) warm += hist[d];
      EXPECT_EQ(curve.ratios()[k], (static_cast<double>(warm) + cold) / total)
          << "capacity " << capacity << " include_cold " << include_cold;
    }
  }
}

TEST(Mrc, FromPointsInterpolatesLogLinearly) {
  const MissRatioCurve curve =
      MissRatioCurve::from_points({10, 1000}, {0.8, 0.2});
  EXPECT_DOUBLE_EQ(curve.miss_ratio(10), 0.8);
  EXPECT_DOUBLE_EQ(curve.miss_ratio(1000), 0.2);
  // Geometric midpoint of capacities -> arithmetic midpoint of ratios.
  EXPECT_NEAR(curve.miss_ratio(100), 0.5, 1e-9);
}

TEST(Mrc, ClampsOutsideKnots) {
  const MissRatioCurve curve =
      MissRatioCurve::from_points({10, 100}, {0.6, 0.1});
  EXPECT_DOUBLE_EQ(curve.miss_ratio(1), 0.6);
  EXPECT_DOUBLE_EQ(curve.miss_ratio(1e9), 0.1);
}

TEST(Mrc, FromPointsValidation) {
  EXPECT_THROW(MissRatioCurve::from_points({10, 5}, {0.5, 0.4}),
               coloc::runtime_error);  // not increasing capacities
  EXPECT_THROW(MissRatioCurve::from_points({10, 20}, {0.4, 0.5}),
               coloc::runtime_error);  // increasing ratios
  EXPECT_THROW(MissRatioCurve::from_points({10}, {1.5}),
               coloc::runtime_error);  // ratio out of range
  EXPECT_THROW(MissRatioCurve::from_points({}, {}),
               coloc::runtime_error);  // empty
}

// The lookup with the log of both bracketing knots computed inline.
double miss_ratio_inline_logs(const MissRatioCurve& curve, double lines) {
  const std::vector<double>& caps = curve.capacities();
  const std::vector<double>& ratios = curve.ratios();
  if (lines <= caps.front()) return ratios.front();
  if (lines >= caps.back()) return ratios.back();
  const auto hi = static_cast<std::size_t>(
      std::lower_bound(caps.begin(), caps.end(), lines) - caps.begin());
  const std::size_t lo = hi - 1;
  const double x0 = std::log(caps[lo]);
  const double x1 = std::log(caps[hi]);
  const double t = (std::log(lines) - x0) / (x1 - x0);
  return ratios[lo] + t * (ratios[hi] - ratios[lo]);
}

TEST(Mrc, LogKnotLookupMatchesInlineLogs) {
  coloc::Rng rng(29);
  StackDistanceProfiler p(40000);
  for (std::size_t i = 0; i < 40000; ++i) p.record(rng.zipf(5000, 0.8));
  const std::vector<MissRatioCurve> curves = {
      MissRatioCurve::from_points({1000, 10000, 100000, 1000000},
                                  {0.9, 0.6, 0.3, 0.05}),
      MissRatioCurve::from_points({7}, {0.25}),
      MissRatioCurve::from_profiler(p),
      MissRatioCurve::from_profiler(p, 3, /*include_cold=*/true),
  };
  for (std::size_t c = 0; c < curves.size(); ++c) {
    const MissRatioCurve& curve = curves[c];
    const std::vector<double>& caps = curve.capacities();
    std::vector<double> queries = {0.0, 0.5, caps.front() * 0.5,
                                   caps.back() * 2.0, 1e300};
    for (std::size_t k = 0; k < caps.size(); ++k) {
      queries.push_back(caps[k]);
      queries.push_back(std::nextafter(caps[k], 0.0));
      queries.push_back(std::nextafter(caps[k], 1e300));
      if (k + 1 < caps.size()) {
        queries.push_back(0.5 * (caps[k] + caps[k + 1]));
        queries.push_back(std::sqrt(caps[k] * caps[k + 1]));
      }
    }
    for (double lines : queries) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(curve.miss_ratio(lines)),
                std::bit_cast<std::uint64_t>(
                    miss_ratio_inline_logs(curve, lines)))
          << "curve " << c << " at " << lines << " lines";
    }
  }
}

TEST(Mrc, EmptyCurveQueriesThrow) {
  MissRatioCurve curve;
  EXPECT_TRUE(curve.empty());
  EXPECT_THROW(curve.miss_ratio(10), coloc::runtime_error);
}

TEST(Mrc, WarmCurveExcludesColdMisses) {
  // Stream over fresh addresses: every access is cold. Warm curve build
  // must reject it (no reuse at all).
  StackDistanceProfiler p(1000);
  for (std::size_t i = 0; i < 1000; ++i) p.record(i);
  EXPECT_THROW(MissRatioCurve::from_profiler(p), coloc::runtime_error);
  // The raw (include_cold) curve sees 100% misses everywhere.
  const MissRatioCurve raw =
      MissRatioCurve::from_profiler(p, 8, /*include_cold=*/true);
  EXPECT_DOUBLE_EQ(raw.miss_ratio(100), 1.0);
}

}  // namespace
}  // namespace coloc::sim
