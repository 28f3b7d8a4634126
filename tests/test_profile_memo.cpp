#include "sim/profile_memo.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/app_model.hpp"
#include "sim/mrc.hpp"

namespace coloc::sim {
namespace {

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool curves_bit_identical(const MissRatioCurve& a, const MissRatioCurve& b) {
  return bitwise_equal(a.capacities(), b.capacities()) &&
         bitwise_equal(a.ratios(), b.ratios());
}

TraceSpec demo_spec() {
  TraceSpec spec;
  spec.name = "memo-demo";
  Phase phase;
  phase.working_set_lines = 4096;
  phase.mix = {.streaming = 0.3, .hot_cold = 0.7};
  phase.zipf_exponent = 0.9;
  spec.phases = {phase};
  return spec;
}

TEST(ProfileMemoKey, SensitiveToSeedAndHorizon) {
  const TraceSpec spec = demo_spec();
  const std::string base = ProfileMemo::key(spec, 7, 100'000);
  EXPECT_NE(base, ProfileMemo::key(spec, 8, 100'000));
  EXPECT_NE(base, ProfileMemo::key(spec, 7, 100'001));
  EXPECT_EQ(base, ProfileMemo::key(spec, 7, 100'000));
}

TEST(ProfileMemoKey, SensitiveToEverySpecFieldThatShapesTheStream) {
  const TraceSpec base = demo_spec();
  const std::string key = ProfileMemo::key(base, 1, 1000);

  TraceSpec t = base;
  t.region_stride_lines += 1;
  EXPECT_NE(key, ProfileMemo::key(t, 1, 1000));

  t = base;
  t.phases[0].working_set_lines += 1;
  EXPECT_NE(key, ProfileMemo::key(t, 1, 1000));

  t = base;
  t.phases[0].stride += 1;
  EXPECT_NE(key, ProfileMemo::key(t, 1, 1000));

  t = base;
  t.phases[0].weight += 0.5;
  EXPECT_NE(key, ProfileMemo::key(t, 1, 1000));

  t = base;
  t.phases[0].zipf_exponent += 0.1;
  EXPECT_NE(key, ProfileMemo::key(t, 1, 1000));

  t = base;
  t.phases[0].mix.pointer += 0.1;
  EXPECT_NE(key, ProfileMemo::key(t, 1, 1000));

  t = base;
  t.phases.push_back(t.phases[0]);
  EXPECT_NE(key, ProfileMemo::key(t, 1, 1000));
}

TEST(ProfileMemoKey, IgnoresApplicationName) {
  // Renamed clones of the same behavioural spec (the --sweep-scale path)
  // must share one memo entry.
  TraceSpec a = demo_spec();
  TraceSpec b = demo_spec();
  b.name = "memo-demo~2";
  EXPECT_EQ(ProfileMemo::key(a, 1, 1000), ProfileMemo::key(b, 1, 1000));
}

TEST(ProfileMemo, TransparentThroughAppMrcLibrary) {
  // A curve served from the process-wide memo must be bit-identical to the
  // same profile recomputed from scratch after the memo is cleared.
  ApplicationSpec app = find_application("canneal");
  app.profile_references = 200'000;  // keep the test fast
  auto& registry = obs::Registry::global();
  const obs::Counter& hits = registry.counter("sim_profile_memo_hits_total");
  const obs::Counter& misses =
      registry.counter("sim_profile_memo_misses_total");

  AppMrcLibrary warm;
  warm.profile_all({app}, 77);  // leaves the entry in the memo
  const std::uint64_t hits_before = hits.value();
  AppMrcLibrary served;
  served.profile_all({app}, 77);
  EXPECT_EQ(hits.value() - hits_before, 1u);

  ProfileMemo::global().clear();
  const std::uint64_t misses_before = misses.value();
  AppMrcLibrary recomputed;
  recomputed.profile_all({app}, 77);
  EXPECT_EQ(misses.value() - misses_before, 1u);

  EXPECT_TRUE(
      curves_bit_identical(served.curve(app), recomputed.curve(app)));
}

}  // namespace
}  // namespace coloc::sim
