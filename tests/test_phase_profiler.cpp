#include "sim/phase_profiler.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace coloc::sim {
namespace {

CacheConfig level(std::size_t lines, std::size_t assoc,
                  const char* name = "L") {
  CacheConfig c;
  c.name = name;
  c.line_bytes = 64;
  c.size_bytes = lines * 64;
  c.associativity = assoc;
  return c;
}

TraceSpec two_phase_spec() {
  TraceSpec spec;
  spec.name = "phased";
  Phase quiet;
  quiet.working_set_lines = 64;  // fits everywhere: no LLC misses
  quiet.mix = {.hot_cold = 1.0};
  quiet.weight = 0.5;
  Phase hungry;
  hungry.working_set_lines = 1 << 15;  // blows through both levels
  hungry.mix = {.pointer = 1.0};
  hungry.weight = 0.5;
  spec.phases = {quiet, hungry};
  return spec;
}

TEST(PhaseProfiler, ProducesOneSamplePerWindow) {
  TraceGenerator gen(two_phase_spec(), 1);
  CacheHierarchy h({level(256, 4, "L2"), level(4096, 16, "L3")});
  const auto samples = profile_phases(gen, h, 40'000, 2'000);
  EXPECT_EQ(samples.size(), 20u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].window_index, i);
    EXPECT_EQ(samples[i].references, 2'000u);
    EXPECT_LE(samples[i].llc_misses, samples[i].llc_accesses);
    EXPECT_LE(samples[i].llc_accesses, samples[i].references);
  }
}

TEST(PhaseProfiler, WindowsMatchTheScalarWalk) {
  // 10k-reference windows span several batch chunks and end mid-chunk;
  // every sample must equal the per-reference walk's counter deltas.
  TraceGenerator gen(two_phase_spec(), 3);
  CacheHierarchy h({level(256, 4), level(4096, 16)});
  const auto samples = profile_phases(gen, h, 50'000, 10'000);

  TraceGenerator ref_gen(two_phase_spec(), 3);
  ref_gen.set_horizon(50'000);
  CacheHierarchy ref({level(256, 4), level(4096, 16)});
  ASSERT_EQ(samples.size(), 5u);
  for (const PhaseSample& sample : samples) {
    const std::uint64_t accesses = ref.llc_accesses();
    const std::uint64_t misses = ref.llc_misses();
    for (std::size_t i = 0; i < 10'000; ++i) ref.access(ref_gen.next());
    EXPECT_EQ(sample.llc_accesses, ref.llc_accesses() - accesses);
    EXPECT_EQ(sample.llc_misses, ref.llc_misses() - misses);
  }
}

TEST(PhaseProfiler, DetectsPhaseTransition) {
  // First half quiet, second half hungry: late windows must show far more
  // intensity than early ones.
  TraceGenerator gen(two_phase_spec(), 2);
  CacheHierarchy h({level(256, 4), level(4096, 16)});
  const auto samples = profile_phases(gen, h, 60'000, 3'000);
  ASSERT_EQ(samples.size(), 20u);
  double early = 0.0, late = 0.0;
  for (std::size_t i = 2; i < 8; ++i) early += samples[i].miss_intensity();
  for (std::size_t i = 12; i < 18; ++i) late += samples[i].miss_intensity();
  EXPECT_GT(late, 10.0 * (early + 1e-9));
}

TEST(PhaseProfiler, FlatWorkloadHasLowVariability) {
  TraceSpec spec;
  spec.name = "flat";
  Phase p;
  p.working_set_lines = 1 << 14;
  p.mix = {.pointer = 1.0};
  spec.phases = {p};
  TraceGenerator gen(spec, 3);
  CacheHierarchy h({level(256, 4), level(1024, 16)});
  auto samples = profile_phases(gen, h, 60'000, 3'000);
  // Skip the warm-up window (cold misses inflate it).
  samples.erase(samples.begin(), samples.begin() + 4);
  const PhaseSummary summary = summarize_phases(samples);
  EXPECT_LT(summary.variability(), 0.1);
}

TEST(PhaseProfiler, PhasedWorkloadHasHighVariability) {
  TraceGenerator gen(two_phase_spec(), 4);
  CacheHierarchy h({level(256, 4), level(4096, 16)});
  const auto samples = profile_phases(gen, h, 60'000, 3'000);
  const PhaseSummary summary = summarize_phases(samples);
  EXPECT_GT(summary.variability(), 0.5);
}

TEST(PhaseProfiler, SummaryOfEmptyIsZero) {
  const PhaseSummary summary = summarize_phases({});
  EXPECT_EQ(summary.windows, 0u);
  EXPECT_EQ(summary.variability(), 0.0);
}

TEST(PhaseProfiler, StripRendersOneCharPerWindow) {
  TraceGenerator gen(two_phase_spec(), 5);
  CacheHierarchy h({level(256, 4), level(4096, 16)});
  const auto samples = profile_phases(gen, h, 40'000, 2'000);
  const std::string strip = render_phase_strip(samples, 80);
  EXPECT_EQ(strip.size(), samples.size());
  // The hungry half must render denser glyphs than the quiet half.
  EXPECT_NE(strip.substr(0, strip.size() / 2),
            strip.substr(strip.size() / 2));
}

TEST(PhaseProfiler, StripDownsamplesToWidth) {
  TraceGenerator gen(two_phase_spec(), 6);
  CacheHierarchy h({level(256, 4), level(4096, 16)});
  const auto samples = profile_phases(gen, h, 40'000, 1'000);
  EXPECT_EQ(render_phase_strip(samples, 10).size(), 10u);
}

TEST(PhaseProfiler, RejectsBadWindows) {
  TraceGenerator gen(two_phase_spec(), 7);
  CacheHierarchy h({level(256, 4)});
  EXPECT_THROW(profile_phases(gen, h, 1000, 0), coloc::runtime_error);
  EXPECT_THROW(profile_phases(gen, h, 100, 1000), coloc::runtime_error);
}

}  // namespace
}  // namespace coloc::sim
