#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/app_model.hpp"

namespace coloc::sim {
namespace {

TraceSpec single_phase(AccessMix mix, std::size_t ws = 1024) {
  TraceSpec spec;
  spec.name = "test";
  Phase p;
  p.working_set_lines = ws;
  p.mix = mix;
  spec.phases = {p};
  return spec;
}

TEST(Trace, DeterministicForSameSeed) {
  TraceGenerator a(single_phase({.hot_cold = 1.0}), 1);
  TraceGenerator b(single_phase({.hot_cold = 1.0}), 1);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Trace, StaysWithinWorkingSet) {
  TraceGenerator gen(single_phase({.streaming = 1.0, .hot_cold = 1.0,
                                   .pointer = 1.0},
                                  512),
                     2);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(gen.next(), 512u);
}

TEST(Trace, StreamingIsSequential) {
  TraceGenerator gen(single_phase({.streaming = 1.0}, 100), 3);
  for (std::uint64_t i = 0; i < 250; ++i) {
    EXPECT_EQ(gen.next(), i % 100);
  }
}

TEST(Trace, StridedAdvancesByStride) {
  TraceSpec spec = single_phase({.strided = 1.0}, 100);
  spec.phases[0].stride = 7;
  TraceGenerator gen(spec, 4);
  EXPECT_EQ(gen.next(), 0u);
  EXPECT_EQ(gen.next(), 7u);
  EXPECT_EQ(gen.next(), 14u);
}

TEST(Trace, ZeroStrideTreatedAsOne) {
  TraceSpec spec = single_phase({.strided = 1.0}, 10);
  spec.phases[0].stride = 0;
  TraceGenerator gen(spec, 5);
  EXPECT_EQ(gen.next(), 0u);
  EXPECT_EQ(gen.next(), 1u);
}

TEST(Trace, HotColdPrefersLowAddresses) {
  TraceSpec spec = single_phase({.hot_cold = 1.0}, 10000);
  spec.phases[0].zipf_exponent = 1.2;
  TraceGenerator gen(spec, 6);
  std::size_t low = 0;
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    if (gen.next() < 100) ++low;
  }
  EXPECT_GT(low, n / 4);
}

TEST(Trace, PointerCoversWorkingSet) {
  TraceGenerator gen(single_phase({.pointer = 1.0}, 64), 7);
  std::set<LineAddress> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(gen.next());
  EXPECT_EQ(seen.size(), 64u);
}

TEST(Trace, PhasesUseDistinctRegions) {
  TraceSpec spec;
  spec.name = "two-phase";
  Phase a, b;
  a.working_set_lines = 16;
  a.mix = {.streaming = 1.0};
  a.weight = 0.5;
  b.working_set_lines = 16;
  b.mix = {.streaming = 1.0};
  b.weight = 0.5;
  spec.phases = {a, b};
  TraceGenerator gen(spec, 8);
  gen.set_horizon(1000);
  std::set<LineAddress> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(gen.next());
  // Second phase lives at region_stride_lines offset: two distinct blocks.
  bool low_block = false, high_block = false;
  for (auto addr : seen) {
    if (addr < 16) low_block = true;
    if (addr >= spec.region_stride_lines) high_block = true;
  }
  EXPECT_TRUE(low_block);
  EXPECT_TRUE(high_block);
}

TEST(Trace, PhaseWeightsControlShare) {
  TraceSpec spec;
  Phase a, b;
  a.working_set_lines = 8;
  a.mix = {.streaming = 1.0};
  a.weight = 3.0;
  b.working_set_lines = 8;
  b.mix = {.streaming = 1.0};
  b.weight = 1.0;
  spec.phases = {a, b};
  TraceGenerator gen(spec, 9);
  gen.set_horizon(1000);
  std::size_t phase_a = 0;
  for (int i = 0; i < 1000; ++i) {
    if (gen.next() < spec.region_stride_lines) ++phase_a;
  }
  EXPECT_NEAR(static_cast<double>(phase_a), 750.0, 5.0);
}

TEST(Trace, GenerateProducesRequestedLength) {
  TraceGenerator gen(single_phase({.pointer = 1.0}), 10);
  EXPECT_EQ(gen.generate(123).size(), 123u);
}

TEST(Trace, EmptySpecRejected) {
  TraceSpec spec;
  spec.name = "empty";
  EXPECT_THROW(TraceGenerator(spec, 1), coloc::runtime_error);
}

TEST(Trace, AllZeroMixRejected) {
  TraceSpec spec = single_phase({});
  EXPECT_THROW(TraceGenerator(spec, 1), coloc::runtime_error);
}

TEST(Trace, NonpositiveWeightRejected) {
  TraceSpec spec = single_phase({.streaming = 1.0});
  spec.phases[0].weight = 0.0;
  EXPECT_THROW(TraceGenerator(spec, 1), coloc::runtime_error);
}

// --- next_batch() must replay the per-reference next() stream exactly:
// same addresses, same RNG consumption, across every archetype, phase
// boundary, horizon wrap, and chunking.

TEST(TraceBatch, MatchesScalarForEachArchetype) {
  const AccessMix mixes[] = {{.streaming = 1.0},
                             {.strided = 1.0},
                             {.hot_cold = 1.0},
                             {.pointer = 1.0}};
  for (const AccessMix& mix : mixes) {
    TraceGenerator scalar(single_phase(mix, 512), 21);
    TraceGenerator batched(single_phase(mix, 512), 21);
    std::vector<LineAddress> out(2000);
    batched.next_batch(out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(scalar.next(), out[i]) << "at index " << i;
    }
  }

  // canneal's real spec mixes three archetypes over 786,432 lines, so its
  // hot/cold draws reach Zipf ranks past the per-phase sampler's table,
  // which next() never uses.
  const ApplicationSpec canneal = find_application("canneal");
  ASSERT_GT(canneal.trace.phases.front().working_set_lines,
            ZipfSampler::kCachedRanks);
  TraceGenerator scalar(canneal.trace, 99);
  TraceGenerator batched(canneal.trace, 99);
  const std::vector<LineAddress> out = batched.generate(200'000);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(scalar.next(), out[i]) << "canneal at index " << i;
  }
}

TraceSpec three_phase_spec() {
  TraceSpec spec;
  spec.name = "three-phase";
  Phase a, b, c;
  a.working_set_lines = 64;
  a.mix = {.streaming = 1.0};
  a.weight = 1.0;
  b.working_set_lines = 128;
  b.mix = {.hot_cold = 0.6, .pointer = 0.4};
  b.weight = 2.0;
  c.working_set_lines = 32;
  c.mix = {.streaming = 0.5, .strided = 0.5};
  c.stride = 5;
  c.weight = 0.7;
  spec.phases = {a, b, c};
  return spec;
}

TEST(TraceBatch, MatchesScalarAcrossPhaseBoundariesAndWrap) {
  TraceGenerator scalar(three_phase_spec(), 33);
  TraceGenerator batched(three_phase_spec(), 33);
  // A 100-reference horizon with 350 requested references crosses every
  // phase boundary and wraps the schedule three times inside one batch.
  scalar.set_horizon(100);
  batched.set_horizon(100);
  std::vector<LineAddress> out(350);
  batched.next_batch(out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(scalar.next(), out[i]) << "at index " << i;
  }
}

TEST(TraceBatch, OddChunkSizesReplayIdentically) {
  TraceGenerator scalar(three_phase_spec(), 55);
  TraceGenerator batched(three_phase_spec(), 55);
  scalar.set_horizon(500);
  batched.set_horizon(500);
  // Mixed chunk sizes — including 1 and sizes straddling phase runs — must
  // stitch together into the same stream as the scalar walk.
  const std::size_t chunks[] = {1, 7, 13, 64, 3, 1, 256, 97, 500, 11};
  for (const std::size_t len : chunks) {
    std::vector<LineAddress> out(len);
    batched.next_batch(out);
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(scalar.next(), out[i]) << "chunk " << len << " index " << i;
    }
  }
}

TEST(TraceBatch, EmptyBatchIsANoOp) {
  TraceGenerator scalar(three_phase_spec(), 66);
  TraceGenerator batched(three_phase_spec(), 66);
  batched.next_batch({});
  std::vector<LineAddress> out(50);
  batched.next_batch(out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(scalar.next(), out[i]);
  }
}

}  // namespace
}  // namespace coloc::sim
