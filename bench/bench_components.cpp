// Component microbenchmarks (google-benchmark): throughput of the
// substrate pieces that every experiment leans on — trace generation,
// cache simulation, stack-distance profiling, contention solving, QR
// least squares, and one SCG training epoch.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>

#include "common/rng.hpp"
#include "obs/session.hpp"
#include "linalg/qr.hpp"
#include "ml/mlp.hpp"
#include "sim/cache.hpp"
#include "sim/contention.hpp"
#include "sim/stack_distance.hpp"
#include "sim/trace.hpp"

namespace {

using namespace coloc;

sim::TraceSpec mixed_spec(std::size_t ws) {
  sim::TraceSpec spec;
  spec.name = "bench";
  sim::Phase p;
  p.working_set_lines = ws;
  p.mix = {.streaming = 0.3, .strided = 0.2, .hot_cold = 0.4,
           .pointer = 0.1};
  spec.phases = {p};
  return spec;
}

void BM_TraceGeneration(benchmark::State& state) {
  sim::TraceGenerator gen(mixed_spec(1 << 16), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void BM_CacheAccess(benchmark::State& state) {
  sim::CacheConfig config;
  config.size_bytes = static_cast<std::size_t>(state.range(0)) << 10;
  config.line_bytes = 64;
  config.associativity = 16;
  sim::Cache cache(config);
  sim::TraceGenerator gen(mixed_spec(1 << 16), 2);
  const auto trace = gen.generate(1 << 16);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(trace[i++ & 0xFFFF]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(256)->Arg(2048)->Arg(12288);

// Fed in 4,096-reference record_batch chunks, as AppMrcLibrary::profile_one
// feeds the profiler.
void BM_StackDistanceProfiling(benchmark::State& state) {
  const std::size_t n = 1 << 16;
  const std::size_t chunk = 4096;
  sim::TraceGenerator gen(mixed_spec(1 << 14), 3);
  const auto trace = gen.generate(n);
  for (auto _ : state) {
    sim::StackDistanceProfiler profiler(n);
    for (std::size_t done = 0; done < n; done += chunk) {
      profiler.record_batch(std::span<const sim::LineAddress>(
          trace.data() + done, std::min(chunk, n - done)));
    }
    benchmark::DoNotOptimize(profiler.cold_misses());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StackDistanceProfiling);

void BM_MrcQuery(benchmark::State& state) {
  sim::TraceGenerator gen(mixed_spec(1 << 14), 4);
  const auto trace = gen.generate(1 << 16);
  sim::StackDistanceProfiler profiler(trace.size());
  for (auto a : trace) profiler.record(a);
  const sim::MissRatioCurve curve =
      sim::MissRatioCurve::from_profiler(profiler);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.miss_ratio(rng.uniform(1.0, 20000.0)));
  }
}
BENCHMARK(BM_MrcQuery);

void BM_ContentionSolve(benchmark::State& state) {
  const std::size_t napps = static_cast<std::size_t>(state.range(0));
  sim::ApplicationSpec spec;
  spec.name = "a";
  spec.refs_per_instruction = 0.02;
  spec.compulsory_misses_per_instruction = 1e-3;
  const sim::MissRatioCurve mrc = sim::MissRatioCurve::from_points(
      {1000, 10000, 100000, 1000000}, {0.9, 0.5, 0.2, 0.05});
  std::vector<sim::ScheduledApp> apps(napps,
                                      sim::ScheduledApp{&spec, &mrc});
  const sim::MachineConfig machine = sim::xeon_e5_2697v2();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::solve_contention(machine, 2.7, apps));
  }
}
BENCHMARK(BM_ContentionSolve)->Arg(2)->Arg(6)->Arg(12);

void BM_QrLeastSquares(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  linalg::Matrix a(rows, 9);
  std::vector<double> b(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < 9; ++c) a(r, c) = rng.normal();
    b[r] = rng.normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::least_squares(a, b));
  }
}
BENCHMARK(BM_QrLeastSquares)->Arg(256)->Arg(1024)->Arg(4096);

// One MlpRegressor::fit at a fixed SCG budget: a zero gradient tolerance
// never stops early, so every fit runs kIterations iterations. Items are
// rows x SCG iterations.
void BM_MlpGradient(benchmark::State& state) {
  constexpr std::size_t kIterations = 25;
  Rng rng(7);
  const std::size_t rows = 1024;
  linalg::Matrix x(rows, 8);
  std::vector<double> y(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < 8; ++c) x(r, c) = rng.normal();
    y[r] = rng.normal();
  }
  ml::MlpOptions options;
  options.hidden_units = 20;
  options.max_iterations = kIterations;
  options.gradient_tolerance = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::MlpRegressor::fit(x, y, options));
  }
  state.SetItemsProcessed(state.iterations() * rows * kIterations);
}
BENCHMARK(BM_MlpGradient);

}  // namespace

// Expanded BENCHMARK_MAIN so the run also emits the standard cost line
// (total wall time + peak RSS) that BENCH_* trajectories track.
int main(int argc, char** argv) {
  obs::ObsOptions obs_options;
  obs_options.report_resources = true;
  obs_options.label = "bench_components";
  const obs::ObsSession session(obs_options);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
