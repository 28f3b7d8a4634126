#include "sim/app_model.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <mutex>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/profile_memo.hpp"
#include "sim/stack_distance.hpp"

namespace coloc::sim {

std::string to_string(MemoryClass c) {
  switch (c) {
    case MemoryClass::kClassI: return "Class I";
    case MemoryClass::kClassII: return "Class II";
    case MemoryClass::kClassIII: return "Class III";
    case MemoryClass::kClassIV: return "Class IV";
  }
  return "Class ?";
}

std::string to_string(Suite s) {
  return s == Suite::kParsec ? "P" : "N";
}

std::size_t ApplicationSpec::suggested_profile_length() const {
  if (profile_references > 0) return profile_references;
  std::size_t max_ws = 1;
  for (const Phase& p : trace.phases)
    max_ws = std::max(max_ws, p.working_set_lines);
  // Three sweeps of the largest working set give the reuse tail enough
  // samples; floor at 1.5M references so small apps still converge.
  return std::max<std::size_t>(1'500'000, 3 * max_ws);
}

namespace {

Phase make_phase(std::size_t ws_lines, AccessMix mix, double weight,
                 double zipf = 0.8, std::size_t stride = 4) {
  Phase p;
  p.working_set_lines = ws_lines;
  p.mix = mix;
  p.weight = weight;
  p.zipf_exponent = zipf;
  p.stride = stride;
  return p;
}

ApplicationSpec make_app(std::string name, Suite suite, MemoryClass cls,
                         double instructions, double cpi_base, double rpi,
                         double mlp, double compulsory,
                         std::vector<Phase> phases) {
  ApplicationSpec a;
  a.name = name;
  a.suite = suite;
  a.memory_class = cls;
  a.instructions = instructions;
  a.cpi_base = cpi_base;
  a.refs_per_instruction = rpi;
  a.mlp = mlp;
  a.compulsory_misses_per_instruction = compulsory;
  a.trace.name = std::move(name);
  a.trace.phases = std::move(phases);
  return a;
}

}  // namespace

std::vector<ApplicationSpec> benchmark_suite() {
  std::vector<ApplicationSpec> apps;
  const std::size_t kLine = 64;  // bytes per cache line
  auto mb = [kLine](double megabytes) {
    return static_cast<std::size_t>(megabytes * 1024.0 * 1024.0 /
                                    static_cast<double>(kLine));
  };

  // refs_per_instruction below counts references that miss the L1 cache
  // (the trace models the post-L1 stream), so values sit in the 0.01-0.05
  // range — matching the last-level access rates real Xeons report.

  // ---- Class I: memory-bound, working sets far beyond any LLC. ----------
  // cg (NAS conjugate gradient): sparse mat-vec — irregular pointer access
  // over a large structure plus streaming vectors.
  apps.push_back(make_app(
      "cg", Suite::kNas, MemoryClass::kClassI,
      /*instructions=*/420e9, /*cpi_base=*/0.70, /*rpi=*/0.014, /*mlp=*/4.5,
      /*compulsory=*/1.0e-2,
      {make_phase(mb(64), {.streaming = 0.30, .hot_cold = 0.40,
                           .pointer = 0.30},
                  1.0, 0.75)}));
  // canneal (PARSEC): simulated annealing over a huge netlist — pointer
  // chasing with a skewed hot set.
  apps.push_back(make_app(
      "canneal", Suite::kParsec, MemoryClass::kClassI,
      /*instructions=*/360e9, /*cpi_base=*/0.85, /*rpi=*/0.012, /*mlp=*/4.0,
      /*compulsory=*/8e-3,
      {make_phase(mb(48), {.streaming = 0.10, .hot_cold = 0.55,
                           .pointer = 0.35},
                  1.0, 0.85)}));
  // mg (NAS multigrid): strided stencil sweeps over grids of varying size.
  apps.push_back(make_app(
      "mg", Suite::kNas, MemoryClass::kClassI,
      /*instructions=*/480e9, /*cpi_base=*/0.65, /*rpi=*/0.013, /*mlp=*/5.0,
      /*compulsory=*/9e-3,
      {make_phase(mb(64), {.streaming = 0.45, .strided = 0.35,
                           .hot_cold = 0.20},
                  0.7, 0.7, 8),
       make_phase(mb(10), {.strided = 0.60, .hot_cold = 0.40}, 0.3, 0.8,
                  4)}));

  // ---- Class II: working sets around the LLC size; a small streaming ----
  // ---- phase gives a machine-independent baseline intensity while the ----
  // ---- main phase makes them capacity-sensitive when squeezed. ----------
  // sp (NAS scalar pentadiagonal): line sweeps with moderate reuse.
  apps.push_back(make_app(
      "sp", Suite::kNas, MemoryClass::kClassII,
      /*instructions=*/520e9, /*cpi_base=*/0.75, /*rpi=*/0.022, /*mlp=*/3.0,
      /*compulsory=*/8.5e-4,
      {make_phase(mb(9), {.strided = 0.45, .hot_cold = 0.45,
                          .pointer = 0.10},
                  1.0, 0.85, 6)}));
  // streamcluster (PARSEC): repeated distance scans over a point set.
  apps.push_back(make_app(
      "streamcluster", Suite::kParsec, MemoryClass::kClassII,
      /*instructions=*/450e9, /*cpi_base=*/0.72, /*rpi=*/0.024, /*mlp=*/3.2,
      /*compulsory=*/1.1e-3,
      {make_phase(mb(8), {.streaming = 0.40, .hot_cold = 0.60}, 1.0,
                  0.9)}));
  // ft (NAS FFT): butterfly strides across a transform-sized buffer.
  apps.push_back(make_app(
      "ft", Suite::kNas, MemoryClass::kClassII,
      /*instructions=*/400e9, /*cpi_base=*/0.68, /*rpi=*/0.020, /*mlp=*/3.0,
      /*compulsory=*/6.5e-4,
      {make_phase(mb(10), {.strided = 0.65, .hot_cold = 0.35}, 1.0, 0.8,
                  16)}));

  // ---- Class III: fit in the LLC but not in the private caches. ---------
  // fluidanimate (PARSEC): particle grid with strong locality.
  apps.push_back(make_app(
      "fluidanimate", Suite::kParsec, MemoryClass::kClassIII,
      /*instructions=*/560e9, /*cpi_base=*/0.80, /*rpi=*/0.016, /*mlp=*/2.0,
      /*compulsory=*/5.5e-5,
      {make_phase(mb(3.0), {.strided = 0.30, .hot_cold = 0.70}, 1.0,
                  0.9)}));
  // bodytrack (PARSEC): image-pyramid processing, small hot structures.
  apps.push_back(make_app(
      "bodytrack", Suite::kParsec, MemoryClass::kClassIII,
      /*instructions=*/380e9, /*cpi_base=*/0.90, /*rpi=*/0.014, /*mlp=*/1.8,
      /*compulsory=*/4e-5,
      {make_phase(mb(2.0), {.hot_cold = 0.80, .pointer = 0.20}, 0.8, 0.95),
       make_phase(mb(5.0), {.strided = 0.60, .hot_cold = 0.40}, 0.2, 0.8,
                  8)}));

  // ---- Class IV: CPU-bound, working sets near the private capacity. -----
  // ep (NAS embarrassingly parallel): random-number kernels, tiny state.
  apps.push_back(make_app(
      "ep", Suite::kNas, MemoryClass::kClassIV,
      /*instructions=*/650e9, /*cpi_base=*/0.60, /*rpi=*/0.015, /*mlp=*/1.5,
      /*compulsory=*/5e-7,
      {make_phase(6144, {.hot_cold = 1.0}, 1.0, 0.7)}));
  // swaptions (PARSEC): Monte-Carlo pricing, register/L1 resident.
  apps.push_back(make_app(
      "swaptions", Suite::kParsec, MemoryClass::kClassIV,
      /*instructions=*/540e9, /*cpi_base=*/0.65, /*rpi=*/0.018, /*mlp=*/1.5,
      /*compulsory=*/6e-7,
      {make_phase(5120, {.strided = 0.1, .hot_cold = 0.9}, 1.0, 0.8)}));
  // blackscholes (PARSEC): option batch sweeps, slightly larger footprint.
  apps.push_back(make_app(
      "blackscholes", Suite::kParsec, MemoryClass::kClassIV,
      /*instructions=*/500e9, /*cpi_base=*/0.62, /*rpi=*/0.017, /*mlp=*/2.0,
      /*compulsory=*/8e-7,
      {make_phase(8192, {.streaming = 0.5, .hot_cold = 0.5}, 1.0, 0.8)}));

  return apps;
}

std::vector<std::string> training_coapp_names() {
  return {"cg", "sp", "fluidanimate", "ep"};
}

ApplicationSpec find_application(const std::string& name) {
  for (auto& app : benchmark_suite()) {
    if (app.name == name) return app;
  }
  throw coloc::invalid_argument_error("unknown application: " + name);
}

void AppMrcLibrary::profile_all(const std::vector<ApplicationSpec>& apps,
                                std::uint64_t seed) {
  std::vector<const ApplicationSpec*> missing;
  for (const auto& app : apps) {
    if (!curves_.count(app.name)) missing.push_back(&app);
  }
  if (missing.empty()) return;
  std::vector<MissRatioCurve> results(missing.size());
  parallel_for(
      global_pool(), missing.size(),
      [&](std::size_t i) {
        results[i] = profile_one(*missing[i],
                                 seed ^ (0x9e37ULL * (i + 1)));
      },
      1);
  for (std::size_t i = 0; i < missing.size(); ++i)
    curves_[missing[i]->name] = std::move(results[i]);
}

const MissRatioCurve& AppMrcLibrary::curve(const ApplicationSpec& app) {
  auto it = curves_.find(app.name);
  if (it == curves_.end()) {
    it = curves_.emplace(app.name, profile_one(app, 2024)).first;
  }
  return it->second;
}

MissRatioCurve AppMrcLibrary::profile_one(const ApplicationSpec& app,
                                          std::uint64_t seed) const {
  const std::size_t n = app.suggested_profile_length();

  // The curve is a pure function of (trace shape, seed, horizon); the
  // process-wide memo dedups the repeated profiling jobs sweep campaigns
  // issue (every arm builds its own AppMrcLibrary).
  std::string memo_key = ProfileMemo::key(app.trace, seed, n);
  if (auto cached = ProfileMemo::global().lookup(memo_key)) {
    return *std::move(cached);
  }

  const auto profile_start = std::chrono::steady_clock::now();
  TraceGenerator gen(app.trace, seed);
  gen.set_horizon(n);
  // Phase p draws its lines from [p * region_stride, + working set), so
  // the working sets bound the distinct lines and the profiler allocates
  // its whole footprint up front.
  std::size_t distinct_bound = 0;
  for (const Phase& p : app.trace.phases) distinct_bound += p.working_set_lines;
  StackDistanceProfiler profiler(n, distinct_bound);
  // Batched pipeline: generate a chunk, then profile it — both kernels run
  // over contiguous buffers instead of interleaving one reference at a
  // time. Bit-identical to the scalar next()/record() loop.
  std::array<LineAddress, 4096> chunk;
  for (std::size_t done = 0; done < n; done += chunk.size()) {
    const std::size_t len = std::min(chunk.size(), n - done);
    const std::span<LineAddress> window(chunk.data(), len);
    gen.next_batch(window);
    profiler.record_batch(window);
  }
  MissRatioCurve curve = MissRatioCurve::from_profiler(profiler);
  obs::Registry::global()
      .histogram("trace_profile_seconds")
      .observe(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             profile_start)
                   .count());
  return ProfileMemo::global().store(std::move(memo_key), std::move(curve));
}

}  // namespace coloc::sim
