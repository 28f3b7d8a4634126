// Synthetic memory-address trace generation.
//
// Real PARSEC/NAS binaries are not available in this environment, so each
// benchmark application is represented by a phased synthetic access pattern
// (DESIGN.md, substitution table). A pattern mixes four archetypes whose
// blend controls the reuse-distance profile — and therefore the miss-ratio
// curve the contention model consumes:
//   - streaming:   sequential lines, no temporal reuse (cg-like sweeps)
//   - strided:     fixed stride walks (structured-grid codes like sp/mg)
//   - hot/cold:    Zipf-distributed reuse over a working set (canneal-like)
//   - pointer:     uniform random lines in a region (graph/pointer chasing)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace coloc::sim {

/// Cache-line granular address (the unit the cache models operate on).
using LineAddress = std::uint64_t;

/// Mixing weights for the four access archetypes; they need not sum to 1,
/// they are normalized internally. All zero is invalid.
struct AccessMix {
  double streaming = 0.0;
  double strided = 0.0;
  double hot_cold = 0.0;
  double pointer = 0.0;
};

/// One execution phase: a working-set size (in lines), an access mix and a
/// relative weight (fraction of the app's references spent in this phase).
struct Phase {
  std::size_t working_set_lines = 1 << 14;
  AccessMix mix;
  double weight = 1.0;
  /// Zipf skew for the hot/cold archetype (higher = tighter reuse).
  double zipf_exponent = 0.8;
  /// Stride (in lines) for the strided archetype.
  std::size_t stride = 4;
};

/// Full behavioural spec of an application's memory reference stream.
struct TraceSpec {
  std::string name;
  std::vector<Phase> phases;
  /// Distinct address regions per phase avoid accidental sharing between
  /// phases; each phase p uses base = p * region_stride_lines.
  std::size_t region_stride_lines = 1ULL << 26;
};

/// Generates reproducible synthetic traces from a spec.
class TraceGenerator {
 public:
  TraceGenerator(TraceSpec spec, std::uint64_t seed);

  /// Produces the next line address. Phases are visited in order, each for
  /// its weight share of the requested horizon (set via set_horizon), then
  /// the schedule wraps — matching the paper's observation [SaS13] that
  /// memory behaviour is phased across execution.
  LineAddress next();

  /// Fills `out` with the next out.size() addresses — bit-identical to
  /// calling next() that many times, but the horizon is cut into per-phase
  /// runs first (binary search on the exact scalar phase-selection
  /// arithmetic), so the phase divide/scan and every per-phase constant
  /// (region base, mix weights, cursors) are hoisted out of the
  /// per-reference path, and hot/cold draws go through the phase's
  /// ZipfSampler, whose acceptance-bound table next()'s one-shot
  /// Rng::zipf does without. RNG draws happen in the identical order.
  void next_batch(std::span<LineAddress> out);

  /// Declares how many references constitute one "execution" so phase
  /// boundaries land proportionally. Defaults to 1M.
  void set_horizon(std::size_t references);

  /// Convenience: materializes a trace of n references (via next_batch).
  std::vector<LineAddress> generate(std::size_t n);

  const TraceSpec& spec() const { return spec_; }

 private:
  LineAddress sample_from_phase(std::size_t phase_index);
  /// The scalar phase-selection rule for horizon offset `offset` — the
  /// exact double arithmetic next() uses, shared so run segmentation can
  /// never disagree with the per-reference path.
  std::size_t phase_at(std::size_t offset) const;
  /// Emits `out.size()` references from one phase with hoisted constants.
  void sample_run(std::size_t phase_index, std::span<LineAddress> out);

  TraceSpec spec_;
  Rng rng_;
  std::size_t horizon_ = 1'000'000;
  std::size_t emitted_ = 0;
  // Per-phase archetype state.
  std::vector<std::uint64_t> stream_cursor_;
  std::vector<std::uint64_t> stride_cursor_;
  std::vector<double> cumulative_weight_;
  double total_weight_ = 0.0;
  // One hot/cold sampler per phase, owned by this generator alone (its
  // bound table is filled without locking).
  std::vector<ZipfSampler> zipf_;
};

}  // namespace coloc::sim
