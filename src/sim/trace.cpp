#include "sim/trace.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace coloc::sim {

namespace {
obs::Counter& batch_refs_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("sim_trace_batch_refs_total");
  return counter;
}
}  // namespace

TraceGenerator::TraceGenerator(TraceSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), rng_(seed) {
  COLOC_CHECK_MSG(!spec_.phases.empty(), "trace spec needs at least one phase");
  stream_cursor_.assign(spec_.phases.size(), 0);
  stride_cursor_.assign(spec_.phases.size(), 0);
  cumulative_weight_.reserve(spec_.phases.size());
  zipf_.reserve(spec_.phases.size());
  for (const Phase& p : spec_.phases) {
    COLOC_CHECK_MSG(p.weight > 0.0, "phase weight must be positive");
    COLOC_CHECK_MSG(p.working_set_lines > 0, "phase working set must be > 0");
    const double mix_total =
        p.mix.streaming + p.mix.strided + p.mix.hot_cold + p.mix.pointer;
    COLOC_CHECK_MSG(mix_total > 0.0, "phase access mix is all zero");
    total_weight_ += p.weight;
    cumulative_weight_.push_back(total_weight_);
    zipf_.emplace_back(p.working_set_lines, p.zipf_exponent);
  }
}

void TraceGenerator::set_horizon(std::size_t references) {
  COLOC_CHECK_MSG(references > 0, "horizon must be positive");
  horizon_ = references;
}

std::size_t TraceGenerator::phase_at(std::size_t offset) const {
  const double pos = static_cast<double>(offset) /
                     static_cast<double>(horizon_) * total_weight_;
  std::size_t phase = 0;
  while (phase + 1 < spec_.phases.size() && pos >= cumulative_weight_[phase])
    ++phase;
  return phase;
}

LineAddress TraceGenerator::next() {
  // Pick the phase owning the current position in the horizon.
  const std::size_t phase = phase_at(emitted_ % horizon_);
  ++emitted_;
  return sample_from_phase(phase);
}

LineAddress TraceGenerator::sample_from_phase(std::size_t phase_index) {
  const Phase& p = spec_.phases[phase_index];
  const LineAddress base =
      static_cast<LineAddress>(phase_index) * spec_.region_stride_lines;
  const double mix_total =
      p.mix.streaming + p.mix.strided + p.mix.hot_cold + p.mix.pointer;
  double pick = rng_.uniform() * mix_total;

  if ((pick -= p.mix.streaming) < 0.0) {
    // Sequential sweep through the working set; wraps, so reuse distance is
    // exactly the working-set size (classic streaming signature).
    const LineAddress a = base + (stream_cursor_[phase_index] %
                                  p.working_set_lines);
    ++stream_cursor_[phase_index];
    return a;
  }
  if ((pick -= p.mix.strided) < 0.0) {
    const std::size_t stride = p.stride == 0 ? 1 : p.stride;
    const LineAddress a =
        base + ((stride_cursor_[phase_index] * stride) % p.working_set_lines);
    ++stride_cursor_[phase_index];
    return a;
  }
  if ((pick -= p.mix.hot_cold) < 0.0) {
    return base + rng_.zipf(p.working_set_lines, p.zipf_exponent);
  }
  return base + rng_.uniform_index(p.working_set_lines);
}

void TraceGenerator::next_batch(std::span<LineAddress> out) {
  std::size_t produced = 0;
  while (produced < out.size()) {
    const std::size_t offset = emitted_ % horizon_;
    const std::size_t phase = phase_at(offset);
    // Longest run of consecutive offsets still owned by `phase`. pos is
    // monotone non-decreasing in the offset (even under rounding), so the
    // phase index is too, and an exact binary search over phase_at() finds
    // the boundary with the scalar comparison semantics.
    std::size_t run = std::min(out.size() - produced, horizon_ - offset);
    if (phase + 1 < spec_.phases.size() && run > 1) {
      std::size_t lo = 1, hi = run;  // invariant: phase_at(offset+lo-1)==phase
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo + 1) / 2;
        if (phase_at(offset + mid - 1) == phase) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      run = lo;
    }
    sample_run(phase, out.subspan(produced, run));
    emitted_ += run;
    produced += run;
  }
  if (!out.empty()) batch_refs_counter().inc(out.size());
}

void TraceGenerator::sample_run(std::size_t phase_index,
                                std::span<LineAddress> out) {
  const Phase& p = spec_.phases[phase_index];
  const LineAddress base =
      static_cast<LineAddress>(phase_index) * spec_.region_stride_lines;
  const double m_streaming = p.mix.streaming;
  const double m_strided = p.mix.strided;
  const double m_hot_cold = p.mix.hot_cold;
  const double mix_total =
      p.mix.streaming + p.mix.strided + p.mix.hot_cold + p.mix.pointer;
  const std::uint64_t ws = p.working_set_lines;
  const std::size_t stride = p.stride == 0 ? 1 : p.stride;
  ZipfSampler& zipf = zipf_[phase_index];
  std::uint64_t stream_cursor = stream_cursor_[phase_index];
  std::uint64_t stride_cursor = stride_cursor_[phase_index];

  for (LineAddress& slot : out) {
    double pick = rng_.uniform() * mix_total;
    if ((pick -= m_streaming) < 0.0) {
      slot = base + (stream_cursor % ws);
      ++stream_cursor;
    } else if ((pick -= m_strided) < 0.0) {
      slot = base + ((stride_cursor * stride) % ws);
      ++stride_cursor;
    } else if ((pick -= m_hot_cold) < 0.0) {
      slot = base + zipf(rng_);
    } else {
      slot = base + rng_.uniform_index(ws);
    }
  }

  stream_cursor_[phase_index] = stream_cursor;
  stride_cursor_[phase_index] = stride_cursor;
}

std::vector<LineAddress> TraceGenerator::generate(std::size_t n) {
  std::vector<LineAddress> trace(n);
  next_batch(trace);
  return trace;
}

}  // namespace coloc::sim
