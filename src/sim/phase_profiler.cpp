#include "sim/phase_profiler.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace coloc::sim {

std::vector<PhaseSample> profile_phases(TraceGenerator& generator,
                                        CacheHierarchy& hierarchy,
                                        std::size_t total_references,
                                        std::size_t window_references) {
  COLOC_CHECK_MSG(window_references > 0, "window size must be positive");
  COLOC_CHECK_MSG(total_references >= window_references,
                  "trace shorter than one window");
  generator.set_horizon(total_references);

  const std::size_t llc = hierarchy.num_levels() - 1;
  std::vector<PhaseSample> samples;
  samples.reserve(total_references / window_references);

  std::uint64_t prev_accesses = hierarchy.level(llc).stats().accesses;
  std::uint64_t prev_misses = hierarchy.level(llc).stats().misses;

  // Each window streams through a chunk buffer: next_batch and
  // access_batch replay the per-reference walk bit for bit at any chunk
  // size, so window boundaries see the same counters.
  std::array<LineAddress, 4096> chunk{};
  std::size_t emitted = 0;
  std::uint64_t window = 0;
  while (emitted + window_references <= total_references) {
    for (std::size_t done = 0; done < window_references;
         done += chunk.size()) {
      const std::span<LineAddress> lines(
          chunk.data(), std::min(chunk.size(), window_references - done));
      generator.next_batch(lines);
      hierarchy.access_batch(lines);
    }
    emitted += window_references;
    const std::uint64_t accesses = hierarchy.level(llc).stats().accesses;
    const std::uint64_t misses = hierarchy.level(llc).stats().misses;
    PhaseSample sample;
    sample.window_index = window++;
    sample.references = window_references;
    sample.llc_accesses = accesses - prev_accesses;
    sample.llc_misses = misses - prev_misses;
    prev_accesses = accesses;
    prev_misses = misses;
    samples.push_back(sample);
  }
  return samples;
}

PhaseSummary summarize_phases(const std::vector<PhaseSample>& samples) {
  PhaseSummary summary;
  summary.windows = samples.size();
  if (samples.empty()) return summary;
  RunningStats rs;
  for (const auto& s : samples) rs.add(s.miss_intensity());
  summary.mean_miss_intensity = rs.mean();
  summary.stddev_miss_intensity = rs.stddev();
  summary.min_miss_intensity = rs.min();
  summary.max_miss_intensity = rs.max();
  return summary;
}

std::string render_phase_strip(const std::vector<PhaseSample>& samples,
                               std::size_t max_width) {
  if (samples.empty() || max_width == 0) return "";
  // Downsample to max_width buckets by averaging.
  const std::size_t width = std::min(max_width, samples.size());
  std::vector<double> buckets(width, 0.0);
  std::vector<std::size_t> counts(width, 0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::size_t b = i * width / samples.size();
    buckets[b] += samples[i].miss_intensity();
    ++counts[b];
  }
  double peak = 0.0;
  for (std::size_t b = 0; b < width; ++b) {
    buckets[b] /= static_cast<double>(std::max<std::size_t>(1, counts[b]));
    peak = std::max(peak, buckets[b]);
  }
  static const char kTiers[] = {' ', '.', ':', '-', '=', '+', '*', '#'};
  std::string strip;
  strip.reserve(width);
  for (double v : buckets) {
    const std::size_t tier =
        peak > 0.0 ? std::min<std::size_t>(
                         7, static_cast<std::size_t>(v / peak * 7.999))
                   : 0;
    strip += kTiers[tier];
  }
  return strip;
}

}  // namespace coloc::sim
