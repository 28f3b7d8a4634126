// Mattson stack-distance (reuse-distance) profiling for LRU caches.
//
// For a fully-associative LRU cache of capacity C lines, a reference hits
// iff its stack distance (number of distinct lines touched since the last
// reference to the same line) is < C. One pass over a trace therefore
// yields the complete miss-ratio curve for *all* capacities at once —
// this is what lets the contention model evaluate thousands of co-location
// scenarios without re-simulating traces (DESIGN.md §5.1).
//
// Implementation: a marker bitmap over reference timestamps. Each distinct
// line keeps exactly one set bit at its latest access position, so the
// distance of a reuse at time `now` whose previous access was `prev` is
//   distinct_lines_seen - popcount(bits[0..prev])
// (every other line's marker sits strictly below `now`; the markers at or
// below `prev` are exactly the lines NOT touched inside the reuse window,
// plus the line itself). A two-level count index (u16 per 512-bit block,
// u32 per 128-block superblock) answers the prefix query with fixed-width
// masked sums: all superblock counts, the 128 block counts of prev's
// superblock and the 8 words of prev's block, with no loop whose trip
// count depends on `prev`, so the query neither branches on the data nor
// chases the classic Fenwick tree's ~20 random probes. record_batch runs
// each chunk of up to 4096 references in three passes: the last-access
// map in reference order (prefetching slots ahead), the marker walk in one
// vectorized kernel, then the histogram. Distances are exact integers, so
// results are bit-identical to the Fenwick formulation (kept below as
// FenwickTree, the tests' oracle).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sim/trace.hpp"

namespace coloc::sim {

/// Binary indexed tree over reference timestamps; supports point update and
/// prefix sum in O(log n). No longer on the profiling hot path — retained
/// as the reference formulation the tests check the profiler against.
class FenwickTree {
 public:
  explicit FenwickTree(std::size_t n) : tree_(n + 1, 0) {}

  void add(std::size_t index, std::int64_t delta);
  /// Sum of entries [0, index].
  std::int64_t prefix_sum(std::size_t index) const;
  /// Sum of entries [lo, hi].
  std::int64_t range_sum(std::size_t lo, std::size_t hi) const;
  std::size_t size() const { return tree_.size() - 1; }

 private:
  std::vector<std::int64_t> tree_;
};

namespace detail {

/// Blocks of at least this many bytes (glibc's default mmap threshold) get
/// their own page mapping; smaller ones come from operator new.
inline constexpr std::size_t kMinMappedBytes = std::size_t{128} << 10;
void* allocate_mapped(std::size_t bytes);
void release_mapped(void* p, std::size_t bytes) noexcept;

/// Allocator for the profiler's arrays. A large block is mapped and
/// unmapped directly instead of coming from malloc: freeing a malloc block
/// that large raises glibc's dynamic mmap threshold to its size, after
/// which every later array below it comes from the brk heap and stays
/// resident once freed.
template <typename T>
struct MappedAllocator {
  using value_type = T;
  MappedAllocator() = default;
  template <typename U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(allocate_mapped(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    release_mapped(p, n * sizeof(T));
  }
  friend bool operator==(const MappedAllocator&, const MappedAllocator&) {
    return true;
  }
};

template <typename T>
using MappedVector = std::vector<T, MappedAllocator<T>>;

}  // namespace detail

/// Marker for a cold (first-touch) reference.
inline constexpr std::uint64_t kColdMiss =
    std::numeric_limits<std::uint64_t>::max();

/// Streaming reuse-distance profiler.
class StackDistanceProfiler {
 public:
  /// `max_references` bounds the number of record() calls (bitmap size).
  /// A non-zero `max_distinct_lines` bounds the distinct lines the trace
  /// touches: the last-access map and the histogram are then allocated at
  /// their full size here, so no rehash or histogram reallocation holds
  /// two copies mid-profile and the footprint is the same on every run. A
  /// trace that passes the bound still profiles correctly (both grow).
  explicit StackDistanceProfiler(std::size_t max_references,
                                 std::size_t max_distinct_lines = 0);

  /// Records one reference (a one-element batch); returns its stack
  /// distance in distinct lines, or kColdMiss for a first touch.
  std::uint64_t record(LineAddress line);

  /// Records a whole span; identical to calling record() per element. A
  /// span that would pass the capacity, or that holds the reserved
  /// address ~0, throws before anything is recorded.
  void record_batch(std::span<const LineAddress> lines);

  std::uint64_t references() const { return time_; }
  std::uint64_t cold_misses() const { return cold_; }

  /// Histogram of observed stack distances: bucket d counts references with
  /// distance exactly d (cold misses are counted separately). A distance is
  /// below the distinct lines seen, so the histogram is never longer than
  /// the last-access map.
  std::span<const std::uint64_t> histogram() const { return histogram_; }

 private:
  /// Throws unless `lines` fits the capacity left and avoids ~0.
  void check_batch(std::span<const LineAddress> lines) const;
  /// Records up to 4096 checked references; `dist` (one entry per line)
  /// is scratch that ends holding each distance, ~0u for a first touch.
  void record_chunk(std::span<const LineAddress> lines, std::uint32_t* dist);
  /// Pass 1: moves each line's last-access slot to its new position in
  /// reference order, storing the old one (~0u if absent) in `prev`.
  void update_map(std::span<const LineAddress> lines, std::uint32_t* prev);
  void grow_map();

  static constexpr LineAddress kEmptySlot = ~LineAddress{0};

  std::size_t capacity_ = 0;              // max record() calls
  // One marker bit per timestamp, with the popcount per 512-bit block and
  // per 128-block superblock; each padded for the fixed-width prefix sums.
  detail::MappedVector<std::uint64_t> bits_;
  detail::MappedVector<std::uint16_t> block_count_;
  detail::MappedVector<std::uint32_t> super_count_;
  // Open-addressing last-access map (power-of-two, linear probing): flat
  // key/position arrays, whose slots pass 1 prefetches a fixed distance
  // ahead, instead of chasing std::unordered_map nodes.
  detail::MappedVector<LineAddress> map_keys_;
  detail::MappedVector<std::uint32_t> map_pos_;
  std::size_t map_mask_ = 0;
  std::size_t map_used_ = 0;
  detail::MappedVector<std::uint64_t> histogram_;
  std::uint64_t time_ = 0;
  std::uint64_t cold_ = 0;
};

/// One-shot helper: profiles a whole trace.
StackDistanceProfiler profile_trace(std::span<const LineAddress> trace);

/// Brute-force stack distance for verification in tests: a hash map of
/// last-access positions plus a hash-set distinct count over each reuse
/// window — O(n * w) for window width w, versus the profiler's O(n) with
/// fixed-width prefix sums.
std::vector<std::uint64_t> brute_force_stack_distances(
    std::span<const LineAddress> trace);

}  // namespace coloc::sim
