#include "sim/stack_distance.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <bit>
#include <new>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "common/memo.hpp"
#include "sim/kernel_clones.hpp"

namespace coloc::sim {

void FenwickTree::add(std::size_t index, std::int64_t delta) {
  COLOC_CHECK_MSG(index < tree_.size() - 1, "Fenwick index out of range");
  for (std::size_t i = index + 1; i < tree_.size(); i += i & (~i + 1))
    tree_[i] += delta;
}

std::int64_t FenwickTree::prefix_sum(std::size_t index) const {
  if (tree_.size() <= 1) return 0;
  index = std::min(index, tree_.size() - 2);
  std::int64_t s = 0;
  for (std::size_t i = index + 1; i > 0; i -= i & (~i + 1)) s += tree_[i];
  return s;
}

std::int64_t FenwickTree::range_sum(std::size_t lo, std::size_t hi) const {
  COLOC_CHECK_MSG(lo <= hi, "invalid Fenwick range");
  const std::int64_t upper = prefix_sum(hi);
  return lo == 0 ? upper : upper - prefix_sum(lo - 1);
}

namespace {
// Bitmap layout: 512-bit (8-word) blocks, 128 blocks (65536 bits) per
// superblock. The arrays are padded to whole blocks, whole superblocks and
// a whole number of kSuperPad superblocks, so the prefix count below can
// read fixed-width windows without bounds checks.
constexpr std::size_t kWordsPerBlock = 8;
constexpr std::size_t kBlocksPerSuper = 128;
constexpr std::size_t kBitsPerBlock = 512;
constexpr std::size_t kBitsPerSuper = kBitsPerBlock * kBlocksPerSuper;
constexpr std::size_t kSuperPad = 16;
// References a chunk holds, and how far ahead pass 1 prefetches map slots.
constexpr std::size_t kChunk = 4096;
constexpr std::size_t kPrefetchAhead = 16;
// A map slot's position before its line's first access; in a chunk's
// distance array it marks a first touch.
constexpr std::uint32_t kNoPosition = ~std::uint32_t{0};

std::size_t round_up(std::size_t n, std::size_t multiple) {
  return (n + multiple - 1) / multiple * multiple;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// All-ones when `in` holds, else zero: the masks of the prefix sums below
// are arithmetic, so the compiler cannot split a loop at the condition and
// bring back a trip count that depends on the queried position.
inline std::uint32_t lane_mask(bool in) {
  return 0u - static_cast<std::uint32_t>(in);
}

// Pass 2 over one chunk: entry i of `dist` holds reference i's previous
// position (kNoPosition for a first touch) and leaves holding its distance
// (still kNoPosition for a first touch). Every distinct line keeps one
// marker at its latest access, all strictly below `now`; the markers at or
// below `prev` are the lines NOT reused inside the window plus the line
// itself, so the distinct count inside (prev, now) is
// distinct - prefix(prev). The prefix count takes masked sums over all
// `supers` superblock counts (one lane per 65,536 references of capacity),
// all 128 block counts of prev's superblock and all 8 words of prev's
// block. Returns the updated distinct-line count.
COLOC_SIM_KERNEL_CLONES
std::uint64_t walk_markers(std::uint64_t* bits, std::uint16_t* block_count,
                           std::uint32_t* super_count, std::uint32_t supers,
                           std::uint32_t* dist, std::size_t n,
                           std::uint32_t now, std::uint64_t distinct) {
  for (std::size_t i = 0; i < n; ++i, ++now) {
    const std::uint32_t prev = dist[i];
    if (prev != kNoPosition) {
      const std::uint32_t super = prev >> 16;
      const std::uint32_t block = prev >> 9;
      std::uint32_t below = 0;
      for (std::uint32_t j = 0; j < supers; ++j)
        below += super_count[j] & lane_mask(j < super);
      const std::uint16_t* blocks = block_count + (super << 7);
      const std::uint32_t whole_blocks = block & 127;
      for (std::uint32_t j = 0; j < kBlocksPerSuper; ++j)
        below += blocks[j] & lane_mask(j < whole_blocks);
      const std::uint64_t* words = bits + block * kWordsPerBlock;
      const std::int32_t bit = static_cast<std::int32_t>(prev & 511);
      for (std::int32_t w = 0; w < 8; ++w) {
        const std::int32_t rem = bit - 64 * w;  // prev's offset in word w
        const std::uint64_t mask =
            rem < 0 ? 0 : ~std::uint64_t{0} >> (63 - std::min(rem, 63));
        below += static_cast<std::uint32_t>(std::popcount(words[w] & mask));
      }
      dist[i] = static_cast<std::uint32_t>(distinct - below);
      bits[prev >> 6] &= ~(std::uint64_t{1} << (prev & 63));
      --block_count[block];
      --super_count[super];
    } else {
      ++distinct;
    }
    bits[now >> 6] |= std::uint64_t{1} << (now & 63);
    ++block_count[now >> 9];
    ++super_count[now >> 16];
  }
  return distinct;
}
}  // namespace

void* detail::allocate_mapped(std::size_t bytes) {
  if (bytes < kMinMappedBytes) return ::operator new(bytes);
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void detail::release_mapped(void* p, std::size_t bytes) noexcept {
  if (bytes < kMinMappedBytes) {
    ::operator delete(p);
    return;
  }
  munmap(p, bytes);
}

StackDistanceProfiler::StackDistanceProfiler(std::size_t max_references,
                                             std::size_t max_distinct_lines)
    : capacity_(max_references) {
  COLOC_CHECK_MSG(max_references > 0, "profiler needs capacity");
  COLOC_CHECK_MSG(max_references < kNoPosition,
                  "profiler capacity exceeds 32-bit timestamp range");
  const std::size_t supers =
      round_up((capacity_ + kBitsPerSuper - 1) / kBitsPerSuper, kSuperPad);
  const std::size_t blocks = (capacity_ + kBitsPerBlock - 1) / kBitsPerBlock;
  bits_.assign(blocks * kWordsPerBlock, 0);
  block_count_.assign(round_up(blocks, kBlocksPerSuper), 0);
  super_count_.assign(supers, 0);
  // Without a bound, sized for the common case (a minority of references
  // are first touches) and grown by rehash when distinct lines outrun it.
  // With one, sized as update_map's growth rule would leave it once every
  // bounded line has been seen.
  std::size_t slots = next_pow2(std::max<std::size_t>(1024, capacity_ / 64));
  const std::size_t distinct = std::min(max_distinct_lines, capacity_);
  if (distinct > 0) {
    while ((distinct + kChunk) * 10 >= slots * 7) slots <<= 1;
    histogram_.reserve(distinct);
  }
  map_keys_.assign(slots, kEmptySlot);
  map_pos_.assign(slots, kNoPosition);
  map_mask_ = slots - 1;
}

void StackDistanceProfiler::grow_map() {
  const std::size_t new_slots = (map_mask_ + 1) * 2;
  detail::MappedVector<LineAddress> keys(new_slots, kEmptySlot);
  detail::MappedVector<std::uint32_t> pos(new_slots, kNoPosition);
  const std::size_t new_mask = new_slots - 1;
  for (std::size_t i = 0; i <= map_mask_; ++i) {
    if (map_keys_[i] == kEmptySlot) continue;
    std::size_t j = static_cast<std::size_t>(mix64(map_keys_[i])) & new_mask;
    while (keys[j] != kEmptySlot) j = (j + 1) & new_mask;
    keys[j] = map_keys_[i];
    pos[j] = map_pos_[i];
  }
  map_keys_ = std::move(keys);
  map_pos_ = std::move(pos);
  map_mask_ = new_mask;
}

void StackDistanceProfiler::update_map(std::span<const LineAddress> lines,
                                       std::uint32_t* prev) {
  // Room for every line to be new, so no rehash moves the slots that were
  // prefetched.
  while ((map_used_ + lines.size()) * 10 >= (map_mask_ + 1) * 7) grow_map();
  const std::size_t n = lines.size();
  std::uint32_t now = static_cast<std::uint32_t>(time_);
  for (std::size_t i = 0; i < n; ++i, ++now) {
    if (i + kPrefetchAhead < n) {
      const std::size_t ahead =
          static_cast<std::size_t>(mix64(lines[i + kPrefetchAhead])) &
          map_mask_;
      __builtin_prefetch(&map_keys_[ahead]);
      __builtin_prefetch(&map_pos_[ahead]);
    }
    const LineAddress line = lines[i];
    std::size_t slot = static_cast<std::size_t>(mix64(line)) & map_mask_;
    while (map_keys_[slot] != line && map_keys_[slot] != kEmptySlot)
      slot = (slot + 1) & map_mask_;
    if (map_keys_[slot] == kEmptySlot) {
      map_keys_[slot] = line;
      ++map_used_;
    }
    prev[i] = map_pos_[slot];
    map_pos_[slot] = now;
  }
}

void StackDistanceProfiler::record_chunk(std::span<const LineAddress> lines,
                                         std::uint32_t* dist) {
  update_map(lines, dist);
  cold_ = walk_markers(bits_.data(), block_count_.data(), super_count_.data(),
                       static_cast<std::uint32_t>(super_count_.size()), dist,
                       lines.size(), static_cast<std::uint32_t>(time_), cold_);
  time_ += lines.size();
  // Pass 3: the histogram.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::uint32_t distance = dist[i];
    if (distance == kNoPosition) continue;
    if (distance >= histogram_.size()) histogram_.resize(distance + 1, 0);
    ++histogram_[distance];
  }
}

void StackDistanceProfiler::check_batch(
    std::span<const LineAddress> lines) const {
  COLOC_CHECK_MSG(lines.size() <= capacity_ - time_,
                  "profiler capacity exceeded");
  COLOC_CHECK_MSG(
      std::find(lines.begin(), lines.end(), kEmptySlot) == lines.end(),
      "line address ~0 is reserved by the profiler");
}

std::uint64_t StackDistanceProfiler::record(LineAddress line) {
  const std::span<const LineAddress> one(&line, 1);
  check_batch(one);
  std::uint32_t distance = 0;
  record_chunk(one, &distance);
  return distance == kNoPosition ? kColdMiss : distance;
}

void StackDistanceProfiler::record_batch(std::span<const LineAddress> lines) {
  check_batch(lines);
  std::array<std::uint32_t, kChunk> dist;
  for (std::size_t done = 0; done < lines.size(); done += kChunk) {
    record_chunk(lines.subspan(done, std::min(kChunk, lines.size() - done)),
                 dist.data());
  }
}

StackDistanceProfiler profile_trace(std::span<const LineAddress> trace) {
  StackDistanceProfiler profiler(trace.size());
  profiler.record_batch(trace);
  return profiler;
}

std::vector<std::uint64_t> brute_force_stack_distances(
    std::span<const LineAddress> trace) {
  // Still "brute force" relative to the streaming profiler — the distinct
  // count rescans the reuse window — but a hash map of last-access
  // positions replaces the backward scan for the previous access, and a
  // hash set replaces the linear-probe distinct count, taking the oracle
  // from O(n^3) to O(n * w) for reuse windows of width w. That keeps it
  // usable as a cross-check on the large randomized traces in tests.
  std::vector<std::uint64_t> out;
  out.reserve(trace.size());
  std::unordered_map<LineAddress, std::size_t> last_access;
  last_access.reserve(trace.size());
  std::unordered_set<LineAddress> seen;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto it = last_access.find(trace[i]);
    if (it == last_access.end()) {
      out.push_back(kColdMiss);
      last_access.emplace(trace[i], i);
      continue;
    }
    seen.clear();
    for (std::size_t j = it->second + 1; j < i; ++j) seen.insert(trace[j]);
    out.push_back(seen.size());
    it->second = i;
  }
  return out;
}

}  // namespace coloc::sim
