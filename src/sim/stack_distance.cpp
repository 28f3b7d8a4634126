#include "sim/stack_distance.hpp"

#include <algorithm>
#include <bit>
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
// superblock. A prefix query sums whole superblocks, then whole blocks
// inside the last superblock, then whole words inside the last block —
// three contiguous scans the compiler vectorizes (the widest clone runs
// them 32/16 lanes at a time).
constexpr std::size_t kWordsPerBlock = 8;
constexpr std::size_t kBlocksPerSuper = 128;

COLOC_SIM_KERNEL_CLONES
std::uint64_t sum_u32(const std::uint32_t* v, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += v[i];
  return total;
}

COLOC_SIM_KERNEL_CLONES
std::uint64_t sum_u16(const std::uint16_t* v, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += v[i];
  return total;
}

COLOC_SIM_KERNEL_CLONES
std::uint64_t popcount_words(const std::uint64_t* v, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += static_cast<std::uint64_t>(std::popcount(v[i]));
  return total;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

StackDistanceProfiler::StackDistanceProfiler(std::size_t max_references)
    : capacity_(max_references) {
  COLOC_CHECK_MSG(max_references > 0, "profiler needs capacity");
  COLOC_CHECK_MSG(max_references < kNoPosition,
                  "profiler capacity exceeds 32-bit timestamp range");
  bits_.assign((capacity_ + 63) / 64, 0);
  block_count_.assign((capacity_ + 511) / 512, 0);
  super_count_.assign((capacity_ + 65535) / 65536, 0);
  // Sized for the common case (a minority of references are first
  // touches); grows by rehash when distinct lines outrun it.
  const std::size_t slots =
      next_pow2(std::max<std::size_t>(1024, capacity_ / 64));
  map_keys_.assign(slots, kEmptySlot);
  map_pos_.assign(slots, kNoPosition);
  map_mask_ = slots - 1;
}

void StackDistanceProfiler::set_max_tracked_distance(std::size_t d) {
  COLOC_CHECK_MSG(histogram_.empty() || d >= histogram_.size(),
                  "cannot shrink histogram after recording");
  max_tracked_ = d;
}

std::uint64_t StackDistanceProfiler::prefix_popcount(std::size_t index) const {
  const std::size_t word = index >> 6;
  const std::size_t block = index >> 9;
  const std::size_t super = index >> 16;
  std::uint64_t total = sum_u32(super_count_.data(), super);
  total += sum_u16(block_count_.data() + super * kBlocksPerSuper,
                   block - super * kBlocksPerSuper);
  total += popcount_words(bits_.data() + block * kWordsPerBlock,
                          word - block * kWordsPerBlock);
  const std::uint64_t mask = ~std::uint64_t{0} >> (63 - (index & 63));
  return total + static_cast<std::uint64_t>(std::popcount(bits_[word] & mask));
}

std::uint32_t* StackDistanceProfiler::find_or_insert(LineAddress line) {
  if ((map_used_ + 1) * 10 >= (map_mask_ + 1) * 7) grow_map();
  std::size_t i = static_cast<std::size_t>(mix64(line)) & map_mask_;
  while (map_keys_[i] != kEmptySlot) {
    if (map_keys_[i] == line) return &map_pos_[i];
    i = (i + 1) & map_mask_;
  }
  map_keys_[i] = line;
  map_pos_[i] = kNoPosition;
  ++map_used_;
  return &map_pos_[i];
}

void StackDistanceProfiler::grow_map() {
  const std::size_t new_slots = (map_mask_ + 1) * 2;
  std::vector<LineAddress> keys(new_slots, kEmptySlot);
  std::vector<std::uint32_t> pos(new_slots, kNoPosition);
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

std::uint64_t StackDistanceProfiler::record(LineAddress line) {
  COLOC_CHECK_MSG(time_ < capacity_, "profiler capacity exceeded");
  COLOC_CHECK_MSG(line != kEmptySlot,
                  "line address ~0 is reserved by the profiler");
  const std::size_t now = static_cast<std::size_t>(time_);

  std::uint64_t distance = kColdMiss;
  std::uint32_t* slot = find_or_insert(line);
  if (*slot != kNoPosition) {
    const std::size_t prev = *slot;
    // Every distinct line seen so far keeps one marker at its latest
    // access, all strictly below `now`. The markers at or below `prev` are
    // the lines NOT reused inside the window plus this line itself, so the
    // distinct count inside (prev, now) is cold_ - prefix(prev).
    distance = cold_ - prefix_popcount(prev);
    bits_[prev >> 6] &= ~(std::uint64_t{1} << (prev & 63));
    --block_count_[prev >> 9];
    --super_count_[prev >> 16];
  } else {
    ++cold_;
  }
  *slot = static_cast<std::uint32_t>(now);
  bits_[now >> 6] |= std::uint64_t{1} << (now & 63);
  ++block_count_[now >> 9];
  ++super_count_[now >> 16];
  ++time_;

  if (distance != kColdMiss) {
    if (distance < max_tracked_) {
      if (distance >= histogram_.size()) histogram_.resize(distance + 1, 0);
      ++histogram_[distance];
    } else {
      ++beyond_;
    }
  }
  return distance;
}

void StackDistanceProfiler::record_batch(std::span<const LineAddress> lines) {
  for (LineAddress a : lines) record(a);
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
