// Exact-key memo for pure functions that are called from many threads.
//
// A key is a byte string that serializes every input the memoized value
// depends on; build it with the memo_key helpers below. Entries are found
// by comparing whole keys, so two inputs share an entry only when their
// keys are byte-identical: no hash collision can alias them. The table is
// split into 8 mutex-guarded shards so concurrent callers rarely contend.
//
// lookup() copies the value out, so callers never hold references into the
// table. store() keeps the first value stored under a key and returns a
// copy of it, so racing writers of the same pure function all go on with
// one value. Every lookup bumps one of two obs counters whose names the
// owner passes in. The table only grows; clear() empties it.
//
// FlatMemo, below it, is the bounded single-threaded table behind the
// serve memos, whose inputs pack exactly into one 64-bit key.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace coloc {

/// Murmur3's 64-bit finalizer: a full-avalanche bijection, so a table that
/// indexes by the low bits keeps linear probes short even on the strided,
/// sequential and bit-packed keys that traces and interned ids produce.
constexpr std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

namespace memo_key {

inline void append_u64(std::string& key, std::uint64_t v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  key.append(bytes, sizeof bytes);
}

/// The exact bit pattern, so -0.0 and 0.0 (or two NaNs) stay distinct.
inline void append_double(std::string& key, double v) {
  append_u64(key, std::bit_cast<std::uint64_t>(v));
}

/// Length-prefixed, so no bytes inside `s` can fake a field boundary.
inline void append_string(std::string& key, std::string_view s) {
  append_u64(key, s.size());
  key.append(s);
}

}  // namespace memo_key

template <typename V>
class ExactMemo {
 public:
  ExactMemo(const std::string& hits_counter, const std::string& misses_counter)
      : hits_(obs::Registry::global().counter(hits_counter)),
        misses_(obs::Registry::global().counter(misses_counter)) {}

  /// A copy of the value stored under `key`, or nullopt. Counts a hit or a
  /// miss.
  std::optional<V> lookup(const std::string& key) {
    Shard& shard = shard_for(key);
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.entries.find(key);
      if (it != shard.entries.end()) {
        hits_.inc();
        return it->second;
      }
    }
    misses_.inc();
    return std::nullopt;
  }

  /// Stores `value` unless `key` already holds one (first writer wins) and
  /// returns a copy of the value now stored.
  V store(std::string key, V value) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.entries.try_emplace(std::move(key), std::move(value))
        .first->second;
  }

  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.entries.clear();
    }
  }

  /// Entries across all shards.
  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.entries.size();
    }
    return total;
  }

 private:
  static constexpr std::size_t kShards = 8;
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, V> entries;
  };

  Shard& shard_for(const std::string& key) {
    return shards_[std::hash<std::string>{}(key) % kShards];
  }

  obs::Counter& hits_;
  obs::Counter& misses_;
  std::array<Shard, kShards> shards_;
};

// Bounded exact-key memo for one thread, on 64-bit keys that encode every
// input of the memoized value (so eviction can cost a recomputation, never
// change an answer). Open addressing with linear probing over at most
// `capacity` entries. Adding a key to a full table first drops every entry:
// the drops are counted as evictions (also on the obs counter the owner
// names), and each value is reset in place, which frees what it owns. The
// table starts at 16 slots and doubles whenever it would pass half full,
// so a small memo never pays for a large cap. Key 0 marks an empty slot;
// the entry for key 0 lives beside the table, so every 64-bit key is
// storable.
template <typename V>
class FlatMemo {
 public:
  FlatMemo(std::size_t capacity, const std::string& evictions_counter)
      : capacity_(capacity),
        evictions_total_(obs::Registry::global().counter(evictions_counter)) {
    COLOC_CHECK_MSG(capacity >= 1, "FlatMemo needs a positive capacity");
    clear();
  }

  /// The value stored under `key`, or null. Valid until the next insert or
  /// clear.
  const V* find(std::uint64_t key) const {
    if (key == 0) return has_zero_ ? &zero_value_ : nullptr;
    const std::size_t i = probe(key);
    return keys_[i] == key ? &values_[i] : nullptr;
  }

  /// Stores `value` unless `key` already holds one (the first value stored
  /// wins) and returns the value now stored. Valid until the next insert or
  /// clear.
  const V& insert(std::uint64_t key, V value) {
    if (key == 0) {
      if (!has_zero_) {
        make_room();
        has_zero_ = true;
        zero_value_ = std::move(value);
        ++size_;
      }
      return zero_value_;
    }
    std::size_t i = probe(key);
    if (keys_[i] == key) return values_[i];
    if (size_ == capacity_ || (size_ + 1) * 2 > keys_.size()) {
      make_room();
      i = probe(key);
    }
    keys_[i] = key;
    values_[i] = std::move(value);
    ++size_;
    return values_[i];
  }

  /// Drops every entry and returns to the initial small table. Dropped
  /// entries are not counted as evictions.
  void clear() {
    keys_ = std::vector<std::uint64_t>(kInitialSlots, 0);
    values_ = std::vector<V>(kInitialSlots);
    size_ = 0;
    has_zero_ = false;
    zero_value_ = V{};
  }

  /// Live entries (at most capacity).
  std::size_t size() const { return size_; }
  /// Entries dropped by a full table since construction.
  std::uint64_t evictions() const { return evictions_; }

 private:
  static constexpr std::size_t kInitialSlots = 16;

  /// The slot holding `key` (non-zero), or the empty slot ending its probe.
  std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
    while (keys_[i] != key && keys_[i] != 0) i = (i + 1) & mask;
    return i;
  }

  /// Makes room for one more entry: a full table drops every entry and
  /// keeps its slots; otherwise the slots double if it would pass half
  /// full.
  void make_room() {
    if (size_ == capacity_) {
      evictions_ += size_;
      evictions_total_.inc(size_);
      std::fill(keys_.begin(), keys_.end(), 0);
      // Move-assigning a fresh value (not copying one) releases what the
      // old value owns.
      for (V& v : values_) v = V{};
      zero_value_ = V{};
      has_zero_ = false;
      size_ = 0;
    } else if ((size_ + 1) * 2 > keys_.size()) {
      std::vector<std::uint64_t> keys(keys_.size() * 2, 0);
      std::vector<V> values(keys.size());
      keys.swap(keys_);
      values.swap(values_);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] == 0) continue;
        const std::size_t j = probe(keys[i]);
        keys_[j] = keys[i];
        values_[j] = std::move(values[i]);
      }
    }
  }

  std::size_t capacity_;
  obs::Counter& evictions_total_;
  std::vector<std::uint64_t> keys_;  // 0 marks an empty slot
  std::vector<V> values_;
  std::size_t size_ = 0;  // entries, the key-0 entry included
  bool has_zero_ = false;
  V zero_value_{};
  std::uint64_t evictions_ = 0;
};

}  // namespace coloc
