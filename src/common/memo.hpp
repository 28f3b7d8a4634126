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
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"

namespace coloc {

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

}  // namespace coloc
