// Process-wide memo for trace profiling results.
//
// Building an application's miss-ratio curve means generating and stack-
// distance-profiling a multi-million-reference synthetic trace — by far the
// most expensive kernel in the pipeline. The result is a pure function of
// (trace spec, RNG seed, profile horizon), and sweep campaigns ask for the
// same (app, seed) pairs over and over (every arm, every machine, every
// MRC library instance). This memo deduplicates those calls.
//
// Keying is EXACT: the key is a byte-serialization of every TraceSpec field
// that shapes the address stream (region stride, per-phase working set /
// mix / weight / zipf exponent / stride — the app *name* is deliberately
// excluded) plus the seed and horizon, so there is no hash-collision risk;
// a short FNV-1a digest of the key is exposed for display and manifests
// only. Lookups copy the stored curve out, so callers never hold pointers
// into the memo. Sharded mutexes keep concurrent profile_all() cheap.
//
// Transparency discipline matches the solve/score caches: the memo is an
// invisible optimization — a served curve must be byte-identical to a
// recomputed one (tested against a cleared memo).
// sim_profile_memo_{hits,misses}_total count every lookup.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sim/mrc.hpp"
#include "sim/trace.hpp"

namespace coloc::sim {

class ProfileMemo {
 public:
  /// The process-wide instance used by AppMrcLibrary.
  static ProfileMemo& global();

  /// Exact serialized key for a profiling job.
  static std::string key(const TraceSpec& spec, std::uint64_t seed,
                         std::size_t horizon);

  /// Short FNV-1a digest of a key, for logs/manifests only (never used for
  /// lookup).
  static std::uint64_t digest(const std::string& key);

  /// Copies the memoized curve into `out`; returns false on miss. Bumps the
  /// hit/miss counters.
  bool lookup(const std::string& key, MissRatioCurve* out);

  /// Stores a curve (first writer wins; duplicates are dropped).
  void store(const std::string& key, const MissRatioCurve& curve);

  /// Drops all entries. Test hook.
  void clear();

  /// Number of memoized curves (across shards). Test hook.
  std::size_t size() const;

 private:
  static constexpr std::size_t kShards = 8;
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, MissRatioCurve> entries;
  };

  Shard& shard_for(const std::string& key) {
    return shards_[std::hash<std::string>{}(key) % kShards];
  }

  Shard shards_[kShards];
};

}  // namespace coloc::sim
