#include "sim/profile_memo.hpp"

#include <bit>
#include <cstring>

#include "obs/metrics.hpp"

namespace coloc::sim {

namespace {
struct MemoMetrics {
  obs::Counter& hits;
  obs::Counter& misses;

  static MemoMetrics& get() {
    auto& registry = obs::Registry::global();
    static MemoMetrics metrics{
        registry.counter("sim_profile_memo_hits_total"),
        registry.counter("sim_profile_memo_misses_total"),
    };
    return metrics;
  }
};

void append_u64(std::string& out, std::uint64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out.append(buf, sizeof(buf));
}

void append_double(std::string& out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}
}  // namespace

ProfileMemo& ProfileMemo::global() {
  static ProfileMemo memo;
  return memo;
}

std::string ProfileMemo::key(const TraceSpec& spec, std::uint64_t seed,
                             std::size_t horizon) {
  // Every field below shapes the generated address stream; spec.name does
  // not, so two identically-shaped apps share one profile.
  std::string key;
  key.reserve(32 + spec.phases.size() * 56);
  append_u64(key, seed);
  append_u64(key, static_cast<std::uint64_t>(horizon));
  append_u64(key, static_cast<std::uint64_t>(spec.region_stride_lines));
  append_u64(key, static_cast<std::uint64_t>(spec.phases.size()));
  for (const Phase& p : spec.phases) {
    append_u64(key, static_cast<std::uint64_t>(p.working_set_lines));
    append_u64(key, static_cast<std::uint64_t>(p.stride));
    append_double(key, p.weight);
    append_double(key, p.zipf_exponent);
    append_double(key, p.mix.streaming);
    append_double(key, p.mix.strided);
    append_double(key, p.mix.hot_cold);
    append_double(key, p.mix.pointer);
  }
  return key;
}

std::uint64_t ProfileMemo::digest(const std::string& key) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : key) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;  // FNV-1a step
  }
  return h;
}

bool ProfileMemo::lookup(const std::string& key, MissRatioCurve* out) {
  MemoMetrics& metrics = MemoMetrics::get();
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      *out = it->second;
      metrics.hits.inc();
      return true;
    }
  }
  metrics.misses.inc();
  return false;
}

void ProfileMemo::store(const std::string& key, const MissRatioCurve& curve) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.entries.emplace(key, curve);
}

void ProfileMemo::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries.clear();
  }
}

std::size_t ProfileMemo::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.entries.size();
  }
  return total;
}

}  // namespace coloc::sim
