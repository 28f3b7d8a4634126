#include "sim/profile_memo.hpp"

namespace coloc::sim {

ProfileMemo::ProfileMemo()
    : ExactMemo("sim_profile_memo_hits_total",
                "sim_profile_memo_misses_total") {}

ProfileMemo& ProfileMemo::global() {
  static ProfileMemo memo;
  return memo;
}

std::string ProfileMemo::key(const TraceSpec& spec, std::uint64_t seed,
                             std::size_t horizon) {
  using memo_key::append_double;
  using memo_key::append_u64;
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

}  // namespace coloc::sim
