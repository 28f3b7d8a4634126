// Process-wide memo for trace profiling results.
//
// Building an application's miss-ratio curve means generating and stack-
// distance-profiling a multi-million-reference synthetic trace — by far the
// most expensive kernel in the pipeline. The result is a pure function of
// (trace spec, RNG seed, profile horizon), and sweep campaigns ask for the
// same (app, seed) pairs over and over (every arm, every machine, every
// MRC library instance). This memo deduplicates those calls.
//
// It is an ExactMemo (common/memo.hpp): the key is a byte-serialization of
// every TraceSpec field that shapes the address stream (region stride,
// per-phase working set / mix / weight / zipf exponent / stride — the app
// *name* is deliberately excluded) plus the seed and horizon, compared in
// full, so no hash collision can alias two profiles.
//
// The memo is an invisible optimization — a served curve must be
// byte-identical to a recomputed one (tested against a cleared memo).
// sim_profile_memo_{hits,misses}_total count every lookup.
#pragma once

#include <cstdint>
#include <string>

#include "common/memo.hpp"
#include "sim/mrc.hpp"
#include "sim/trace.hpp"

namespace coloc::sim {

class ProfileMemo : public ExactMemo<MissRatioCurve> {
 public:
  /// The process-wide instance used by AppMrcLibrary.
  static ProfileMemo& global();

  /// Exact serialized key for a profiling job.
  static std::string key(const TraceSpec& spec, std::uint64_t seed,
                         std::size_t horizon);

 private:
  ProfileMemo();
};

}  // namespace coloc::sim
