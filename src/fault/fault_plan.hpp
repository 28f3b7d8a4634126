// Seeded, deterministic fault planning for the measurement path.
//
// A FaultPlan decides, for every (cell key, attempt) pair, whether a fault
// fires and which kind. Decisions are pure functions of the plan seed and
// the pair, so a campaign replays identically across processes — the
// property the checkpoint/resume tests rely on — and a retry of the same
// cell (attempt + 1) draws an independent decision, so transient faults
// clear at the configured rate.
//
// Configuration comes from the environment (chaos jobs set these):
//   COLOC_FAULT_RATE    probability a measurement faults      (default 0)
//   COLOC_FAULT_SEED    plan seed                             (default 1234)
//   COLOC_FAULT_KINDS   comma list of transient,corrupt,outlier,hang
//                       (default transient,corrupt,outlier — hangs are
//                       opt-in because each one costs a cell deadline)
//   COLOC_FAULT_HANG_MS longest stall of an injected hang     (default 250)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace coloc::fault {

/// What an injected fault does to the measurement it targets.
enum class FaultKind : std::uint32_t {
  kNone = 0,
  /// Throws MeasurementError(kTransient): the run died and said so.
  kTransient,
  /// Returns a reading with NaN / negative / zeroed fields: the run
  /// "succeeded" but the counters are garbage (perf multiplexing, SMIs).
  kCorruptedReading,
  /// Multiplies the wall time by a large factor: a plausible-looking but
  /// wildly wrong reading only plausibility bounds can catch.
  kOutlierNoise,
  /// Stalls the measurement until its attempt's deadline passes (or a cap
  /// expires): exercises the deadline machinery end to end.
  kHang,
};

const char* to_string(FaultKind kind);

/// Outlier faults scale wall time by a factor uniform in this range. It
/// sits far above any real co-location slowdown, so the plausibility
/// check (kMaxPlausibleSlowdown) separates signal from injection.
inline constexpr double kOutlierMinFactor = 25.0;
inline constexpr double kOutlierMaxFactor = 60.0;

struct FaultPlanConfig {
  double rate = 0.0;          // probability per (cell, attempt)
  std::uint64_t seed = 1234;  // plan seed; independent of testbed noise
  /// Enabled kinds; empty means the default set (everything but kHang).
  std::vector<FaultKind> kinds;
  /// Injected hangs stall at most this long even with no deadline to end
  /// them, so an un-deadlined call site still terminates.
  double hang_cap_ms = 250.0;

  /// Reads the COLOC_FAULT_* variables; unset variables keep defaults.
  /// Throws coloc::invalid_argument_error on unparseable values and on a
  /// rate outside [0, 1].
  static FaultPlanConfig from_env();
};

/// Parses a COLOC_FAULT_KINDS-style list ("transient,corrupt,outlier,hang").
std::vector<FaultKind> parse_fault_kinds(std::string_view spec);

/// Validates a fault probability (--fault-rate, COLOC_FAULT_RATE). Returns
/// `rate` when it lies in [0, 1]; otherwise throws
/// coloc::invalid_argument_error naming `origin` (e.g. "--fault-rate").
double validate_fault_rate(double rate, const std::string& origin);

class FaultPlan {
 public:
  explicit FaultPlan(FaultPlanConfig config);

  const FaultPlanConfig& config() const { return config_; }
  bool enabled() const { return config_.rate > 0.0; }

  /// The fault (or kNone) for one measurement attempt of one cell.
  /// Deterministic in (seed, cell_key, attempt).
  FaultKind decide(std::string_view cell_key, std::uint64_t attempt) const;

  /// Deterministic outlier multiplier for the same coordinates, uniform in
  /// [kOutlierMinFactor, kOutlierMaxFactor].
  double outlier_factor(std::string_view cell_key,
                        std::uint64_t attempt) const;

  /// Deterministic pick in [0, n) used to vary corruption flavors.
  std::uint64_t corruption_variant(std::string_view cell_key,
                                   std::uint64_t attempt,
                                   std::uint64_t n) const;

 private:
  FaultPlanConfig config_;
  std::vector<FaultKind> enabled_kinds_;
};

// Plumbing shared by FaultPlan and RetryPolicy::from_env.
namespace detail {

/// Reads a numeric environment variable; unset or empty keeps `fallback`.
/// Throws coloc::invalid_argument_error naming the variable when the value
/// does not parse in full.
double env_double(const char* name, double fallback);

/// Same for a decimal unsigned integer. Only digits are accepted: a sign,
/// a fraction, an exponent or an out-of-range value is rejected rather
/// than wrapped or truncated.
std::uint64_t env_u64(const char* name, std::uint64_t fallback);

/// Splits a comma list, trimming spaces and dropping empty items.
std::vector<std::string_view> split_csv(std::string_view spec);

/// The seeded hash behind every plan decision: a pure function of
/// (seed, key, index, salt), so a plan replays identically across
/// processes.
std::uint64_t mix(std::uint64_t seed, std::string_view key,
                  std::uint64_t index, std::uint64_t salt);

}  // namespace detail

}  // namespace coloc::fault
