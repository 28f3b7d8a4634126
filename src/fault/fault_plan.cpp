#include "fault/fault_plan.hpp"

#include <cstdlib>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/manifest.hpp"

namespace coloc::fault {

namespace detail {

double env_double(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double value = std::strtod(raw, &end);
  if (end == raw || *end != '\0') {
    throw invalid_argument_error(std::string(name) + ": cannot parse '" +
                                 raw + "' as a number");
  }
  return value;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return parse_non_negative_integer(raw, name);
}

std::vector<std::string_view> split_csv(std::string_view spec) {
  std::vector<std::string_view> out;
  while (!spec.empty()) {
    const std::size_t comma = spec.find(',');
    std::string_view item = spec.substr(0, comma);
    while (!item.empty() && item.front() == ' ') item.remove_prefix(1);
    while (!item.empty() && item.back() == ' ') item.remove_suffix(1);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string_view::npos) break;
    spec.remove_prefix(comma + 1);
  }
  return out;
}

std::uint64_t mix(std::uint64_t seed, std::string_view key,
                  std::uint64_t index, std::uint64_t salt) {
  std::uint64_t h = obs::fnv1a64(key, obs::kFnv1aBasis ^ seed);
  h ^= index * 0x9e3779b97f4a7c15ULL;
  h ^= salt * 0x2545f4914f6cdd1dULL;
  return splitmix64(h);
}

}  // namespace detail

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kTransient: return "transient";
    case FaultKind::kCorruptedReading: return "corrupt";
    case FaultKind::kOutlierNoise: return "outlier";
    case FaultKind::kHang: return "hang";
  }
  return "unknown";
}

std::vector<FaultKind> parse_fault_kinds(std::string_view spec) {
  std::vector<FaultKind> kinds;
  for (std::string_view item : detail::split_csv(spec)) {
    if (item == "transient") {
      kinds.push_back(FaultKind::kTransient);
    } else if (item == "corrupt" || item == "corrupted") {
      kinds.push_back(FaultKind::kCorruptedReading);
    } else if (item == "outlier") {
      kinds.push_back(FaultKind::kOutlierNoise);
    } else if (item == "hang") {
      kinds.push_back(FaultKind::kHang);
    } else {
      throw invalid_argument_error("unknown fault kind: '" +
                                   std::string(item) + "'");
    }
  }
  return kinds;
}

FaultPlanConfig FaultPlanConfig::from_env() {
  FaultPlanConfig config;
  config.rate = validate_fault_rate(
      detail::env_double("COLOC_FAULT_RATE", config.rate),
      "COLOC_FAULT_RATE");
  config.seed = detail::env_u64("COLOC_FAULT_SEED", config.seed);
  if (const char* kinds = std::getenv("COLOC_FAULT_KINDS")) {
    config.kinds = parse_fault_kinds(kinds);
  }
  config.hang_cap_ms =
      detail::env_double("COLOC_FAULT_HANG_MS", config.hang_cap_ms);
  return config;
}

double validate_fault_rate(double rate, const std::string& origin) {
  if (!(rate >= 0.0 && rate <= 1.0)) {
    throw invalid_argument_error(origin + " must be in [0, 1], got " +
                                 std::to_string(rate));
  }
  return rate;
}

FaultPlan::FaultPlan(FaultPlanConfig config) : config_(std::move(config)) {
  COLOC_CHECK_MSG(config_.rate >= 0.0 && config_.rate <= 1.0,
                  "fault rate must be in [0, 1]");
  enabled_kinds_ = config_.kinds;
  if (enabled_kinds_.empty()) {
    enabled_kinds_ = {FaultKind::kTransient, FaultKind::kCorruptedReading,
                      FaultKind::kOutlierNoise};
  }
}

FaultKind FaultPlan::decide(std::string_view cell_key,
                            std::uint64_t attempt) const {
  if (!enabled()) return FaultKind::kNone;
  Rng rng(detail::mix(config_.seed, cell_key, attempt, 0x1));
  if (!rng.bernoulli(config_.rate)) return FaultKind::kNone;
  return enabled_kinds_[rng.uniform_index(enabled_kinds_.size())];
}

double FaultPlan::outlier_factor(std::string_view cell_key,
                                 std::uint64_t attempt) const {
  Rng rng(detail::mix(config_.seed, cell_key, attempt, 0x2));
  return rng.uniform(kOutlierMinFactor, kOutlierMaxFactor);
}

std::uint64_t FaultPlan::corruption_variant(std::string_view cell_key,
                                            std::uint64_t attempt,
                                            std::uint64_t n) const {
  COLOC_CHECK_MSG(n > 0, "variant count must be positive");
  Rng rng(detail::mix(config_.seed, cell_key, attempt, 0x3));
  return rng.uniform_index(n);
}

}  // namespace coloc::fault
