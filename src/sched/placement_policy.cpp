#include "sched/placement_policy.hpp"

#include "common/error.hpp"

namespace coloc::sched {

std::string to_string(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kFirstFit: return "first-fit";
    case PlacementPolicy::kLeastLoaded: return "least-loaded";
    case PlacementPolicy::kInterferenceAware: return "interference-aware";
    case PlacementPolicy::kDvfsAware: return "dvfs-aware";
  }
  return "?";
}

const std::vector<PlacementPolicy>& all_placement_policies() {
  static const std::vector<PlacementPolicy> kAll = {
      PlacementPolicy::kFirstFit,
      PlacementPolicy::kLeastLoaded,
      PlacementPolicy::kInterferenceAware,
      PlacementPolicy::kDvfsAware,
  };
  return kAll;
}

PlacementPolicy parse_placement_policy(const std::string& token) {
  for (PlacementPolicy policy : all_placement_policies()) {
    if (token == to_string(policy)) return policy;
  }
  std::string accepted;
  for (PlacementPolicy policy : all_placement_policies()) {
    if (!accepted.empty()) accepted += ", ";
    accepted += to_string(policy);
  }
  throw coloc::invalid_argument_error("unknown placement policy: '" + token +
                                      "' (accepted: " + accepted + ")");
}

}  // namespace coloc::sched
