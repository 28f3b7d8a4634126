// Online placement policies for a fleet of multicore nodes.
//
// The paper motivates its models with "large scale computer systems" where
// schedulers trade consolidation (power) against interference (QoS).
// serve::EventSimulator replays job streams under these policies:
//   kFirstFit           first node with a free core (max consolidation)
//   kLeastLoaded        node with the most free cores (max spreading)
//   kInterferenceAware  node minimizing the predicted slowdown of the new
//                       job plus the predicted slowdown increase of the
//                       residents it joins (requires a trained predictor);
//                       with a positive EventSimConfig::max_slowdown it
//                       consolidates instead: the cheapest busy node that
//                       keeps every resident within that QoS bound
//   kDvfsAware          places like kInterferenceAware, then re-picks the
//                       chosen node's P-state per arrival via
//                       sched::choose_pstate_for_deadline
#pragma once

#include <string>
#include <vector>

namespace coloc::sched {

enum class PlacementPolicy {
  kFirstFit,
  kLeastLoaded,
  kInterferenceAware,
  kDvfsAware,
};
std::string to_string(PlacementPolicy policy);

/// Parses a to_string(PlacementPolicy) token ("first-fit", "least-loaded",
/// "interference-aware", "dvfs-aware"). Throws invalid_argument_error
/// naming the offending token and listing every accepted value, so CLI
/// layers can reject --policy typos with an actionable message.
PlacementPolicy parse_placement_policy(const std::string& token);

/// All policies, in enum order (CLI "all" sweeps, test loops).
const std::vector<PlacementPolicy>& all_placement_policies();

}  // namespace coloc::sched
