#include "sched/placement_policy.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"

namespace coloc::sched {
namespace {

TEST(PlacementPolicyTest, TokenRoundTripsThroughParse) {
  for (const PlacementPolicy policy : all_placement_policies()) {
    EXPECT_EQ(parse_placement_policy(to_string(policy)), policy)
        << to_string(policy);
  }
}

TEST(PlacementPolicyTest, AllPoliciesCoversEnumInOrder) {
  const std::vector<PlacementPolicy>& all = all_placement_policies();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0], PlacementPolicy::kFirstFit);
  EXPECT_EQ(all[1], PlacementPolicy::kLeastLoaded);
  EXPECT_EQ(all[2], PlacementPolicy::kInterferenceAware);
  EXPECT_EQ(all[3], PlacementPolicy::kDvfsAware);
}

TEST(PlacementPolicyTest, UnknownTokenNamesItselfAndListsAccepted) {
  try {
    parse_placement_policy("round-robin");
    FAIL() << "expected invalid_argument_error";
  } catch (const coloc::invalid_argument_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("round-robin"), std::string::npos) << message;
    for (const PlacementPolicy policy : all_placement_policies()) {
      EXPECT_NE(message.find(to_string(policy)), std::string::npos)
          << message;
    }
  }
}

}  // namespace
}  // namespace coloc::sched
