// PlacementService: the zoo-backed batched query front-end (DESIGN.md §12).
// The properties under test: catalog interning is deterministic, the
// feature-assembly mirror reproduces ColocationPredictor::predict_time bit
// for bit, score_candidates matches a hand-assembled interference cost and
// worst slowdown, membership ids are exact, the score memo is a transparent
// optimization (also for memberships whose hashes collide), and
// bundle-reloaded predictors answer bit-identically.
#include "serve/placement_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/campaign.hpp"
#include "sim/execution.hpp"
#include "store/zoo_store.hpp"
#include "test_helpers.hpp"

namespace coloc::serve {
namespace {

using testing_helpers::tiny_machine;
using testing_helpers::tiny_suite;

class PlacementServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = new sim::AppMrcLibrary();
    simulator_ = new sim::Simulator(tiny_machine(), library_);
    core::CampaignConfig config;
    config.targets = tiny_suite();
    config.coapps = {config.targets[0], config.targets[3]};
    campaign_ =
        new core::CampaignResult(core::run_campaign(*simulator_, config));
    core::ModelZooOptions zoo;
    zoo.mlp.max_iterations = 300;
    predictor_ = new core::ColocationPredictor(
        core::ColocationPredictor::train(
            campaign_->dataset,
            {core::ModelTechnique::kNeuralNetwork, core::FeatureSet::kF},
            zoo));
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete campaign_;
    delete simulator_;
    delete library_;
  }

  /// Fresh service with the whole campaign catalog registered.
  static PlacementService make_service(ServiceOptions options = {}) {
    PlacementService service(predictor_, options);
    service.register_library(campaign_->baselines);
    return service;
  }

  static sim::AppMrcLibrary* library_;
  static sim::Simulator* simulator_;
  static core::CampaignResult* campaign_;
  static core::ColocationPredictor* predictor_;
};

sim::AppMrcLibrary* PlacementServiceTest::library_ = nullptr;
sim::Simulator* PlacementServiceTest::simulator_ = nullptr;
core::CampaignResult* PlacementServiceTest::campaign_ = nullptr;
core::ColocationPredictor* PlacementServiceTest::predictor_ = nullptr;

TEST_F(PlacementServiceTest, CatalogInternsDeterministically) {
  PlacementService service = make_service();
  ASSERT_EQ(service.num_apps(), campaign_->baselines.size());
  // register_library walks the name-sorted map, so ids follow sort order.
  AppId expected = 0;
  for (const auto& [name, profile] : campaign_->baselines) {
    EXPECT_EQ(service.id_of(name), expected);
    EXPECT_EQ(service.name_of(expected), name);
    for (std::size_t p = 0; p < tiny_machine().pstates.size(); ++p) {
      EXPECT_EQ(service.baseline_time(expected, p), profile.time_at(p));
    }
    ++expected;
  }
  // Re-registering is idempotent.
  const AppId again =
      service.register_app(campaign_->baselines.begin()->second);
  EXPECT_EQ(again, 0u);
  EXPECT_EQ(service.num_apps(), campaign_->baselines.size());
  EXPECT_THROW(service.id_of("no-such-app"), coloc::invalid_argument_error);
}

TEST_F(PlacementServiceTest, FleetMirrorKeepsMembersSorted) {
  PlacementService service = make_service();
  service.reset_fleet(3);
  ASSERT_EQ(service.fleet_nodes(), 3u);
  const AppId hog = service.id_of("hog");
  const AppId quiet = service.id_of("quiet");
  service.add_resident(1, quiet);
  service.add_resident(1, hog);
  service.add_resident(1, quiet);  // duplicates allowed (two instances)
  EXPECT_EQ(service.occupancy(1), 3u);
  const std::vector<AppId> expected = {hog, quiet, quiet};
  EXPECT_EQ(service.members(1), expected);
  service.remove_resident(1, quiet);
  EXPECT_EQ(service.occupancy(1), 2u);
  EXPECT_EQ(service.members(1), (std::vector<AppId>{hog, quiet}));
  EXPECT_EQ(service.occupancy(0), 0u);
}

TEST_F(PlacementServiceTest, PredictBatchMatchesPredictTime) {
  PlacementService service = make_service();
  service.reset_fleet(2);
  const AppId hog = service.id_of("hog");
  const AppId medium = service.id_of("medium");
  service.add_resident(0, hog);
  service.add_resident(0, medium);

  for (std::size_t pstate = 0; pstate < tiny_machine().pstates.size();
       ++pstate) {
    for (const std::string& name : {"quiet", "light", "hog"}) {
      const AppId target = service.id_of(name);
      double out = 0.0;
      service.predict_batch({&target, 1},
                            std::vector<std::uint32_t>{0}, pstate,
                            {&out, 1});
      const double reference = predictor_->predict_time(
          campaign_->baselines.at(name),
          {&campaign_->baselines.at("hog"),
           &campaign_->baselines.at("medium")},
          pstate);
      // Both paths build their row with core::feature_row. The service sums
      // co-apps in sorted AppId order (hog < medium) and predict_time in
      // vector order, so with the vector in that order the rows, and the
      // predictions, are the same bits.
      EXPECT_EQ(out, reference) << name << " P" << pstate;
    }
  }
}

TEST_F(PlacementServiceTest, EmptyNodeScoresExactlyOneWithoutModel) {
  PlacementService service = make_service();
  service.reset_fleet(4);
  const AppId target = service.id_of("medium");
  const std::vector<std::uint32_t> candidates = {0, 1, 2, 3};
  std::vector<double> cost(4, -1.0);
  service.score_candidates(target, candidates, 0, cost);
  for (const double c : cost) EXPECT_EQ(c, 1.0);
  EXPECT_EQ(service.stats().predictions, 0u);
}

TEST_F(PlacementServiceTest, ScoreMatchesHandAssembledInterferenceCost) {
  PlacementService service = make_service();
  service.reset_fleet(2);
  service.add_resident(0, service.id_of("hog"));
  service.add_resident(0, service.id_of("light"));

  const std::string target_name = "medium";
  const AppId target = service.id_of(target_name);
  const std::vector<std::uint32_t> candidates = {0, 1};  // busy, empty
  const std::vector<std::uint8_t> pstates = {0, 0};
  std::vector<double> cost(2), worst(2);
  service.score_candidates(target, candidates, pstates, cost, worst);

  // Cost = target's predicted slowdown joining {hog, light} plus each
  // resident's predicted slowdown with the target added.
  const core::BaselineLibrary& lib = campaign_->baselines;
  const auto slowdown = [&](const std::string& subject,
                            std::vector<const core::BaselineProfile*> co) {
    return predictor_->predict_time(lib.at(subject), co, 0) /
           lib.at(subject).time_at(0);
  };
  const double slowdowns[] = {
      slowdown(target_name, {&lib.at("hog"), &lib.at("light")}),
      slowdown("hog", {&lib.at("light"), &lib.at(target_name)}),
      slowdown("light", {&lib.at("hog"), &lib.at(target_name)})};
  const double expected = slowdowns[0] + slowdowns[1] + slowdowns[2];
  EXPECT_NEAR(cost[0], expected, 1e-9 * expected);
  const double expected_worst =
      std::max({slowdowns[0], slowdowns[1], slowdowns[2]});
  EXPECT_NEAR(worst[0], expected_worst, 1e-9 * expected_worst);
  // A job alone on a node runs at slowdown 1.
  EXPECT_EQ(cost[1], 1.0);
  EXPECT_EQ(worst[1], 1.0);
}

TEST_F(PlacementServiceTest, ScoreCacheIsTransparent) {
  PlacementService cached = make_service();
  ServiceOptions off;
  off.enable_score_cache = false;
  PlacementService uncached = make_service(off);
  for (PlacementService* s : {&cached, &uncached}) {
    s->reset_fleet(3);
    s->add_resident(0, s->id_of("hog"));
    s->add_resident(1, s->id_of("quiet"));
    s->add_resident(1, s->id_of("light"));
  }
  const std::vector<std::uint32_t> candidates = {0, 1, 2};
  std::vector<double> a(3), b(3), again(3);
  const AppId target = cached.id_of("medium");
  cached.score_candidates(target, candidates, 0, a);
  uncached.score_candidates(target, candidates, 0, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(a[i], b[i]) << i;
  EXPECT_EQ(uncached.stats().cache_hits, 0u);

  // Second identical query: all hits, identical answers.
  cached.score_candidates(target, candidates, 0, again);
  EXPECT_GE(cached.stats().cache_hits, 2u);  // two non-empty candidates
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(again[i], a[i]) << i;

  // Asking for the worst slowdown bypasses the memo (no new hits) and
  // returns the memoized costs bit for bit.
  const std::uint64_t hits = cached.stats().cache_hits;
  const std::vector<std::uint8_t> pstates(3, 0);
  std::vector<double> fresh(3), worst(3);
  cached.score_candidates(target, candidates, pstates, fresh, worst);
  EXPECT_EQ(cached.stats().cache_hits, hits);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(fresh[i], a[i]) << i;

  // Membership change keys a different entry; undoing it restores the
  // original cached answer exactly.
  cached.add_resident(1, cached.id_of("hog"));
  std::vector<double> changed(3);
  cached.score_candidates(target, candidates, 0, changed);
  EXPECT_NE(changed[1], a[1]);
  cached.remove_resident(1, cached.id_of("hog"));
  cached.score_candidates(target, candidates, 0, again);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(again[i], a[i]) << i;
}

TEST_F(PlacementServiceTest, MembershipIdsAreExact) {
  PlacementService service = make_service();
  service.reset_fleet(3);
  const std::uint32_t empty = service.membership_id(0);
  EXPECT_EQ(service.membership_id(2), empty);
  const AppId hog = service.id_of("hog");
  const AppId quiet = service.id_of("quiet");
  const AppId light = service.id_of("light");

  // {hog, quiet, quiet} reached by different add/remove orders.
  service.add_resident(0, hog);
  service.add_resident(0, quiet);
  service.add_resident(0, quiet);
  service.add_resident(1, quiet);
  service.add_resident(1, light);
  service.add_resident(1, quiet);
  service.add_resident(1, hog);
  service.remove_resident(1, light);
  const std::uint32_t hqq = service.membership_id(0);
  EXPECT_EQ(service.membership_id(1), hqq);

  // Distinct same-size memberships get distinct ids.
  std::set<std::uint32_t> ids = {hqq};
  const std::vector<std::vector<AppId>> others = {
      {hog, hog, quiet}, {hog, quiet, light}, {quiet, quiet, light},
      {hog, hog, hog}};
  for (const std::vector<AppId>& members : others) {
    service.reset_fleet(3);
    for (AppId app : members) service.add_resident(2, app);
    ids.insert(service.membership_id(2));
  }
  EXPECT_EQ(ids.size(), 1 + others.size());

  // Ids outlive fleet resets and score-memo clears.
  service.clear_score_cache();
  service.reset_fleet(2);
  EXPECT_EQ(service.membership_id(0), empty);
  service.add_resident(1, quiet);
  service.add_resident(1, hog);
  service.add_resident(1, quiet);
  EXPECT_EQ(service.membership_id(1), hqq);
}

TEST_F(PlacementServiceTest, CollidingMembershipsScoreIndependently) {
  // Two distinct 5-app memberships whose 64-bit FNV-1a membership hash
  // (8 little-endian bytes per sorted AppId, the key the score memo once
  // used) is the same, 0xfc3b202b9c39bd9f. They were found by a parallel
  // Pollard-rho search with distinguished points: each 64-bit walk state
  // encodes 5 strictly increasing AppIds as 13/13/13/13/12-bit gaps, an
  // injective map, so a collision of the walk is a collision of two real
  // memberships; it took between 2^32 and 2^33 hash evaluations.
  const std::vector<AppId> a = {7424, 13281, 14660, 14929, 16202};
  const std::vector<AppId> b = {3013, 8204, 15368, 15715, 17301};

  // A synthetic catalog that covers both: perturbed copies of the campaign
  // baselines, so every feature stays inside the training range.
  std::vector<core::BaselineProfile> catalog;
  const std::size_t apps = 17302;
  catalog.reserve(apps);
  std::vector<const core::BaselineProfile*> seeds;
  for (const auto& [name, profile] : campaign_->baselines) {
    seeds.push_back(&profile);
  }
  for (std::size_t i = 0; i < apps; ++i) {
    core::BaselineProfile p = *seeds[i % seeds.size()];
    p.app_name = "synthetic-" + std::to_string(i);
    for (double& t : p.execution_time_s) t *= 1.0 + 1e-3 * (i % 101);
    p.memory_intensity *= 1.0 + 1e-3 * (i % 89);
    p.cm_per_ca *= 1.0 + 1e-3 * (i % 83);
    p.ca_per_ins *= 1.0 + 1e-3 * (i % 79);
    catalog.push_back(std::move(p));
  }
  const auto make = [&] {
    PlacementService service(predictor_);
    for (const core::BaselineProfile& p : catalog) service.register_app(p);
    return service;
  };
  const AppId target = 42;
  const auto fresh_cost = [&](const std::vector<AppId>& members) {
    PlacementService service = make();
    service.reset_fleet(1);
    for (AppId app : members) service.add_resident(0, app);
    double cost = 0.0;
    service.score_candidates(target, std::vector<std::uint32_t>{0}, 0,
                             {&cost, 1});
    return cost;
  };
  const double fresh_a = fresh_cost(a);
  const double fresh_b = fresh_cost(b);
  ASSERT_NE(fresh_a, fresh_b);

  PlacementService service = make();
  service.reset_fleet(2);
  for (AppId app : a) service.add_resident(0, app);
  for (AppId app : b) service.add_resident(1, app);
  EXPECT_NE(service.membership_id(0), service.membership_id(1));
  // Separate calls, so node 1 is looked up after node 0's entry exists.
  double cost_a = 0.0, cost_b = 0.0;
  service.score_candidates(target, std::vector<std::uint32_t>{0}, 0,
                           {&cost_a, 1});
  service.score_candidates(target, std::vector<std::uint32_t>{1}, 0,
                           {&cost_b, 1});
  EXPECT_EQ(cost_a, fresh_a);
  EXPECT_EQ(cost_b, fresh_b);
  // Both answered from the memo now.
  std::vector<double> both(2);
  service.score_candidates(target, std::vector<std::uint32_t>{0, 1}, 0, both);
  EXPECT_EQ(both[0], fresh_a);
  EXPECT_EQ(both[1], fresh_b);
}

TEST_F(PlacementServiceTest, PerCandidatePStatesMatchScalarOverload) {
  PlacementService service = make_service();
  service.reset_fleet(2);
  service.add_resident(0, service.id_of("hog"));
  service.add_resident(1, service.id_of("hog"));
  const AppId target = service.id_of("light");
  const std::vector<std::uint32_t> candidates = {0, 1};

  std::vector<double> scalar0(2), scalar2(2), mixed(2);
  service.score_candidates(target, candidates, 0, scalar0);
  service.score_candidates(target, candidates, 2, scalar2);
  const std::vector<std::uint8_t> pstates = {0, 2};
  service.score_candidates(target, candidates, pstates, mixed);
  EXPECT_EQ(mixed[0], scalar0[0]);
  EXPECT_EQ(mixed[1], scalar2[1]);
}

TEST_F(PlacementServiceTest, BundleReloadedPredictorAnswersIdentically) {
  const std::string dir =
      ::testing::TempDir() + "/placement_service_zoo";
  store::save_zoo(store::FileOps::real(), dir,
                  {{predictor_->id().name(), &predictor_->model()}});
  const core::ColocationPredictor reloaded =
      load_bundle_predictor(store::FileOps::real(), dir, predictor_->id());

  PlacementService original = make_service();
  PlacementService warm(&reloaded);
  warm.register_library(campaign_->baselines);
  for (PlacementService* s : {&original, &warm}) {
    s->reset_fleet(2);
    s->add_resident(0, s->id_of("hog"));
    s->add_resident(0, s->id_of("medium"));
    s->add_resident(1, s->id_of("quiet"));
  }
  const std::vector<AppId> targets = {original.id_of("light"),
                                      original.id_of("hog")};
  const std::vector<std::uint32_t> nodes = {0, 1};
  std::vector<double> a(2), b(2);
  original.predict_batch(targets, nodes, 1, a);
  warm.predict_batch(targets, nodes, 1, b);
  // Verified zoo entries reload bit-identically, so so do predictions.
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[1], b[1]);
}

TEST_F(PlacementServiceTest, MissingBundleEntryThrowsActionably) {
  const std::string dir =
      ::testing::TempDir() + "/placement_service_zoo_missing";
  store::save_zoo(store::FileOps::real(), dir,
                  {{predictor_->id().name(), &predictor_->model()}});
  const core::ModelId absent = {core::ModelTechnique::kLinear,
                                core::FeatureSet::kA};
  try {
    load_bundle_predictor(store::FileOps::real(), dir, absent);
    FAIL() << "expected runtime_error";
  } catch (const coloc::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(absent.name()), std::string::npos) << message;
  }
}

TEST_F(PlacementServiceTest, InvalidQueriesRejected) {
  PlacementService service = make_service();
  service.reset_fleet(1);
  const AppId target = service.id_of("hog");
  double out = 0.0;
  // Out-of-range node.
  EXPECT_THROW(service.predict_batch({&target, 1},
                                     std::vector<std::uint32_t>{5}, 0,
                                     {&out, 1}),
               coloc::runtime_error);
  // Out-of-range P-state.
  EXPECT_THROW(service.predict_batch({&target, 1},
                                     std::vector<std::uint32_t>{0}, 9,
                                     {&out, 1}),
               coloc::runtime_error);
  // A P-state index that would wrap to a valid byte (256 -> P0) when the
  // scalar overload narrows it for the per-candidate path.
  service.add_resident(0, service.id_of("light"));
  EXPECT_THROW(service.score_candidates(target,
                                        std::vector<std::uint32_t>{0}, 256,
                                        {&out, 1}),
               coloc::runtime_error);
}

}  // namespace
}  // namespace coloc::serve
