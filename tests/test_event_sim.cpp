// EventSimulator: the cluster-scale discrete-event replay loop
// (DESIGN.md §12). Focus areas: stream seeding, physics invariants
// (capacity, FIFO queueing, ground-truth slowdowns), policy behaviour,
// QoS-bounded consolidation of a static batch (Section VI), and the
// determinism contract — identical JobOutcome streams across independent
// instances, across a parallel policy sweep, and across zoo bundle
// save/load.
#include "serve/event_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/campaign.hpp"
#include "sim/execution.hpp"
#include "store/zoo_store.hpp"
#include "test_helpers.hpp"

namespace coloc::serve {
namespace {

using testing_helpers::tiny_machine;
using testing_helpers::tiny_suite;

class EventSimTest : public ::testing::Test {
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

  /// Service with the catalog registered in tiny_suite order, so AppId i
  /// is catalog[i] as the simulator requires.
  static PlacementService make_service(
      const core::ColocationPredictor* predictor) {
    PlacementService service(predictor);
    for (const sim::ApplicationSpec& spec : tiny_suite()) {
      service.register_app(campaign_->baselines.at(spec.name));
    }
    return service;
  }

  static EventSimConfig sim_config(std::size_t nodes) {
    EventSimConfig config;
    config.node = tiny_machine();
    config.nodes = nodes;
    return config;
  }

  /// Mean run-alone time over the catalog at P0 — the unit for picking
  /// arrival rates relative to fleet capacity.
  static double mean_service_time() {
    double sum = 0.0;
    for (const sim::ApplicationSpec& spec : tiny_suite()) {
      sum += campaign_->baselines.at(spec.name).time_at(0);
    }
    return sum / static_cast<double>(tiny_suite().size());
  }

  static ReplayOutcome replay_fresh(const std::vector<Job>& jobs,
                                    sched::PlacementPolicy policy,
                                    const core::ColocationPredictor* p) {
    PlacementService service = make_service(p);
    EventSimulator sim(sim_config(4), library_, tiny_suite(), &service,
                       &campaign_->baselines);
    return sim.replay(jobs, policy);
  }

  static void expect_identical(const ReplayOutcome& a,
                               const ReplayOutcome& b) {
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
      ASSERT_EQ(a.jobs[i].node, b.jobs[i].node) << i;
      ASSERT_EQ(a.jobs[i].pstate, b.jobs[i].pstate) << i;
      ASSERT_EQ(a.jobs[i].start_s, b.jobs[i].start_s) << i;
      ASSERT_EQ(a.jobs[i].finish_s, b.jobs[i].finish_s) << i;
      ASSERT_EQ(a.jobs[i].slowdown, b.jobs[i].slowdown) << i;
    }
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  }

  static sim::AppMrcLibrary* library_;
  static sim::Simulator* simulator_;
  static core::CampaignResult* campaign_;
  static core::ColocationPredictor* predictor_;
};

sim::AppMrcLibrary* EventSimTest::library_ = nullptr;
sim::Simulator* EventSimTest::simulator_ = nullptr;
core::CampaignResult* EventSimTest::campaign_ = nullptr;
core::ColocationPredictor* EventSimTest::predictor_ = nullptr;

TEST_F(EventSimTest, JobStreamIsSeededAndSorted) {
  const std::vector<Job> a = make_job_stream(4, 64, 2.0, 11);
  const std::vector<Job> b = make_job_stream(4, 64, 2.0, 11);
  const std::vector<Job> c = make_job_stream(4, 64, 2.0, 12);
  ASSERT_EQ(a.size(), 64u);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_LT(a[i].app, 4u);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
    }
    differs = differs || a[i].app != c[i].app ||
              a[i].arrival_s != c[i].arrival_s;
  }
  EXPECT_TRUE(differs) << "different seeds produced identical streams";
}

TEST_F(EventSimTest, LoneJobRunsUndisturbedAtBaseline) {
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(2), library_, tiny_suite(), &service,
                     &campaign_->baselines);
  const std::vector<Job> jobs = {{/*app=*/2, /*arrival_s=*/1.5}};
  const ReplayOutcome out =
      sim.replay(jobs, sched::PlacementPolicy::kFirstFit);
  ASSERT_EQ(out.jobs.size(), 1u);
  const JobOutcome& job = out.jobs[0];
  EXPECT_EQ(job.node, 0u);  // first fit, empty fleet
  EXPECT_EQ(job.start_s, 1.5);
  // Ground truth comes from the same solver that produced alone_time, so
  // an undisturbed run is slowdown 1 up to solver round-off.
  EXPECT_NEAR(job.slowdown, 1.0, 1e-9);
  EXPECT_TRUE(job.deadline_met);
  EXPECT_NEAR(out.makespan_s - 1.5, sim.alone_time(2), 1e-9);
  EXPECT_GT(out.total_energy_j, 0.0);
}

TEST_F(EventSimTest, CapacityNeverExceedsCoresPerNode) {
  // Saturating burst: everything arrives at t=0; residency intervals on
  // each node must never overlap more than `cores` deep, and queued jobs
  // must start only when earlier ones finish (start >= arrival).
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(2), library_, tiny_suite(), &service,
                     &campaign_->baselines);
  const std::vector<Job> jobs = make_job_stream(4, 24, 0.0, 5);
  const ReplayOutcome out =
      sim.replay(jobs, sched::PlacementPolicy::kLeastLoaded);
  ASSERT_EQ(out.jobs.size(), 24u);
  bool queued = false;
  // Sweep-line over residency intervals: departures before arrivals at
  // equal times (a queued job may start exactly when another finishes).
  std::vector<std::vector<std::pair<double, int>>> events(2);
  for (std::size_t i = 0; i < out.jobs.size(); ++i) {
    const JobOutcome& job = out.jobs[i];
    EXPECT_GE(job.start_s, job.arrival_s) << i;
    EXPECT_GT(job.finish_s, job.start_s) << i;
    queued = queued || job.start_s > job.arrival_s;
    events[job.node].push_back({job.start_s, +1});
    events[job.node].push_back({job.finish_s, -1});
  }
  for (std::size_t n = 0; n < events.size(); ++n) {
    std::sort(events[n].begin(), events[n].end());
    int depth = 0;
    for (const auto& [time, delta] : events[n]) {
      depth += delta;
      EXPECT_LE(depth, static_cast<int>(tiny_machine().cores))
          << "node " << n << " at t=" << time;
    }
    EXPECT_EQ(depth, 0);
  }
  EXPECT_TRUE(queued) << "24 simultaneous jobs on 8 cores must queue";
}

TEST_F(EventSimTest, CoLocationSlowsJobsDown) {
  // A packed node must report slowdowns > 1 (ground truth from the
  // contention solver, not the model).
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(1), library_, tiny_suite(), &service,
                     &campaign_->baselines);
  const std::vector<Job> jobs = {{0, 0.0}, {0, 0.0}, {1, 0.0}, {2, 0.0}};
  const ReplayOutcome out =
      sim.replay(jobs, sched::PlacementPolicy::kFirstFit);
  for (const JobOutcome& job : out.jobs) EXPECT_GT(job.slowdown, 1.0);
  EXPECT_GT(out.mean_slowdown, 1.0);
  EXPECT_EQ(out.deadline_miss_rate, 0.0);  // slack 3.0 is generous here
}

TEST_F(EventSimTest, SlowdownNeverBelowOneUnderAnyPolicy) {
  // Co-location and lower P-states can only slow a job down relative to
  // running alone at the reference P-state. The stream oversubscribes the
  // fleet, so every policy also exercises the queue.
  const std::vector<Job> jobs =
      make_job_stream(4, 120, mean_service_time() / 16.0, 23);
  for (const sched::PlacementPolicy policy : sched::all_placement_policies()) {
    SCOPED_TRACE(sched::to_string(policy));
    const ReplayOutcome out = replay_fresh(jobs, policy, predictor_);
    bool queued = false;
    for (std::size_t i = 0; i < out.jobs.size(); ++i) {
      EXPECT_GE(out.jobs[i].slowdown, 1.0 - 1e-9) << i;
      queued = queued || out.jobs[i].start_s > out.jobs[i].arrival_s;
    }
    EXPECT_TRUE(queued) << "the stream must exhaust the fleet's cores";
  }
}

TEST_F(EventSimTest, MeanSlowdownGrowsWithCoRunnerCount) {
  // k simultaneous copies of the hungriest app on one node: each added
  // co-runner adds LLC and DRAM pressure, so the mean slowdown must not
  // fall as k grows to the core count.
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(1), library_, tiny_suite(), &service,
                     &campaign_->baselines);
  double previous = 0.0;
  for (std::size_t k = 1; k <= tiny_machine().cores; ++k) {
    const std::vector<Job> jobs(k, Job{0, 0.0});
    const ReplayOutcome out =
        sim.replay(jobs, sched::PlacementPolicy::kFirstFit);
    EXPECT_GE(out.mean_slowdown, previous) << "k=" << k;
    previous = out.mean_slowdown;
  }
}

TEST_F(EventSimTest, AloneTimeNeverFallsAtSlowerPStates) {
  // P0 is the fastest state; every step down the table lowers the clock,
  // so no application may run alone faster than at the previous state.
  PlacementService service = make_service(predictor_);
  const std::size_t num_pstates = tiny_machine().pstates.size();
  std::vector<std::vector<double>> alone(num_pstates);
  for (std::size_t p = 0; p < num_pstates; ++p) {
    EventSimConfig config = sim_config(1);
    config.pstate_index = p;
    EventSimulator sim(config, library_, tiny_suite(), &service);
    for (AppId app = 0; app < tiny_suite().size(); ++app) {
      alone[p].push_back(sim.alone_time(app));
    }
  }
  for (std::size_t p = 1; p < num_pstates; ++p) {
    for (std::size_t app = 0; app < alone[p].size(); ++app) {
      EXPECT_GE(alone[p][app], alone[p - 1][app])
          << tiny_suite()[app].name << " at P" << p;
    }
  }
}

TEST_F(EventSimTest, OutcomeAggregatesMatchPerJobOutcomes) {
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(2), library_, tiny_suite(), &service,
                     &campaign_->baselines);
  const std::vector<Job> jobs =
      make_job_stream(4, 40, mean_service_time() / 6.0, 3);
  const ReplayOutcome out =
      sim.replay(jobs, sched::PlacementPolicy::kInterferenceAware);
  double slow_sum = 0.0, wait_sum = 0.0, max_slow = 0.0, makespan = 0.0;
  std::size_t missed = 0;
  for (const JobOutcome& job : out.jobs) {
    slow_sum += job.slowdown;
    wait_sum += job.start_s - job.arrival_s;
    max_slow = std::max(max_slow, job.slowdown);
    makespan = std::max(makespan, job.finish_s);
    missed += job.deadline_met ? 0 : 1;
  }
  const double n = static_cast<double>(out.jobs.size());
  EXPECT_NEAR(out.mean_slowdown, slow_sum / n, 1e-12);
  EXPECT_NEAR(out.mean_wait_s, wait_sum / n, 1e-12);
  EXPECT_EQ(out.max_slowdown, max_slow);
  EXPECT_EQ(out.makespan_s, makespan);
  EXPECT_NEAR(out.deadline_miss_rate, static_cast<double>(missed) / n,
              1e-12);
}

TEST_F(EventSimTest, InterferenceAwareBeatsFirstFitOnMeanSlowdown) {
  const std::vector<Job> jobs =
      make_job_stream(4, 400, mean_service_time() / 8.0, 7);
  const ReplayOutcome ff =
      replay_fresh(jobs, sched::PlacementPolicy::kFirstFit, predictor_);
  const ReplayOutcome ia = replay_fresh(
      jobs, sched::PlacementPolicy::kInterferenceAware, predictor_);
  EXPECT_LT(ia.mean_slowdown, ff.mean_slowdown);
}

TEST_F(EventSimTest, DvfsAwareStaysInRangeAndSavesEnergy) {
  const std::vector<Job> jobs =
      make_job_stream(4, 200, mean_service_time() / 8.0, 9);
  const ReplayOutcome ia = replay_fresh(
      jobs, sched::PlacementPolicy::kInterferenceAware, predictor_);
  const ReplayOutcome dvfs =
      replay_fresh(jobs, sched::PlacementPolicy::kDvfsAware, predictor_);
  for (const JobOutcome& job : dvfs.jobs) {
    EXPECT_LT(job.pstate, tiny_machine().pstates.size());
  }
  // With slack 3.0 the deadline leg has headroom to drop P-states, so the
  // fleet must not spend MORE energy than the fixed-P0 policy.
  EXPECT_LE(dvfs.total_energy_j, ia.total_energy_j);
  EXPECT_GT(dvfs.total_energy_j, 0.0);
}

TEST_F(EventSimTest, ReplayIsDeterministicAcrossInstancesAndReuse) {
  const std::vector<Job> jobs =
      make_job_stream(4, 150, mean_service_time() / 8.0, 13);
  const ReplayOutcome first = replay_fresh(
      jobs, sched::PlacementPolicy::kInterferenceAware, predictor_);
  const ReplayOutcome fresh = replay_fresh(
      jobs, sched::PlacementPolicy::kInterferenceAware, predictor_);
  expect_identical(first, fresh);

  // Reusing one simulator across policies (replay resets the fleet but
  // keeps its pure memo caches) must not perturb results either.
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(4), library_, tiny_suite(), &service,
                     &campaign_->baselines);
  (void)sim.replay(jobs, sched::PlacementPolicy::kFirstFit);
  const ReplayOutcome reused =
      sim.replay(jobs, sched::PlacementPolicy::kInterferenceAware);
  expect_identical(first, reused);
}

TEST_F(EventSimTest, ParallelPolicySweepMatchesSerialReplay) {
  // The tool/bench replay policies concurrently on independent instances;
  // each must equal its serial twin bit-for-bit at any worker count.
  const std::vector<Job> jobs =
      make_job_stream(4, 150, mean_service_time() / 8.0, 17);
  const std::vector<sched::PlacementPolicy>& policies =
      sched::all_placement_policies();
  std::vector<ReplayOutcome> serial(policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    serial[i] = replay_fresh(jobs, policies[i], predictor_);
  }
  std::vector<ReplayOutcome> parallel(policies.size());
  parallel_for(global_pool(), policies.size(), [&](std::size_t i) {
    parallel[i] = replay_fresh(jobs, policies[i], predictor_);
  });
  for (std::size_t i = 0; i < policies.size(); ++i) {
    expect_identical(serial[i], parallel[i]);
  }
}

TEST_F(EventSimTest, ReplayIdenticalAcrossZooSaveLoad) {
  const std::string dir = ::testing::TempDir() + "/event_sim_zoo";
  store::save_zoo(dir, {{predictor_->id().name(), &predictor_->model()}});
  const core::ColocationPredictor reloaded =
      load_bundle_predictor(dir, predictor_->id());
  const std::vector<Job> jobs =
      make_job_stream(4, 120, mean_service_time() / 8.0, 19);
  const ReplayOutcome original = replay_fresh(
      jobs, sched::PlacementPolicy::kDvfsAware, predictor_);
  const ReplayOutcome warm = replay_fresh(
      jobs, sched::PlacementPolicy::kDvfsAware, &reloaded);
  expect_identical(original, warm);
}

TEST_F(EventSimTest, MisalignedCatalogRejected) {
  PlacementService service = make_service(predictor_);
  std::vector<sim::ApplicationSpec> shuffled = tiny_suite();
  std::swap(shuffled[0], shuffled[1]);
  EXPECT_THROW(EventSimulator(sim_config(2), library_, shuffled, &service,
                              &campaign_->baselines),
               coloc::runtime_error);
}

// Small hand-built cluster scenarios: a handful of jobs on one to four
// nodes, where the expected placement and queueing can be read off the
// inputs. Same fixture as EventSimTest.
class ClusterTest : public EventSimTest {};

TEST_F(ClusterTest, PolicyNames) {
  // The tokens label every replay row and are the --policy CLI values.
  EXPECT_EQ(sched::to_string(sched::PlacementPolicy::kFirstFit), "first-fit");
  EXPECT_EQ(sched::to_string(sched::PlacementPolicy::kLeastLoaded),
            "least-loaded");
  EXPECT_EQ(sched::to_string(sched::PlacementPolicy::kInterferenceAware),
            "interference-aware");
  EXPECT_EQ(sched::to_string(sched::PlacementPolicy::kDvfsAware),
            "dvfs-aware");
}

TEST_F(ClusterTest, SingleJobRunsAtBaselineSpeed) {
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(2), library_, tiny_suite(), &service);
  const ReplayOutcome out =
      sim.replay({{3, 0.0}}, sched::PlacementPolicy::kFirstFit);
  ASSERT_EQ(out.jobs.size(), 1u);
  EXPECT_NEAR(out.jobs[0].slowdown, 1.0, 1e-6);
  EXPECT_NEAR(out.makespan_s, out.jobs[0].finish_s, 1e-9);
  EXPECT_EQ(out.mean_wait_s, 0.0);
}

TEST_F(ClusterTest, AllJobsComplete) {
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(2), library_, tiny_suite(), &service);
  const ReplayOutcome out = sim.replay(make_job_stream(4, 12, 10.0, 1),
                                       sched::PlacementPolicy::kLeastLoaded);
  ASSERT_EQ(out.jobs.size(), 12u);
  for (const JobOutcome& job : out.jobs) {
    EXPECT_GE(job.start_s, job.arrival_s);
    EXPECT_GT(job.finish_s, job.start_s);
    EXPECT_GE(job.slowdown, 0.999);
    EXPECT_LT(job.node, 2u);
  }
  EXPECT_GT(out.total_energy_j, 0.0);
}

TEST_F(ClusterTest, CoLocatedJobsSlowDown) {
  // Four copies of the hungriest app arriving together on one node must
  // interfere.
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(1), library_, tiny_suite(), &service);
  const std::vector<Job> jobs(4, Job{0, 0.0});
  const ReplayOutcome out =
      sim.replay(jobs, sched::PlacementPolicy::kFirstFit);
  EXPECT_GT(out.mean_slowdown, 1.05);
}

TEST_F(ClusterTest, QueueingHappensWhenCoresExhausted) {
  // 1 node x 4 cores, 6 simultaneous jobs: exactly two must wait.
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(1), library_, tiny_suite(), &service);
  const std::vector<Job> jobs(6, Job{3, 0.0});
  const ReplayOutcome out =
      sim.replay(jobs, sched::PlacementPolicy::kFirstFit);
  std::size_t waited = 0;
  for (const JobOutcome& job : out.jobs) {
    if (job.start_s > job.arrival_s) ++waited;
  }
  EXPECT_EQ(waited, 2u);
  EXPECT_GT(out.mean_wait_s, 0.0);
}

TEST_F(ClusterTest, LeastLoadedSpreadsAcrossNodes) {
  // One job per node: nobody shares a node, so each runs at slowdown 1.
  const std::vector<Job> jobs(4, Job{0, 0.0});
  const ReplayOutcome out = replay_fresh(
      jobs, sched::PlacementPolicy::kLeastLoaded, predictor_);
  std::set<std::uint32_t> used;
  for (const JobOutcome& job : out.jobs) {
    used.insert(job.node);
    EXPECT_NEAR(job.slowdown, 1.0, 1e-9);
  }
  EXPECT_EQ(used.size(), 4u);
}

TEST_F(ClusterTest, FirstFitPacksOneNode) {
  const std::vector<Job> jobs(4, Job{1, 0.0});
  const ReplayOutcome out =
      replay_fresh(jobs, sched::PlacementPolicy::kFirstFit, predictor_);
  for (const JobOutcome& job : out.jobs) EXPECT_EQ(job.node, 0u);
}

TEST_F(ClusterTest, InterferenceAwareBeatsFirstFitOnSlowdown) {
  // A mix of hungry and quiet jobs arriving in two bursts on 3 nodes.
  std::vector<Job> jobs;
  for (int burst = 0; burst < 2; ++burst) {
    for (AppId app = 0; app < tiny_suite().size(); ++app) {
      jobs.push_back(Job{app, burst * 50.0});
    }
  }
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(3), library_, tiny_suite(), &service);
  const ReplayOutcome aware =
      sim.replay(jobs, sched::PlacementPolicy::kInterferenceAware);
  const ReplayOutcome blind =
      sim.replay(jobs, sched::PlacementPolicy::kFirstFit);
  EXPECT_LE(aware.mean_slowdown, blind.mean_slowdown + 1e-9);
}

TEST_F(ClusterTest, InterferenceAwareNeedsPredictor) {
  // Interference-aware placement scores nodes through the service, which
  // cannot exist without a predictor; the DVFS leg also needs baselines.
  EXPECT_THROW(PlacementService(nullptr), coloc::runtime_error);
  PlacementService service = make_service(predictor_);
  EventSimulator sim(sim_config(2), library_, tiny_suite(), &service);
  EXPECT_THROW(sim.replay({{0, 0.0}}, sched::PlacementPolicy::kDvfsAware),
               coloc::runtime_error);
}

TEST_F(ClusterTest, EmptyJobListYieldsEmptyOutcome) {
  const ReplayOutcome out =
      replay_fresh({}, sched::PlacementPolicy::kFirstFit, predictor_);
  EXPECT_TRUE(out.jobs.empty());
  EXPECT_EQ(out.makespan_s, 0.0);
  EXPECT_EQ(out.total_energy_j, 0.0);
}

TEST_F(ClusterTest, JobStreamGeneratorProperties) {
  const std::vector<Job> jobs = make_job_stream(4, 10, 5.0, 7);
  ASSERT_EQ(jobs.size(), 10u);
  EXPECT_EQ(jobs[0].arrival_s, 0.0);  // the stream opens at t = 0
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].arrival_s, jobs[i - 1].arrival_s);
  }
  for (const Job& job : jobs) EXPECT_LT(job.app, 4u);
  // Deterministic per seed.
  const std::vector<Job> again = make_job_stream(4, 10, 5.0, 7);
  EXPECT_EQ(jobs[9].app, again[9].app);
  EXPECT_EQ(jobs[9].arrival_s, again[9].arrival_s);
  // An empty catalog or a negative mean gap is rejected.
  EXPECT_THROW(make_job_stream(0, 10, 5.0, 7), coloc::runtime_error);
  EXPECT_THROW(make_job_stream(4, 10, -1.0, 7), coloc::runtime_error);
}

TEST_F(ClusterTest, ZeroInterarrivalMeansSimultaneous) {
  const std::vector<Job> jobs = make_job_stream(4, 5, 0.0, 1);
  ASSERT_EQ(jobs.size(), 5u);
  for (const Job& job : jobs) EXPECT_EQ(job.arrival_s, 0.0);
}

TEST_F(ClusterTest, InvalidConfigRejected) {
  PlacementService service = make_service(predictor_);
  EXPECT_THROW(EventSimulator(sim_config(0), library_, tiny_suite(),
                              &service),
               coloc::runtime_error);
  EventSimConfig bad_pstate = sim_config(1);
  bad_pstate.pstate_index = tiny_machine().pstates.size();
  EXPECT_THROW(EventSimulator(bad_pstate, library_, tiny_suite(), &service),
               coloc::runtime_error);
  EXPECT_THROW(EventSimulator(sim_config(1), nullptr, tiny_suite(),
                              &service),
               coloc::runtime_error);
  EXPECT_THROW(EventSimulator(sim_config(1), library_, tiny_suite(),
                              nullptr),
               coloc::runtime_error);
  for (const double bound :
       {-0.5, std::numeric_limits<double>::quiet_NaN()}) {
    EventSimConfig bad_bound = sim_config(1);
    bad_bound.max_slowdown = bound;
    EXPECT_THROW(EventSimulator(bad_bound, library_, tiny_suite(), &service),
                 coloc::runtime_error)
        << bound;
  }
}

// Section VI consolidation of a static batch: every job arrives at t = 0,
// so a node's co-location is the group placed on it at t = 0. Same fixture
// as EventSimTest.
class SchedulerTest : public EventSimTest {
 protected:
  /// `copies` of every tiny-suite app, all arriving at t = 0.
  static std::vector<Job> batch(std::size_t copies) {
    std::vector<Job> jobs;
    for (AppId app = 0; app < tiny_suite().size(); ++app) {
      for (std::size_t i = 0; i < copies; ++i) jobs.push_back({app, 0.0});
    }
    return jobs;
  }

  static ReplayOutcome replay_batch(const std::vector<Job>& jobs,
                                    std::size_t nodes,
                                    sched::PlacementPolicy policy,
                                    double max_slowdown = 0.0) {
    PlacementService service = make_service(predictor_);
    EventSimConfig config = sim_config(nodes);
    config.max_slowdown = max_slowdown;
    EventSimulator sim(config, library_, tiny_suite(), &service);
    return sim.replay(jobs, policy);
  }

  /// Job indices each node ran from t = 0, indexed by node.
  static std::vector<std::vector<std::size_t>> groups(
      const ReplayOutcome& out, std::size_t nodes) {
    std::vector<std::vector<std::size_t>> by_node(nodes);
    for (std::size_t i = 0; i < out.jobs.size(); ++i) {
      if (out.jobs[i].start_s == 0.0) by_node[out.jobs[i].node].push_back(i);
    }
    return by_node;
  }

  static std::size_t nodes_used(const ReplayOutcome& out) {
    std::set<std::uint32_t> used;
    for (const JobOutcome& job : out.jobs) used.insert(job.node);
    return used.size();
  }

  /// The model's slowdown for each job of a t = 0 group, next to the other
  /// members of its group (1.0 for a job alone).
  static std::vector<double> predicted_slowdowns(
      const std::vector<Job>& jobs,
      const std::vector<std::vector<std::size_t>>& groups) {
    std::vector<double> slowdowns;
    for (const std::vector<std::size_t>& group : groups) {
      for (const std::size_t subject : group) {
        std::vector<const core::BaselineProfile*> coapps;
        for (const std::size_t other : group) {
          if (other != subject) coapps.push_back(baseline(jobs[other]));
        }
        slowdowns.push_back(coapps.empty()
                                ? 1.0
                                : predictor_->predict_slowdown(
                                      *baseline(jobs[subject]), coapps, 0));
      }
    }
    return slowdowns;
  }

  static const core::BaselineProfile* baseline(const Job& job) {
    return &campaign_->baselines.at(tiny_suite()[job.app].name);
  }
};

TEST_F(SchedulerTest, PackedFillsNodesCompletely) {
  const std::vector<Job> jobs = batch(2);  // 8 jobs on 4-core nodes
  const ReplayOutcome out =
      replay_batch(jobs, 4, sched::PlacementPolicy::kFirstFit);
  const auto by_node = groups(out, 4);
  EXPECT_EQ(by_node[0].size(), 4u);
  EXPECT_EQ(by_node[1].size(), 4u);
  EXPECT_EQ(nodes_used(out), 2u);
}

TEST_F(SchedulerTest, SpreadBalancesLoad) {
  const std::vector<Job> jobs = batch(2);  // 8 jobs on 2 nodes, 4 each
  const ReplayOutcome out =
      replay_batch(jobs, 2, sched::PlacementPolicy::kLeastLoaded);
  const auto by_node = groups(out, 2);
  EXPECT_EQ(by_node[0].size(), 4u);
  EXPECT_EQ(by_node[1].size(), 4u);
}

TEST_F(SchedulerTest, EveryJobAssignedExactlyOnce) {
  const std::vector<Job> jobs = batch(3);  // 12 jobs fit 4 nodes at once
  for (const sched::PlacementPolicy policy :
       {sched::PlacementPolicy::kFirstFit,
        sched::PlacementPolicy::kLeastLoaded,
        sched::PlacementPolicy::kInterferenceAware}) {
    SCOPED_TRACE(sched::to_string(policy));
    const ReplayOutcome out = replay_batch(jobs, 4, policy, 1.25);
    ASSERT_EQ(out.jobs.size(), jobs.size());
    std::size_t placed = 0;
    for (const std::vector<std::size_t>& group : groups(out, 4)) {
      EXPECT_LE(group.size(), tiny_machine().cores);
      placed += group.size();
    }
    EXPECT_EQ(placed, jobs.size());
  }
}

TEST_F(SchedulerTest, InterferenceAwareRespectsQosBound) {
  // Tight bound, and one node per job so the bound never has to give.
  const double bound = 1.05;
  const std::vector<Job> jobs = batch(2);
  const ReplayOutcome out = replay_batch(
      jobs, jobs.size(), sched::PlacementPolicy::kInterferenceAware, bound);
  for (const double slowdown :
       predicted_slowdowns(jobs, groups(out, jobs.size()))) {
    EXPECT_LE(slowdown, bound + 1e-9);
  }
}

TEST_F(SchedulerTest, InterferenceAwareUsesAtMostPackedNodesPlusSlack) {
  // With a loose bound it should consolidate well (not one job per node).
  const std::vector<Job> jobs = batch(2);
  const ReplayOutcome out = replay_batch(
      jobs, jobs.size(), sched::PlacementPolicy::kInterferenceAware, 1.5);
  EXPECT_LE(nodes_used(out), 4u);
}

TEST_F(SchedulerTest, EvaluateReportsConsistentOutcome) {
  const ReplayOutcome out =
      replay_batch(batch(1), 2, sched::PlacementPolicy::kFirstFit);
  EXPECT_EQ(out.policy, sched::PlacementPolicy::kFirstFit);
  EXPECT_EQ(nodes_used(out), 1u);  // 4 jobs fit one node
  EXPECT_GE(out.mean_slowdown, 1.0);
  EXPECT_GE(out.max_slowdown, out.mean_slowdown);
  EXPECT_GT(out.total_energy_j, 0.0);
  EXPECT_GT(out.makespan_s, 0.0);
}

TEST_F(SchedulerTest, SpreadHasLowerSlowdownThanPacked) {
  const std::vector<Job> jobs = batch(2);
  const ReplayOutcome packed =
      replay_batch(jobs, 2, sched::PlacementPolicy::kFirstFit);
  const ReplayOutcome spread =
      replay_batch(jobs, 2, sched::PlacementPolicy::kLeastLoaded);
  EXPECT_LE(spread.mean_slowdown, packed.mean_slowdown + 1e-9);
}

TEST_F(SchedulerTest, PredictionTracksActualSlowdown) {
  // The model predicts each job against its whole t = 0 group; the replay
  // lets survivors speed up as co-runners finish. The two means still
  // agree within 25%.
  const std::vector<Job> jobs = batch(2);
  const ReplayOutcome out =
      replay_batch(jobs, 2, sched::PlacementPolicy::kFirstFit);
  const std::vector<double> predicted =
      predicted_slowdowns(jobs, groups(out, 2));
  ASSERT_EQ(predicted.size(), jobs.size());
  double sum = 0.0;
  for (const double slowdown : predicted) sum += slowdown;
  const double predicted_mean = sum / static_cast<double>(predicted.size());
  EXPECT_NEAR(predicted_mean, out.mean_slowdown, 0.25 * out.mean_slowdown);
}

TEST_F(SchedulerTest, NodeBudgetEnforced) {
  // One 4-core node cannot keep 8 jobs within a tight bound: the fallback
  // packs it and the queue holds the rest, and every job still completes.
  const std::vector<Job> jobs = batch(2);
  const ReplayOutcome out = replay_batch(
      jobs, 1, sched::PlacementPolicy::kInterferenceAware, 1.05);
  ASSERT_EQ(out.jobs.size(), jobs.size());
  std::size_t queued = 0;
  for (const JobOutcome& job : out.jobs) {
    EXPECT_EQ(job.node, 0u);
    EXPECT_GT(job.finish_s, job.start_s);
    if (job.start_s > job.arrival_s) ++queued;
  }
  EXPECT_EQ(groups(out, 1)[0].size(), tiny_machine().cores);
  EXPECT_EQ(queued, jobs.size() - tiny_machine().cores);
}

// The lazy-deletion event heap that detail::CompletionIndex replaced, as a
// reference: each update pushes every resident's completion under the
// node's epoch, any update or clear bumps the epoch, and a pop first
// discards entries whose node changed since their push.
class LazyDeletionHeap {
 public:
  struct Event {
    double time_s = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t node = 0;
    std::uint64_t epoch = 0;
    std::size_t job_index = 0;
  };

  explicit LazyDeletionHeap(std::size_t nodes) : epoch_(nodes, 0) {}

  void update(std::uint32_t node, double time_s, std::uint64_t seq,
              std::size_t job_index) {
    heap_.push(Event{time_s, seq, node, epoch_[node], job_index});
  }
  void bump(std::uint32_t node) { ++epoch_[node]; }

  /// The earliest live event, or null when none is left.
  const Event* top() {
    while (!heap_.empty() && heap_.top().epoch != epoch_[heap_.top().node]) {
      heap_.pop();
    }
    return heap_.empty() ? nullptr : &heap_.top();
  }

 private:
  struct After {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time_s != b.time_s) return a.time_s > b.time_s;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, After> heap_;
  std::vector<std::uint64_t> epoch_;
};

TEST(CompletionIndex, MatchesLazyDeletionHeapReference) {
  // Times come from a handful of values, so equal times within a node and
  // across nodes are common; seq then decides, as in the heap.
  const double kTimes[] = {1.0, 2.0, 3.0, 4.0};
  std::size_t pops = 0, cross_node_ties = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    coloc::Rng rng(seed);
    // 1 to 9 nodes: single-leaf and non-power-of-two trees included.
    const std::size_t nodes = 1 + rng.uniform_index(9);
    detail::CompletionIndex index;
    index.reset(nodes);
    LazyDeletionHeap reference(nodes);
    std::uint64_t next_seq = 0;
    std::size_t next_job = 0;

    // Re-solving a node: 1 to 4 residents, each pushed to the reference;
    // the index gets the strict-< minimum in resident order, as
    // EventSimulator::resolve_node sets it. A clear empties the node.
    const auto resolve = [&](std::uint32_t node) {
      reference.bump(node);
      if (rng.uniform_index(5) == 0) {
        index.clear(node);
        return;
      }
      const std::size_t residents = 1 + rng.uniform_index(4);
      double first_s = 0.0;
      std::uint64_t first_seq = 0;
      std::size_t first_job = 0;
      for (std::size_t i = 0; i < residents; ++i) {
        const double time_s = kTimes[rng.uniform_index(4)];
        const std::uint64_t seq = next_seq++;
        const std::size_t job = next_job++;
        reference.update(node, time_s, seq, job);
        if (i == 0 || time_s < first_s) {
          first_s = time_s;
          first_seq = seq;
          first_job = job;
        }
      }
      index.set(node, first_s, first_seq, first_job);
    };

    for (int op = 0; op < 400; ++op) {
      if (rng.uniform_index(2) == 0) {
        resolve(static_cast<std::uint32_t>(rng.uniform_index(nodes)));
        continue;
      }
      // A pop: the next completion, after which its node is re-solved.
      const LazyDeletionHeap::Event* want = reference.top();
      const std::uint32_t node = index.top();
      if (want == nullptr) {
        EXPECT_EQ(index.time_s(node), std::numeric_limits<double>::infinity())
            << "seed " << seed << " op " << op;
        continue;
      }
      ++pops;
      ASSERT_EQ(node, want->node) << "seed " << seed << " op " << op;
      ASSERT_EQ(index.job_index(node), want->job_index)
          << "seed " << seed << " op " << op;
      ASSERT_EQ(index.time_s(node), want->time_s)
          << "seed " << seed << " op " << op;
      for (std::uint32_t n = 0; n < nodes; ++n) {
        if (n != node && index.time_s(n) == want->time_s) {
          ++cross_node_ties;
          break;
        }
      }
      resolve(node);
    }
  }
  // The sequences pop often and tie across nodes often.
  EXPECT_GT(pops, 4000u);
  EXPECT_GT(cross_node_ties, 1000u);
}

}  // namespace
}  // namespace coloc::serve
