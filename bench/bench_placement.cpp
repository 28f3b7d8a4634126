// Placement-service + cluster-replay harness (DESIGN.md §12).
//
// Two arms:
//
//   1. Query throughput — predict_batch over a loaded 64-node fleet,
//      measuring sustained predictions/sec (target: >= 1M/s, i.e. a
//      sub-microsecond amortized hot path) and the batched query latency
//      distribution (p50/p99 from the placement_predict_seconds log-2
//      histogram delta).
//   2. Cluster replay — one seeded million-arrival stream replayed across
//      the fleet under every placement policy through the discrete-event
//      simulator, reporting per-policy mean/max slowdown, deadline-miss
//      rate, energy, and replay wall time.
//
// Writes a machine-readable BENCH_placement.json (override with
// --out=FILE). Its `zoo_bundle_digest`, also a --bundle-out manifest
// extra, names the zoo bundle the warm-start gate served. The exit status
// reflects ONLY the correctness gates — never timing — so CI can run this
// on noisy shared runners:
//   gate interference_beats_first_fit    IA mean slowdown < first-fit
//   gate interference_beats_least_loaded IA mean slowdown < least-loaded
//   gate replay_deterministic            IA replayed twice (inside the
//                                        parallel policy sweep and again
//                                        standalone) -> identical
//                                        JobOutcome streams
//   gate score_cache_transparent         IA with the score memo disabled
//                                        -> identical placements
//   gate zoo_warm_start_identical        IA with the predictor reloaded
//                                        from a store zoo bundle ->
//                                        identical placements
//
// Scale flags: --arrivals (default 1'000'000; --quick 20'000), --nodes
// (default 64; --quick 16), --utilization (default 0.5).
//
// Headline run (Release build):
//   ./build/bench/bench_placement --jobs=0
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "sched/placement_policy.hpp"
#include "serve/demo_fleet.hpp"
#include "serve/event_sim.hpp"
#include "serve/placement_service.hpp"
#include "store/zoo_store.hpp"

namespace {

using namespace coloc;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Gate {
  const char* name;
  bool pass = false;
  std::string detail;
};

/// Exact (bitwise) equality of two replay outcomes' job streams.
bool same_outcomes(const serve::ReplayOutcome& a,
                   const serve::ReplayOutcome& b) {
  if (a.jobs.size() != b.jobs.size()) return false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const serve::JobOutcome& x = a.jobs[i];
    const serve::JobOutcome& y = b.jobs[i];
    if (x.node != y.node || x.pstate != y.pstate ||
        x.deadline_met != y.deadline_met || x.arrival_s != y.arrival_s ||
        x.start_s != y.start_s || x.finish_s != y.finish_s ||
        x.slowdown != y.slowdown) {
      return false;
    }
  }
  return a.makespan_s == b.makespan_s &&
         a.total_energy_j == b.total_energy_j;
}

/// Bucket-delta quantile of placement_predict_seconds between snapshots.
double predict_quantile(const obs::MetricsSnapshot& before,
                        const obs::MetricsSnapshot& after, double q) {
  const obs::MetricSample* b = before.find("placement_predict_seconds");
  const obs::MetricSample* a = after.find("placement_predict_seconds");
  if (a == nullptr) return 0.0;
  std::vector<std::uint64_t> delta = a->histogram_buckets;
  if (b != nullptr) {
    for (std::size_t i = 0; i < delta.size() &&
                            i < b->histogram_buckets.size(); ++i) {
      delta[i] -= b->histogram_buckets[i];
    }
  }
  return obs::Histogram::quantile_from_counts(delta, q);
}

int run(const coloc::CliArgs& args) {
  using namespace coloc;
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const std::size_t nodes = args.get_int("nodes", config.quick ? 16 : 64);
  const std::size_t arrivals =
      args.get_int("arrivals", config.quick ? 20'000 : 1'000'000);
  const double utilization = args.get_double("utilization", 0.5);
  obs::ObsSession session(config.run_session());
  const std::string out_path = args.get("out", "BENCH_placement.json");

  // --- Pipeline: quick campaign -> deployable nn-F predictor.
  const sim::MachineConfig machine = serve::demo::fleet_node();
  sim::AppMrcLibrary library;
  auto t0 = std::chrono::steady_clock::now();
  const serve::demo::DemoPipeline pipeline = serve::demo::build_pipeline(
      library, machine, config.zoo_in, config.jobs);
  const std::vector<sim::ApplicationSpec> catalog = serve::demo::catalog();
  const double train_s = seconds_since(t0);
  std::printf("pipeline (campaign+train): %8.3f s  (%zu rows)\n", train_s,
              pipeline.campaign.dataset.num_rows());

  const auto register_catalog = [&](serve::PlacementService& service) {
    for (const sim::ApplicationSpec& spec : catalog) {
      service.register_app(pipeline.campaign.baselines.at(spec.name));
    }
  };

  // --- Arm 1: query throughput over a loaded fleet.
  serve::PlacementService service(&pipeline.predictor);
  register_catalog(service);
  service.reset_fleet(nodes);
  // Deterministically pre-load ~2 residents/node so queries see real
  // co-location features, not empty-node shortcuts.
  for (std::size_t n = 0; n < nodes; ++n) {
    service.add_resident(n, static_cast<serve::AppId>(n % catalog.size()));
    service.add_resident(n,
                         static_cast<serve::AppId>((n + 3) % catalog.size()));
  }
  const std::size_t batch = 4096;
  const std::size_t total_predictions = config.quick ? 1'000'000 : 8'000'000;
  std::vector<serve::AppId> targets(batch);
  std::vector<std::uint32_t> query_nodes(batch);
  std::vector<double> times(batch);
  for (std::size_t k = 0; k < batch; ++k) {
    targets[k] = static_cast<serve::AppId>(k % catalog.size());
    query_nodes[k] = static_cast<std::uint32_t>((k * 7) % nodes);
  }
  const obs::MetricsSnapshot before = obs::Registry::global().snapshot();
  double checksum = 0.0;
  t0 = std::chrono::steady_clock::now();
  std::size_t issued = 0;
  while (issued < total_predictions) {
    service.predict_batch(targets, query_nodes, 0, times);
    checksum += times[issued % batch];
    issued += batch;
  }
  const double predict_wall_s = seconds_since(t0);
  const obs::MetricsSnapshot after = obs::Registry::global().snapshot();
  const double predictions_per_sec =
      static_cast<double>(issued) / predict_wall_s;
  const double p50 = predict_quantile(before, after, 0.50);
  const double p99 = predict_quantile(before, after, 0.99);
  std::printf(
      "predict throughput   : %8.2f M predictions/s  (%zu in %.3f s, "
      "batch %zu, checksum %.3f)\n",
      predictions_per_sec / 1e6, issued, predict_wall_s, batch, checksum);
  std::printf("query latency        : p50 %.3g s  p99 %.3g s  (batched, "
              "log-2 bucket resolution)\n", p50, p99);

  // --- Arm 2: policy replay of one seeded arrival stream.
  double mean_service_s = 0.0;
  for (const sim::ApplicationSpec& spec : catalog) {
    mean_service_s +=
        pipeline.campaign.baselines.at(spec.name).execution_time_s[0];
  }
  mean_service_s /= static_cast<double>(catalog.size());
  const double mean_interarrival_s =
      mean_service_s / (static_cast<double>(nodes * machine.cores) *
                        utilization);
  const std::vector<serve::Job> stream = serve::make_job_stream(
      catalog.size(), arrivals, mean_interarrival_s, config.seed);

  serve::EventSimConfig sim_config;
  sim_config.node = machine;
  sim_config.nodes = nodes;

  const std::vector<sched::PlacementPolicy>& policies =
      sched::all_placement_policies();
  std::vector<serve::ReplayOutcome> results(policies.size());
  std::vector<double> replay_wall_s(policies.size(), 0.0);
  const auto replay_policy = [&](sched::PlacementPolicy policy,
                                 serve::ServiceOptions options)
      -> serve::ReplayOutcome {
    serve::PlacementService policy_service(&pipeline.predictor, options);
    register_catalog(policy_service);
    serve::EventSimulator sim(sim_config, &library, catalog,
                              &policy_service, &pipeline.campaign.baselines);
    return sim.replay(stream, policy);
  };
  t0 = std::chrono::steady_clock::now();
  parallel_for(global_pool(), policies.size(), [&](std::size_t i) {
    const auto start = std::chrono::steady_clock::now();
    results[i] = replay_policy(policies[i], serve::ServiceOptions{});
    replay_wall_s[i] = seconds_since(start);
  });
  const double replay_total_s = seconds_since(t0);
  std::printf("replay (%zu arrivals x %zu nodes): %8.3f s total\n", arrivals,
              nodes, replay_total_s);
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const serve::ReplayOutcome& r = results[i];
    std::printf(
        "  %-18s : slowdown mean %.4f max %.3f, deadline miss %.4f, "
        "energy %.3f MJ, %.3f s wall\n",
        sched::to_string(policies[i]).c_str(), r.mean_slowdown,
        r.max_slowdown, r.deadline_miss_rate, r.total_energy_j / 1e6,
        replay_wall_s[i]);
  }

  const serve::ReplayOutcome& first_fit = results[0];
  const serve::ReplayOutcome& least_loaded = results[1];
  const serve::ReplayOutcome& interference = results[2];

  // --- Gates.
  std::vector<Gate> gates;
  const auto add_gate = [&gates](const char* name, bool pass,
                                 std::string detail) {
    gates.push_back(Gate{name, pass, std::move(detail)});
    std::printf("gate %-32s: %s  (%s)\n", name, pass ? "PASS" : "FAIL",
                gates.back().detail.c_str());
  };
  char buf[160];
  std::snprintf(buf, sizeof buf, "%.4f vs %.4f",
                interference.mean_slowdown, first_fit.mean_slowdown);
  add_gate("interference_beats_first_fit",
           interference.mean_slowdown < first_fit.mean_slowdown, buf);
  std::snprintf(buf, sizeof buf, "%.4f vs %.4f",
                interference.mean_slowdown, least_loaded.mean_slowdown);
  add_gate("interference_beats_least_loaded",
           interference.mean_slowdown < least_loaded.mean_slowdown, buf);

  // Determinism: the IA replay from the parallel sweep above must equal a
  // standalone serial re-run on fresh service/simulator instances.
  const serve::ReplayOutcome rerun = replay_policy(
      sched::PlacementPolicy::kInterferenceAware, serve::ServiceOptions{});
  add_gate("replay_deterministic", same_outcomes(interference, rerun),
           "parallel-sweep vs standalone replay");

  // Cache transparency + warm start run at reduced scale: both disable
  // the throughput optimizations under test, and identity at any scale is
  // the property being proven.
  const std::size_t small = std::min<std::size_t>(arrivals, 20'000);
  const std::vector<serve::Job> small_stream(stream.begin(),
                                             stream.begin() +
                                                 static_cast<long>(small));
  const auto replay_small = [&](serve::ServiceOptions options,
                                const core::ColocationPredictor* predictor)
      -> serve::ReplayOutcome {
    serve::PlacementService s(predictor, options);
    register_catalog(s);
    serve::EventSimulator sim(sim_config, &library, catalog, &s,
                              &pipeline.campaign.baselines);
    return sim.replay(small_stream,
                      sched::PlacementPolicy::kInterferenceAware);
  };
  const serve::ReplayOutcome cached =
      replay_small(serve::ServiceOptions{}, &pipeline.predictor);
  serve::ServiceOptions no_cache;
  no_cache.enable_score_cache = false;
  const serve::ReplayOutcome uncached =
      replay_small(no_cache, &pipeline.predictor);
  add_gate("score_cache_transparent", same_outcomes(cached, uncached),
           "memo on vs off, identical placements");

  // Warm start: persist the trained model as a store zoo bundle, reload it
  // through the service loader, and replay — placements must be identical
  // because verified entries round-trip bit-identically.
  const std::string bundle_dir =
      !config.zoo_out.empty() ? config.zoo_out
                              : std::string("BENCH_placement_zoo");
  const std::string model_name = pipeline.predictor.id().name();
  const store::ZooSaveResult saved = store::save_zoo(
      bundle_dir, {{model_name, &pipeline.predictor.model()}},
      {{"machine", machine.name}});
  session.add_manifest_extra("zoo_bundle_digest", saved.bundle_digest);
  const core::ColocationPredictor reloaded =
      serve::load_bundle_predictor(bundle_dir, pipeline.predictor.id());
  const serve::ReplayOutcome warm =
      replay_small(serve::ServiceOptions{}, &reloaded);
  add_gate("zoo_warm_start_identical", same_outcomes(cached, warm),
           "bundle " + bundle_dir);

  // --- BENCH_placement.json.
  bool all_pass = true;
  for (const Gate& g : gates) all_pass = all_pass && g.pass;
  std::ofstream os(out_path, std::ios::trunc);
  os << "{\n"
     << "  \"bench\": \"placement\",\n"
     << "  \"nodes\": " << nodes << ",\n"
     << "  \"arrivals\": " << arrivals << ",\n"
     << "  \"seed\": " << config.seed << ",\n"
     << "  \"utilization_target\": " << utilization << ",\n"
     << "  \"train_seconds\": " << train_s << ",\n"
     << "  \"predictions_per_sec\": " << predictions_per_sec << ",\n"
     << "  \"predict_batch\": " << batch << ",\n"
     << "  \"query_latency_p50_s\": " << p50 << ",\n"
     << "  \"query_latency_p99_s\": " << p99 << ",\n"
     << "  \"replay_total_seconds\": " << replay_total_s << ",\n"
     << "  \"zoo_bundle_digest\": \"" << saved.bundle_digest << "\",\n"
     << "  \"policies\": {\n";
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const serve::ReplayOutcome& r = results[i];
    os << "    \"" << sched::to_string(policies[i]) << "\": {"
       << "\"mean_slowdown\": " << r.mean_slowdown
       << ", \"max_slowdown\": " << r.max_slowdown
       << ", \"mean_wait_s\": " << r.mean_wait_s
       << ", \"deadline_miss_rate\": " << r.deadline_miss_rate
       << ", \"energy_j\": " << r.total_energy_j
       << ", \"makespan_s\": " << r.makespan_s
       << ", \"events\": " << r.events_processed
       << ", \"contention_solves\": " << r.contention_solves
       << ", \"wall_seconds\": " << replay_wall_s[i] << "}"
       << (i + 1 < policies.size() ? ",\n" : "\n");
  }
  os << "  },\n"
     << "  \"gates\": {\n";
  for (std::size_t i = 0; i < gates.size(); ++i) {
    os << "    \"" << gates[i].name << "\": "
       << (gates[i].pass ? "true" : "false")
       << (i + 1 < gates.size() ? ",\n" : "\n");
  }
  os << "  },\n"
     << "  \"all_gates_pass\": " << (all_pass ? "true" : "false") << "\n"
     << "}\n";
  os.close();
  std::printf("wrote %s (%s)\n", out_path.c_str(),
              all_pass ? "all gates pass" : "GATE FAILURES");
  return all_pass ? 0 : 1;
}
}  // namespace

int main(int argc, char** argv) {
  return coloc::bench::run_main(argc, argv, run);
}
