#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "harness.hpp"
#include "sim/profile_memo.hpp"

namespace perfbench {

namespace {

using coloc::Rng;
using coloc::sim::ApplicationSpec;

// Distinct streams per input kind, so one seed never correlates them.
constexpr std::uint64_t kVariantStream = 0x76617269616e7473ULL;
constexpr std::uint64_t kQueryStream = 0x7175657279736372ULL;

ApplicationSpec perturb(const ApplicationSpec& base, Rng& rng,
                        const std::string& name) {
  ApplicationSpec v = base;
  v.name = name;
  v.trace.name = name;
  // Profile over the base app's horizon, so the profiling work and memory
  // of a variant do not depend on the seed; only its reuse pattern does.
  v.profile_references = base.suggested_profile_length();
  v.instructions *= rng.uniform(0.9, 1.1);
  v.refs_per_instruction *= rng.uniform(0.9, 1.1);
  for (coloc::sim::Phase& p : v.trace.phases) {
    p.working_set_lines = std::max<std::size_t>(
        64, static_cast<std::size_t>(static_cast<double>(p.working_set_lines) *
                                     rng.uniform(0.6, 1.4)));
    p.zipf_exponent = std::clamp(p.zipf_exponent + rng.uniform(-0.05, 0.05),
                                 0.3, 1.5);
    p.mix.streaming *= rng.uniform(0.8, 1.2);
    p.mix.strided *= rng.uniform(0.8, 1.2);
    p.mix.hot_cold *= rng.uniform(0.8, 1.2);
    p.mix.pointer *= rng.uniform(0.8, 1.2);
  }
  return v;
}

/// Memo key of an app's trace shape and horizon, seed fixed: equal keys
/// mean equal traces for every profiling seed.
std::string shape_key(const ApplicationSpec& app) {
  return coloc::sim::ProfileMemo::key(app.trace, 0,
                                      app.suggested_profile_length());
}

}  // namespace

CharacterizeInputs make_characterize_inputs(std::uint64_t seed,
                                            std::size_t variants_per_app,
                                            std::size_t clone_rounds) {
  Rng rng(seed ^ kVariantStream);
  CharacterizeInputs in;
  std::set<std::string> keys;
  for (const ApplicationSpec& base : coloc::sim::benchmark_suite()) {
    for (std::size_t k = 0; k < variants_per_app; ++k) {
      std::string name = base.name;
      name += "~v";
      name += std::to_string(k);
      ApplicationSpec v = perturb(base, rng, name);
      // Redraw on the (vanishingly rare) exact shape collision.
      while (!keys.insert(shape_key(v)).second) v = perturb(base, rng, name);
      in.variants.push_back(std::move(v));
    }
  }
  in.clones.resize(clone_rounds);
  for (std::size_t r = 0; r < clone_rounds; ++r) {
    for (const ApplicationSpec& v : in.variants) {
      ApplicationSpec c = v;
      c.name += "~c";
      c.name += std::to_string(r);
      in.clones[r].push_back(std::move(c));
    }
  }
  return in;
}

std::vector<coloc::serve::Job> make_replay_stream(
    std::uint64_t seed, std::size_t arrivals, std::size_t nodes,
    std::size_t cores, double utilization,
    const std::vector<double>& catalog_alone_time_s) {
  double mean_service_s = 0.0;
  for (double t : catalog_alone_time_s) mean_service_s += t;
  mean_service_s /= static_cast<double>(catalog_alone_time_s.size());
  const double mean_interarrival_s =
      mean_service_s / (static_cast<double>(nodes * cores) * utilization);
  return coloc::serve::make_job_stream(catalog_alone_time_s.size(), arrivals,
                                       mean_interarrival_s, seed);
}

QueryInputs make_query_inputs(std::uint64_t seed, std::size_t apps,
                              std::size_t nodes,
                              std::size_t residents_per_node,
                              std::size_t pstates, std::size_t queries,
                              const coloc::core::BaselineLibrary& reference) {
  Rng rng(seed ^ kQueryStream);
  std::vector<const coloc::core::BaselineProfile*> refs;
  for (const auto& [name, profile] : reference) refs.push_back(&profile);
  const auto lerp_log = [](double a, double b, double t) {
    return std::exp((1.0 - t) * std::log(a) + t * std::log(b));
  };

  QueryInputs in;
  in.catalog.reserve(apps);
  for (std::size_t i = 0; i < apps; ++i) {
    const auto& a = *refs[rng.uniform_index(refs.size())];
    const auto& b = *refs[rng.uniform_index(refs.size())];
    const double t = rng.uniform();
    coloc::core::BaselineProfile p;
    p.app_name = "q";
    p.app_name += std::to_string(i);
    for (std::size_t s = 0; s < pstates; ++s) {
      p.execution_time_s.push_back(
          lerp_log(a.execution_time_s[s], b.execution_time_s[s], t));
    }
    p.memory_intensity = lerp_log(a.memory_intensity, b.memory_intensity, t);
    p.cm_per_ca = lerp_log(a.cm_per_ca, b.cm_per_ca, t);
    p.ca_per_ins = lerp_log(a.ca_per_ins, b.ca_per_ins, t);
    in.catalog.push_back(std::move(p));
  }
  in.initial_residents.resize(nodes);
  for (auto& node : in.initial_residents) {
    for (std::size_t r = 0; r < residents_per_node; ++r) {
      node.push_back(static_cast<std::uint32_t>(rng.uniform_index(apps)));
    }
  }
  in.queries.resize(queries);
  for (QueryInputs::Query& q : in.queries) {
    q.target = static_cast<std::uint32_t>(rng.uniform_index(apps));
    q.pstate = static_cast<std::uint8_t>(rng.uniform_index(pstates));
    q.depart_draw = static_cast<std::uint32_t>(rng());
  }
  return in;
}

// --- self-tests -------------------------------------------------------------

namespace {

std::string digest_of(const CharacterizeInputs& in) {
  Digest d;
  for (const ApplicationSpec& v : in.variants) {
    d.add(v.name);
    d.add(shape_key(v));
    d.add(v.instructions);
    d.add(v.refs_per_instruction);
  }
  for (const auto& round : in.clones) {
    for (const ApplicationSpec& c : round) d.add(c.name);
  }
  return d.hex();
}

std::string digest_of(const std::vector<coloc::serve::Job>& jobs) {
  Digest d;
  for (const coloc::serve::Job& j : jobs) {
    d.add(static_cast<std::uint64_t>(j.app));
    d.add(j.arrival_s);
  }
  return d.hex();
}

std::string digest_of(const QueryInputs& in) {
  Digest d;
  for (const auto& p : in.catalog) {
    d.add(p.app_name);
    for (double t : p.execution_time_s) d.add(t);
    d.add(p.memory_intensity);
    d.add(p.cm_per_ca);
    d.add(p.ca_per_ins);
  }
  for (const auto& node : in.initial_residents) {
    d.add(static_cast<std::uint64_t>(node.size()));
    for (std::uint32_t a : node) d.add(static_cast<std::uint64_t>(a));
  }
  for (const auto& q : in.queries) {
    d.add(static_cast<std::uint64_t>(q.target));
    d.add(static_cast<std::uint64_t>(q.pstate));
    d.add(static_cast<std::uint64_t>(q.depart_draw));
  }
  return d.hex();
}

coloc::core::BaselineLibrary toy_reference() {
  coloc::core::BaselineLibrary lib;
  lib["a"] = {"a", {100.0, 120.0, 150.0}, 0.02, 0.3, 0.01};
  lib["b"] = {"b", {200.0, 230.0, 290.0}, 0.0002, 0.05, 0.002};
  return lib;
}

}  // namespace

int run_self_tests() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "self-test failed: %s\n", what.c_str());
    }
  };
  const auto seeded = [](auto make) {
    return std::make_pair(make(11) == make(11), make(11) != make(12));
  };

  const auto variants = seeded([](std::uint64_t s) {
    return digest_of(make_characterize_inputs(s, 2, 2));
  });
  expect(variants.first, "characterize inputs repeat for one seed");
  expect(variants.second, "characterize inputs change with the seed");

  const std::vector<double> alone = {100.0, 150.0, 200.0};
  const auto stream = seeded([&alone](std::uint64_t s) {
    return digest_of(make_replay_stream(s, 5000, 8, 4, 0.5, alone));
  });
  expect(stream.first, "replay stream repeats for one seed");
  expect(stream.second, "replay stream changes with the seed");

  const coloc::core::BaselineLibrary ref = toy_reference();
  const auto query = seeded([&ref](std::uint64_t s) {
    return digest_of(make_query_inputs(s, 200, 8, 2, 3, 500, ref));
  });
  expect(query.first, "query inputs repeat for one seed");
  expect(query.second, "query inputs change with the seed");

  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const CharacterizeInputs in = make_characterize_inputs(seed, 2, 1);
    std::set<std::string> keys;
    for (const ApplicationSpec& v : in.variants) keys.insert(shape_key(v));
    expect(keys.size() == in.variants.size(),
           "characterize variants have distinct profile-memo keys (seed " +
               std::to_string(seed) + ")");
    for (std::size_t i = 0; i < in.variants.size(); ++i) {
      expect(shape_key(in.clones[0][i]) == shape_key(in.variants[i]),
             "clone shares its variant's profile-memo key");
    }
  }
  return failures;
}

}  // namespace perfbench
