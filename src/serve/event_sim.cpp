#include "serve/event_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sched/dvfs_policy.hpp"
#include "sched/energy.hpp"

namespace coloc::serve {

namespace {

constexpr double kTimeEps = 1e-9;
// A job's deadline is its arrival plus this many run-alone times at the
// fleet's P-state.
constexpr double kDeadlineSlack = 3.0;

}  // namespace

namespace detail {

void CompletionIndex::reset(std::size_t nodes) {
  leaves_ = std::bit_ceil(std::max<std::size_t>(nodes, 1));
  time_s_.assign(leaves_, std::numeric_limits<double>::infinity());
  seq_.assign(leaves_, std::numeric_limits<std::uint64_t>::max());
  job_index_.assign(leaves_, 0);
  winner_.assign(2 * leaves_, 0);
  for (std::size_t n = 0; n < leaves_; ++n) {
    winner_[leaves_ + n] = static_cast<std::uint32_t>(n);
  }
  // All leaves tie, so every subtree's winner is its leftmost leaf.
  for (std::size_t i = leaves_ - 1; i >= 1; --i) winner_[i] = winner_[2 * i];
}

void CompletionIndex::set(std::uint32_t node, double time_s,
                          std::uint64_t seq, std::size_t job_index) {
  time_s_[node] = time_s;
  seq_[node] = seq;
  job_index_[node] = job_index;
  update_path(node);
}

void CompletionIndex::clear(std::uint32_t node) {
  time_s_[node] = std::numeric_limits<double>::infinity();
  seq_[node] = std::numeric_limits<std::uint64_t>::max();
  update_path(node);
}

void CompletionIndex::update_path(std::uint32_t node) {
  for (std::size_t i = (leaves_ + node) / 2; i >= 1; i /= 2) {
    const std::uint32_t left = winner_[2 * i];
    const std::uint32_t right = winner_[2 * i + 1];
    winner_[i] = before(right, left) ? right : left;
  }
}

}  // namespace detail

std::vector<Job> make_job_stream(std::size_t num_apps, std::size_t count,
                                 double mean_interarrival_s,
                                 std::uint64_t seed) {
  COLOC_CHECK_MSG(num_apps > 0, "job stream needs a non-empty catalog");
  COLOC_CHECK_MSG(mean_interarrival_s >= 0.0,
                  "interarrival time cannot be negative");
  Rng rng(seed);
  std::vector<Job> jobs;
  jobs.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    Job job;
    job.app = static_cast<AppId>(rng.uniform_index(num_apps));
    job.arrival_s = t;
    if (mean_interarrival_s > 0.0)
      t += rng.exponential(1.0 / mean_interarrival_s);
    jobs.push_back(job);
  }
  return jobs;
}

EventSimulator::EventSimulator(EventSimConfig config,
                               sim::AppMrcLibrary* library,
                               std::vector<sim::ApplicationSpec> catalog,
                               PlacementService* service,
                               const core::BaselineLibrary* baselines)
    : config_(std::move(config)),
      library_(library),
      catalog_(std::move(catalog)),
      service_(service),
      baselines_(baselines),
      rate_cache_(kRateCacheCapacity, "event_sim_rate_cache_evictions_total") {
  COLOC_CHECK_MSG(library_ != nullptr, "event sim needs an MRC library");
  COLOC_CHECK_MSG(service_ != nullptr, "event sim needs a placement service");
  COLOC_CHECK_MSG(config_.nodes >= 1, "event sim needs at least one node");
  COLOC_CHECK_MSG(config_.pstate_index < config_.node.pstates.size(),
                  "P-state index out of range");
  COLOC_CHECK_MSG(config_.node.pstates.size() <= 256,
                  "event sim supports at most 256 P-states");
  COLOC_CHECK_MSG(config_.max_slowdown >= 0.0,
                  "QoS slowdown bound must be a non-negative number");
  sim::validate(config_.node);
  COLOC_CHECK_MSG(!catalog_.empty(), "event sim needs a job catalog");
  for (std::size_t i = 0; i < catalog_.size(); ++i) {
    COLOC_CHECK_MSG(service_->id_of(catalog_[i].name) == i,
                    "catalog entry '" + catalog_[i].name +
                        "' is not aligned with its service AppId");
  }
  if (baselines_ != nullptr) {
    baseline_by_app_.reserve(catalog_.size());
    for (const sim::ApplicationSpec& spec : catalog_) {
      baseline_by_app_.push_back(&baselines_->at(spec.name));
    }
  }
  const double ghz = config_.node.pstates[config_.pstate_index].frequency_ghz;
  alone_time_s_.reserve(catalog_.size());
  for (const sim::ApplicationSpec& spec : catalog_) {
    const std::vector<sim::ScheduledApp> alone = {
        sim::ScheduledApp{&spec, &library_->curve(spec)}};
    const sim::ContentionSolution solution =
        sim::solve_contention(config_.node, ghz, alone);
    alone_time_s_.push_back(solution.apps[0].execution_time_s);
  }
}

double EventSimulator::alone_time(AppId app) const {
  COLOC_CHECK_MSG(app < alone_time_s_.size(), "AppId out of range");
  return alone_time_s_[app];
}

void EventSimulator::advance_node(NodeState& node, double now) {
  const double dt = now - node.last_update_s;
  if (dt > 0.0 && !node.residents.empty()) {
    for (Resident& r : node.residents) {
      r.remaining_instructions -= r.rate * dt;
    }
    node.energy_j += sched::energy_j(config_.node, node.pstate,
                                     node.residents.size(), dt);
  }
  node.last_update_s = now;
}

void EventSimulator::resolve_node(NodeState& node, std::uint32_t node_index,
                                  double now, ReplayOutcome& outcome) {
  if (node.residents.empty()) {
    node.pstate = config_.pstate_index;  // idle nodes return to the default
    completions_.clear(node_index);
    return;
  }
  const std::uint64_t key =
      std::uint64_t{service_->membership_id(node_index)} << 8 | node.pstate;
  const std::vector<double>* rates = rate_cache_.find(key);
  if (rates != nullptr) {
    ++outcome.rate_cache_hits;
  } else {
    solve_scratch_.clear();
    for (const Resident& r : node.residents) {
      const sim::ApplicationSpec& spec = catalog_[r.app];
      solve_scratch_.push_back(
          sim::ScheduledApp{&spec, &library_->curve(spec)});
    }
    const sim::ContentionSolution solution = sim::solve_contention(
        config_.node, config_.node.pstates[node.pstate].frequency_ghz,
        solve_scratch_);
    std::vector<double> solved(node.residents.size());
    for (std::size_t i = 0; i < solved.size(); ++i) {
      solved[i] = solution.apps[i].instructions_per_second;
    }
    rates = &rate_cache_.insert(key, std::move(solved));
    ++outcome.contention_solves;
  }
  // Rates align with the sorted resident order; equal-app residents are
  // interchangeable, so positional assignment is well-defined.
  COLOC_CHECK_MSG(rates->size() == node.residents.size(),
                  "rate cache entry does not match node membership");
  double first_s = 0.0;
  std::uint64_t first_seq = 0;
  std::size_t first_job = 0;
  for (std::size_t i = 0; i < node.residents.size(); ++i) {
    Resident& r = node.residents[i];
    r.rate = (*rates)[i];
    COLOC_CHECK_MSG(r.rate > 0.0, "non-positive instruction rate");
    const double finish_s =
        now + std::max(r.remaining_instructions, 0.0) / r.rate;
    const std::uint64_t seq = next_seq_++;
    // Strict <: among equal times the lowest seq, the first resident, wins.
    if (i == 0 || finish_s < first_s) {
      first_s = finish_s;
      first_seq = seq;
      first_job = r.job_index;
    }
  }
  completions_.set(node_index, first_s, first_seq, first_job);
}

std::size_t EventSimulator::pick_node(const Job& job,
                                      sched::PlacementPolicy policy) {
  const std::size_t cores = config_.node.cores;
  switch (policy) {
    case sched::PlacementPolicy::kFirstFit: {
      for (std::size_t n = 0; n < nodes_.size(); ++n) {
        if (nodes_[n].residents.size() < cores) return n;
      }
      return nodes_.size();
    }
    case sched::PlacementPolicy::kLeastLoaded: {
      std::size_t best = nodes_.size();
      std::size_t lowest = cores;
      for (std::size_t n = 0; n < nodes_.size(); ++n) {
        if (nodes_[n].residents.size() < lowest) {
          lowest = nodes_[n].residents.size();
          best = n;
        }
      }
      return best;
    }
    case sched::PlacementPolicy::kInterferenceAware:
    case sched::PlacementPolicy::kDvfsAware: {
      candidate_scratch_.clear();
      pstate_scratch_.clear();
      for (std::size_t n = 0; n < nodes_.size(); ++n) {
        if (nodes_[n].residents.size() < cores) {
          candidate_scratch_.push_back(static_cast<std::uint32_t>(n));
          pstate_scratch_.push_back(
              static_cast<std::uint8_t>(nodes_[n].pstate));
        }
      }
      if (candidate_scratch_.empty()) return nodes_.size();
      const std::size_t count = candidate_scratch_.size();
      const bool bounded = config_.max_slowdown > 0.0;
      cost_scratch_.resize(count);
      worst_scratch_.resize(bounded ? count : 0);
      service_->score_candidates(job.app, candidate_scratch_, pstate_scratch_,
                                 cost_scratch_, worst_scratch_);
      std::size_t best = count;
      if (bounded) {
        // Consolidate: the cheapest busy node that keeps every resident,
        // the new job included, within the bound.
        for (std::size_t i = 0; i < count; ++i) {
          if (nodes_[candidate_scratch_[i]].residents.empty() ||
              worst_scratch_[i] > config_.max_slowdown) {
            continue;
          }
          if (best == count || cost_scratch_[i] < cost_scratch_[best]) {
            best = i;
          }
        }
      }
      if (best == count) {
        // Unbounded rule, and the fallback: lowest cost over every
        // free-core node (an empty node costs 1.0).
        best = 0;
        for (std::size_t i = 1; i < count; ++i) {
          if (cost_scratch_[i] < cost_scratch_[best]) best = i;
        }
      }
      return candidate_scratch_[best];
    }
  }
  return nodes_.size();
}

ReplayOutcome EventSimulator::replay(const std::vector<Job>& jobs,
                                     sched::PlacementPolicy policy) {
  ReplayOutcome outcome;
  outcome.policy = policy;
  outcome.jobs.resize(jobs.size());
  if (jobs.empty()) return outcome;

  if (policy == sched::PlacementPolicy::kDvfsAware) {
    COLOC_CHECK_MSG(baselines_ != nullptr,
                    "dvfs-aware replay needs a baseline library");
  }

  obs::Counter& events_total =
      obs::Registry::global().counter("event_sim_events_total");
  obs::Counter& decisions_total = obs::Registry::global().counter(
      "placement_decisions_total", {{"policy", to_string(policy)}});

  // Reset fleet state (service mirror included); caches persist — they are
  // pure memoization, shared safely across policies.
  NodeState fresh;
  fresh.pstate = config_.pstate_index;
  nodes_.assign(config_.nodes, fresh);
  completions_.reset(config_.nodes);
  next_seq_ = 0;
  service_->reset_fleet(config_.nodes);

  // Arrival order: stable sort by time so equal-time jobs keep stream order.
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&jobs](std::size_t a, std::size_t b) {
                     return jobs[a].arrival_s < jobs[b].arrival_s;
                   });

  std::vector<double> deadlines(jobs.size(), 0.0);
  std::deque<std::size_t> waiting;
  std::size_t next_arrival = 0;
  std::size_t done = 0;
  double now = 0.0;
  double slowdown_sum = 0.0;
  double wait_sum = 0.0;
  std::size_t deadline_misses = 0;

  auto place_waiting = [&] {
    while (!waiting.empty()) {
      const std::size_t job_index = waiting.front();
      const Job& job = jobs[job_index];
      const std::size_t n = pick_node(job, policy);
      if (n >= nodes_.size()) break;  // FIFO head-of-line blocking
      waiting.pop_front();
      NodeState& node = nodes_[n];
      advance_node(node, now);
      Resident resident;
      resident.job_index = job_index;
      resident.app = job.app;
      resident.remaining_instructions = catalog_[job.app].instructions;
      auto pos = std::upper_bound(
          node.residents.begin(), node.residents.end(), resident,
          [](const Resident& a, const Resident& b) {
            if (a.app != b.app) return a.app < b.app;
            return a.job_index < b.job_index;
          });
      node.residents.insert(pos, resident);
      service_->add_resident(n, job.app);

      if (policy == sched::PlacementPolicy::kDvfsAware) {
        // Re-pick the node's P-state for the tightest remaining deadline
        // among its residents, against the new co-location.
        double tightest = std::numeric_limits<double>::infinity();
        for (const Resident& r : node.residents) {
          tightest = std::min(tightest, deadlines[r.job_index] - now);
        }
        std::vector<const core::BaselineProfile*> coapps;
        for (const Resident& r : node.residents) {
          if (r.job_index != job_index)
            coapps.push_back(baseline_by_app_[r.app]);
        }
        // A job already past its deadline leaves tightest <= 0; clamp to
        // an unmeetable-but-valid deadline so the policy takes its
        // documented infeasible -> P0 fallback (run fast when late).
        const sched::DvfsDecision decision =
            sched::choose_pstate_for_deadline(
                config_.node, service_->predictor(),
                *baseline_by_app_[job.app], coapps,
                std::max(tightest, 1e-9));
        node.pstate = decision.pstate_index;
      }

      JobOutcome& record = outcome.jobs[job_index];
      record.node = static_cast<std::uint32_t>(n);
      record.pstate = static_cast<std::uint8_t>(node.pstate);
      record.arrival_s = job.arrival_s;
      record.start_s = now;
      wait_sum += now - job.arrival_s;
      decisions_total.inc();
      resolve_node(node, static_cast<std::uint32_t>(n), now, outcome);
    }
  };

  while (done < jobs.size()) {
    const double arrival_t =
        next_arrival < order.size() ? jobs[order[next_arrival]].arrival_s
                                    : std::numeric_limits<double>::infinity();
    const std::uint32_t next_node = completions_.top();
    const double completion_t = completions_.time_s(next_node);
    COLOC_CHECK_MSG(std::isfinite(std::min(arrival_t, completion_t)),
                    "event simulation stalled");

    if (completion_t <= arrival_t) {
      const std::size_t job_index = completions_.job_index(next_node);
      ++outcome.events_processed;
      now = std::max(now, completion_t);
      NodeState& node = nodes_[next_node];
      advance_node(node, now);
      auto it = std::find_if(node.residents.begin(), node.residents.end(),
                             [job_index](const Resident& r) {
                               return r.job_index == job_index;
                             });
      COLOC_CHECK_MSG(it != node.residents.end(),
                      "completion entry for a job not on its node");
      JobOutcome& record = outcome.jobs[job_index];
      record.finish_s = now;
      const double elapsed = now - record.start_s;
      record.slowdown = elapsed / alone_time(it->app);
      record.deadline_met = now <= deadlines[job_index] + kTimeEps;
      if (!record.deadline_met) ++deadline_misses;
      slowdown_sum += record.slowdown;
      outcome.max_slowdown = std::max(outcome.max_slowdown, record.slowdown);
      service_->remove_resident(next_node, it->app);
      node.residents.erase(it);
      ++done;
      resolve_node(node, next_node, now, outcome);
      place_waiting();
    } else {
      now = std::max(now, arrival_t);
      const std::size_t job_index = order[next_arrival];
      ++next_arrival;
      deadlines[job_index] = jobs[job_index].arrival_s +
                             kDeadlineSlack * alone_time(jobs[job_index].app);
      waiting.push_back(job_index);
      place_waiting();
    }
  }

  outcome.makespan_s = now;
  outcome.mean_slowdown = slowdown_sum / static_cast<double>(jobs.size());
  outcome.mean_wait_s = wait_sum / static_cast<double>(jobs.size());
  outcome.deadline_miss_rate =
      static_cast<double>(deadline_misses) / static_cast<double>(jobs.size());
  for (const NodeState& node : nodes_) outcome.total_energy_j += node.energy_j;
  events_total.inc(outcome.events_processed);
  return outcome;
}

}  // namespace coloc::serve
