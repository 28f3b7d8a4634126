#include "serve/event_sim.hpp"

#include <algorithm>
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

}  // namespace

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
      baselines_(baselines) {
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
        sim::solve_contention(config_.node, ghz, alone, config_.contention);
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
  ++node.epoch;  // invalidate any completion event still in the heap
  if (node.residents.empty()) {
    node.pstate = config_.pstate_index;  // idle nodes return to the default
    return;
  }
  const std::uint64_t key =
      std::uint64_t{service_->membership_id(node_index)} << 8 | node.pstate;
  auto it = rate_cache_.find(key);
  if (it != rate_cache_.end()) {
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
        solve_scratch_, config_.contention);
    std::vector<double> rates(node.residents.size());
    for (std::size_t i = 0; i < rates.size(); ++i) {
      rates[i] = solution.apps[i].instructions_per_second;
    }
    it = rate_cache_.emplace(key, std::move(rates)).first;
    ++outcome.contention_solves;
  }
  // Rates align with the sorted resident order; equal-app residents are
  // interchangeable, so positional assignment is well-defined.
  const std::vector<double>& rates = it->second;
  COLOC_CHECK_MSG(rates.size() == node.residents.size(),
                  "rate cache entry does not match node membership");
  for (std::size_t i = 0; i < node.residents.size(); ++i) {
    Resident& r = node.residents[i];
    r.rate = rates[i];
    COLOC_CHECK_MSG(r.rate > 0.0, "non-positive instruction rate");
    Event ev;
    ev.time_s = now + std::max(r.remaining_instructions, 0.0) / r.rate;
    ev.seq = next_seq_++;
    ev.node = node_index;
    ev.epoch = node.epoch;
    ev.job_index = r.job_index;
    heap_.push(ev);
  }
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
  heap_ = {};
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
    // Drop stale completion events (their node changed since the push).
    while (!heap_.empty() &&
           heap_.top().epoch != nodes_[heap_.top().node].epoch) {
      heap_.pop();
      ++outcome.events_processed;
    }
    const double arrival_t =
        next_arrival < order.size() ? jobs[order[next_arrival]].arrival_s
                                    : std::numeric_limits<double>::infinity();
    const double completion_t =
        heap_.empty() ? std::numeric_limits<double>::infinity()
                      : heap_.top().time_s;
    COLOC_CHECK_MSG(std::isfinite(std::min(arrival_t, completion_t)),
                    "event simulation stalled");

    if (completion_t <= arrival_t) {
      const Event ev = heap_.top();
      heap_.pop();
      ++outcome.events_processed;
      now = std::max(now, ev.time_s);
      NodeState& node = nodes_[ev.node];
      advance_node(node, now);
      auto it = std::find_if(node.residents.begin(), node.residents.end(),
                             [&ev](const Resident& r) {
                               return r.job_index == ev.job_index;
                             });
      COLOC_CHECK_MSG(it != node.residents.end(),
                      "completion event for a job not on its node");
      JobOutcome& record = outcome.jobs[ev.job_index];
      record.finish_s = now;
      const double elapsed = now - record.start_s;
      record.slowdown = elapsed / alone_time(it->app);
      record.deadline_met = now <= deadlines[ev.job_index] + kTimeEps;
      if (!record.deadline_met) ++deadline_misses;
      slowdown_sum += record.slowdown;
      outcome.max_slowdown = std::max(outcome.max_slowdown, record.slowdown);
      service_->remove_resident(ev.node, it->app);
      node.residents.erase(it);
      ++done;
      resolve_node(node, ev.node, now, outcome);
      place_waiting();
    } else {
      now = std::max(now, arrival_t);
      const std::size_t job_index = order[next_arrival];
      ++next_arrival;
      deadlines[job_index] = jobs[job_index].arrival_s +
                             config_.deadline_slack *
                                 alone_time(jobs[job_index].app);
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
