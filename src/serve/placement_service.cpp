#include "serve/placement_service.hpp"

#include <algorithm>
#include <array>
#include <chrono>

#include "common/error.hpp"
#include "store/zoo_store.hpp"

namespace coloc::serve {

namespace {

/// Initial hash-table reservation for the score memo.
constexpr std::size_t kExpectedCacheEntries = 1 << 15;

/// Score-key field widths: the target AppId sits above 8 P-state bits and
/// below the 32-bit membership id.
constexpr std::size_t kMaxApps = std::size_t{1} << 24;
constexpr std::size_t kMaxMemberships = std::size_t{1} << 32;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

core::ColocationPredictor load_bundle_predictor(store::FileOps& files,
                                                const std::string& dir,
                                                const core::ModelId& id) {
  store::LoadReport report = store::load_zoo(files, dir);
  COLOC_CHECK_MSG(report.manifest_ok,
                  "zoo bundle " + dir + " unusable: " + report.error);
  const std::string name = id.name();
  auto it = report.models.find(name);
  if (it == report.models.end() || it->second == nullptr) {
    throw coloc::runtime_error("zoo bundle " + dir + " has no verified '" +
                               name + "' entry (" + report.summary() +
                               "); use core::load_or_repair_zoo with a "
                               "training dataset to repair it");
  }
  return core::ColocationPredictor::from_model(id, std::move(it->second));
}

PlacementService::PlacementService(const core::ColocationPredictor* predictor,
                                   ServiceOptions options)
    : predictor_(predictor),
      options_(options),
      queries_total_(obs::Registry::global().counter(
          "placement_queries_total")),
      predictions_total_(obs::Registry::global().counter(
          "placement_predictions_total")),
      cache_hits_total_(obs::Registry::global().counter(
          "placement_score_cache_total", {{"result", "hit"}})),
      cache_misses_total_(obs::Registry::global().counter(
          "placement_score_cache_total", {{"result", "miss"}})),
      predict_seconds_(obs::Registry::global().histogram(
          "placement_predict_seconds")) {
  COLOC_CHECK_MSG(predictor_ != nullptr, "placement service needs a predictor");
  if (options_.enable_score_cache) {
    score_cache_.reserve(kExpectedCacheEntries);
  }
}

AppId PlacementService::register_app(const core::BaselineProfile& profile) {
  auto it = ids_.find(profile.app_name);
  if (it != ids_.end()) return it->second;
  COLOC_CHECK_MSG(!profile.execution_time_s.empty(),
                  "baseline profile for '" + profile.app_name +
                      "' has no P-state times");
  COLOC_CHECK_MSG(apps_.size() < kMaxApps,
                  "placement catalog is full (2^24 apps)");
  for (double t : profile.execution_time_s) {
    COLOC_CHECK_MSG(t > 0.0, "baseline time must be positive for '" +
                                 profile.app_name + "'");
  }
  const AppId id = static_cast<AppId>(apps_.size());
  apps_.push_back(profile);
  ids_.emplace(profile.app_name, id);
  return id;
}

void PlacementService::register_library(const core::BaselineLibrary& library) {
  for (const auto& [name, profile] : library) register_app(profile);
}

AppId PlacementService::id_of(const std::string& name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    throw coloc::invalid_argument_error("application not registered: '" +
                                        name + "'");
  }
  return it->second;
}

const std::string& PlacementService::name_of(AppId app) const {
  COLOC_CHECK_MSG(app < apps_.size(), "AppId out of range");
  return apps_[app].app_name;
}

double PlacementService::baseline_time(AppId app,
                                       std::size_t pstate_index) const {
  COLOC_CHECK_MSG(app < apps_.size(), "AppId out of range");
  return apps_[app].time_at(pstate_index);
}

void PlacementService::reset_fleet(std::size_t nodes) {
  nodes_.assign(nodes, NodeState{});
  for (NodeState& node : nodes_) refresh_aggregates(node);
}

void PlacementService::refresh_aggregates(NodeState& node) {
  // Pure function of the sorted membership: recomputed from scratch so two
  // histories reaching the same membership carry bit-identical sums (an
  // incremental add/subtract would drift in the last ulp).
  node.co = {};
  for (AppId member : node.members) node.co.add(apps_[member]);
  membership_scratch_.assign(
      reinterpret_cast<const char*>(node.members.data()),
      node.members.size() * sizeof(AppId));
  auto it = membership_ids_.find(membership_scratch_);
  if (it == membership_ids_.end()) {
    COLOC_CHECK_MSG(membership_ids_.size() < kMaxMemberships,
                    "placement service ran out of membership ids (2^32)");
    const auto id = static_cast<std::uint32_t>(membership_ids_.size());
    it = membership_ids_.emplace(membership_scratch_, id).first;
  }
  node.membership = it->second;
}

void PlacementService::add_resident(std::size_t node, AppId app) {
  COLOC_CHECK_MSG(node < nodes_.size(), "node index out of range");
  COLOC_CHECK_MSG(app < apps_.size(), "AppId out of range");
  NodeState& state = nodes_[node];
  state.members.insert(
      std::upper_bound(state.members.begin(), state.members.end(), app), app);
  refresh_aggregates(state);
}

void PlacementService::remove_resident(std::size_t node, AppId app) {
  COLOC_CHECK_MSG(node < nodes_.size(), "node index out of range");
  NodeState& state = nodes_[node];
  auto it = std::lower_bound(state.members.begin(), state.members.end(), app);
  COLOC_CHECK_MSG(it != state.members.end() && *it == app,
                  "remove_resident: app not resident on node");
  state.members.erase(it);
  refresh_aggregates(state);
}

std::size_t PlacementService::occupancy(std::size_t node) const {
  COLOC_CHECK_MSG(node < nodes_.size(), "node index out of range");
  return nodes_[node].members.size();
}

const std::vector<AppId>& PlacementService::members(std::size_t node) const {
  COLOC_CHECK_MSG(node < nodes_.size(), "node index out of range");
  return nodes_[node].members;
}

std::uint32_t PlacementService::membership_id(std::size_t node) const {
  COLOC_CHECK_MSG(node < nodes_.size(), "node index out of range");
  return nodes_[node].membership;
}

void PlacementService::assemble_row(const core::BaselineProfile& subject,
                                    std::size_t pstate_index,
                                    const core::CoAppSums& co,
                                    std::span<double> row) const {
  const std::array<double, core::kNumFeatures> full =
      core::feature_row(subject, pstate_index, co);
  const std::vector<std::size_t>& columns = predictor_->columns();
  for (std::size_t c = 0; c < columns.size(); ++c) row[c] = full[columns[c]];
}

void PlacementService::predict_batch(std::span<const AppId> targets,
                                     std::span<const std::uint32_t> nodes,
                                     std::size_t pstate_index,
                                     std::span<double> out_time_s) {
  COLOC_CHECK_MSG(targets.size() == nodes.size() &&
                      targets.size() == out_time_s.size(),
                  "predict_batch: span sizes must match");
  const auto start = std::chrono::steady_clock::now();
  const std::size_t width = predictor_->columns().size();
  scratch_x_.resize(targets.size(), width);
  for (std::size_t k = 0; k < targets.size(); ++k) {
    COLOC_CHECK_MSG(targets[k] < apps_.size(), "AppId out of range");
    COLOC_CHECK_MSG(nodes[k] < nodes_.size(), "node index out of range");
    assemble_row(apps_[targets[k]], pstate_index, nodes_[nodes[k]].co,
                 scratch_x_.row(k));
  }
  predictor_->model().predict_into(scratch_x_, out_time_s);
  stats_.queries += 1;
  stats_.predictions += targets.size();
  queries_total_.inc();
  predictions_total_.inc(targets.size());
  predict_seconds_.observe(seconds_since(start));
}

void PlacementService::score_candidates(AppId target,
                                        std::span<const std::uint32_t> candidates,
                                        std::size_t pstate_index,
                                        std::span<double> out_cost) {
  // The per-candidate overload carries P-states as bytes (8 key bits);
  // narrowing a larger index would silently score a different P-state.
  COLOC_CHECK_MSG(pstate_index <= 0xFF, "P-state index out of range");
  pstate_scratch_.assign(candidates.size(),
                         static_cast<std::uint8_t>(pstate_index));
  score_candidates(target, candidates, pstate_scratch_, out_cost);
}

void PlacementService::score_candidates(AppId target,
                                        std::span<const std::uint32_t> candidates,
                                        std::span<const std::uint8_t> pstates,
                                        std::span<double> out_cost,
                                        std::span<double> out_worst) {
  const bool want_worst = !out_worst.empty();
  COLOC_CHECK_MSG(candidates.size() == out_cost.size() &&
                      candidates.size() == pstates.size() &&
                      (!want_worst || candidates.size() == out_worst.size()),
                  "score_candidates: span sizes must match");
  COLOC_CHECK_MSG(target < apps_.size(), "AppId out of range");
  const auto start = std::chrono::steady_clock::now();
  const core::BaselineProfile& target_profile = apps_[target];
  const std::size_t width = predictor_->columns().size();
  // The memo holds costs only (a {cost, worst} value would grow the
  // largest serve table), so a worst-slowdown request bypasses it.
  const bool use_memo = options_.enable_score_cache && !want_worst;

  pending_.clear();
  std::size_t rows = 0;
  // Pass 1: resolve cache hits and count the rows the misses need.
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    COLOC_CHECK_MSG(candidates[i] < nodes_.size(), "node index out of range");
    const NodeState& node = nodes_[candidates[i]];
    if (node.members.empty()) {
      // Run-alone placement: cost 1.0 by convention (a job alone runs
      // at slowdown 1), no model query needed.
      out_cost[i] = 1.0;
      if (want_worst) out_worst[i] = 1.0;
      continue;
    }
    const std::uint64_t key = std::uint64_t{node.membership} << 32 |
                              std::uint64_t{target} << 8 | pstates[i];
    if (use_memo) {
      auto it = score_cache_.find(key);
      if (it != score_cache_.end()) {
        out_cost[i] = it->second;
        stats_.cache_hits += 1;
        cache_hits_total_.inc();
        continue;
      }
    }
    stats_.cache_misses += 1;
    cache_misses_total_.inc();
    pending_.push_back(PendingCandidate{i, rows, candidates[i], key});
    rows += 1 + node.members.size();
  }

  if (!pending_.empty()) {
    scratch_x_.resize(rows, width);
    // Pass 2: assemble one row for the joining target plus one per
    // resident (its slowdown after the target joins).
    for (const PendingCandidate& p : pending_) {
      const NodeState& node = nodes_[p.node];
      const std::size_t pstate = pstates[p.out_index];
      std::size_t r = p.first_row;
      assemble_row(target_profile, pstate, node.co, scratch_x_.row(r++));
      for (std::size_t j = 0; j < node.members.size(); ++j) {
        // Co-apps of resident j: the joining target, then the other
        // residents in sorted order — summed fresh so the row is a pure
        // function of the membership.
        core::CoAppSums co;
        co.add(target_profile);
        for (std::size_t k = 0; k < node.members.size(); ++k) {
          if (k != j) co.add(apps_[node.members[k]]);
        }
        assemble_row(apps_[node.members[j]], pstate, co, scratch_x_.row(r++));
      }
    }
    scratch_y_.resize(rows);
    predictor_->model().predict_into(scratch_x_, scratch_y_);
    stats_.predictions += rows;
    predictions_total_.inc(rows);
    // Pass 3: reduce predicted times to slowdown costs.
    for (const PendingCandidate& p : pending_) {
      const NodeState& node = nodes_[p.node];
      const std::size_t pstate = pstates[p.out_index];
      std::size_t r = p.first_row;
      double cost = scratch_y_[r++] / target_profile.execution_time_s[pstate];
      double worst = cost;
      for (AppId member : node.members) {
        const double slowdown =
            scratch_y_[r++] / apps_[member].execution_time_s[pstate];
        cost += slowdown;
        worst = std::max(worst, slowdown);
      }
      out_cost[p.out_index] = cost;
      if (want_worst) out_worst[p.out_index] = worst;
      if (use_memo) score_cache_.emplace(p.key, cost);
    }
  }

  stats_.queries += 1;
  queries_total_.inc();
  predict_seconds_.observe(seconds_since(start));
}

}  // namespace coloc::serve
