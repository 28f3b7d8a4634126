#include "fault/storage_fault.hpp"

#include <numeric>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"

namespace coloc::fault {

namespace {

obs::Counter& injected_counter(StorageFaultKind kind) {
  return obs::Registry::global().counter("storage_faults_injected_total",
                                         {{"kind", to_string(kind)}});
}

}  // namespace

const char* to_string(StorageFaultKind kind) {
  switch (kind) {
    case StorageFaultKind::kNone: return "none";
    case StorageFaultKind::kTornWrite: return "torn";
    case StorageFaultKind::kBitFlip: return "bitflip";
    case StorageFaultKind::kTruncate: return "truncate";
    case StorageFaultKind::kRenameDropped: return "rename-dropped";
    case StorageFaultKind::kNoSpace: return "enospc";
  }
  return "unknown";
}

std::vector<StorageFaultKind> parse_storage_fault_kinds(
    std::string_view spec) {
  std::vector<StorageFaultKind> kinds;
  for (std::string_view item : detail::split_csv(spec)) {
    if (item == "torn") {
      kinds.push_back(StorageFaultKind::kTornWrite);
    } else if (item == "bitflip") {
      kinds.push_back(StorageFaultKind::kBitFlip);
    } else if (item == "truncate") {
      kinds.push_back(StorageFaultKind::kTruncate);
    } else if (item == "rename-dropped") {
      kinds.push_back(StorageFaultKind::kRenameDropped);
    } else if (item == "enospc") {
      kinds.push_back(StorageFaultKind::kNoSpace);
    } else {
      throw invalid_argument_error("unknown storage fault kind: '" +
                                   std::string(item) + "'");
    }
  }
  return kinds;
}

StorageFaultPlan::StorageFaultPlan(StorageFaultPlanConfig config)
    : config_(std::move(config)) {
  validate_fault_rate(config_.rate, "storage fault rate");
  enabled_kinds_ = config_.kinds;
  if (enabled_kinds_.empty()) {
    enabled_kinds_ = {StorageFaultKind::kTornWrite, StorageFaultKind::kBitFlip,
                      StorageFaultKind::kTruncate,
                      StorageFaultKind::kRenameDropped,
                      StorageFaultKind::kNoSpace};
  }
}

StorageFaultKind StorageFaultPlan::decide(std::string_view path,
                                          std::uint64_t op_index) const {
  if (!enabled()) return StorageFaultKind::kNone;
  Rng rng(detail::mix(config_.seed, path, op_index, 0x11));
  if (!rng.bernoulli(config_.rate)) return StorageFaultKind::kNone;
  return enabled_kinds_[rng.uniform_index(enabled_kinds_.size())];
}

double StorageFaultPlan::offset_fraction(std::string_view path,
                                         std::uint64_t op_index) const {
  Rng rng(detail::mix(config_.seed, path, op_index, 0x12));
  // Strictly interior so a tear always removes something yet keeps a
  // non-empty prefix (for non-trivial payloads).
  return rng.uniform(0.05, 0.95);
}

std::uint64_t StorageFaultPlan::bit_index(std::string_view path,
                                          std::uint64_t op_index,
                                          std::uint64_t num_bits) const {
  COLOC_CHECK_MSG(num_bits > 0, "bit_index needs a non-empty payload");
  Rng rng(detail::mix(config_.seed, path, op_index, 0x13));
  return rng.uniform_index(num_bits);
}

std::uint64_t StorageFaultStats::total() const {
  return std::accumulate(injected.begin(), injected.end(),
                         std::uint64_t{0});
}

StorageFaultInjector::StorageFaultInjector(store::FileOps& base,
                                           StorageFaultPlan plan)
    : base_(base), plan_(std::move(plan)) {}

bool StorageFaultInjector::exists(const std::string& path) const {
  return base_.exists(path);
}

std::string StorageFaultInjector::read(const std::string& path) const {
  return base_.read(path);
}

std::uint64_t StorageFaultInjector::next_op_index(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  return op_counts_[path]++;
}

void StorageFaultInjector::write_atomic(const std::string& path,
                                        std::string_view bytes) {
  const std::uint64_t op = next_op_index(path);
  const StorageFaultKind kind = plan_.decide(path, op);
  if (kind != StorageFaultKind::kNone) {
    injected_counter(kind).inc();
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.injected[static_cast<std::size_t>(kind) - 1];
  }
  switch (kind) {
    case StorageFaultKind::kNone:
      base_.write_atomic(path, bytes);
      return;
    case StorageFaultKind::kTornWrite: {
      const auto keep = static_cast<std::size_t>(
          plan_.offset_fraction(path, op) * static_cast<double>(bytes.size()));
      base_.write_atomic(path, bytes.substr(0, keep));
      return;
    }
    case StorageFaultKind::kBitFlip: {
      std::string mutated(bytes);
      if (!mutated.empty()) {
        const std::uint64_t bit =
            plan_.bit_index(path, op, mutated.size() * 8);
        mutated[bit / 8] = static_cast<char>(
            static_cast<unsigned char>(mutated[bit / 8]) ^
            (1u << (bit % 8)));
      }
      base_.write_atomic(path, mutated);
      return;
    }
    case StorageFaultKind::kTruncate: {
      // Like a tear, but biased toward keeping most of the file: lost
      // tail pages rather than a mid-write crash.
      const double frac = 0.5 + plan_.offset_fraction(path, op) / 2.0;
      const auto keep = static_cast<std::size_t>(
          frac * static_cast<double>(bytes.size()));
      base_.write_atomic(path, bytes.substr(0, keep));
      return;
    }
    case StorageFaultKind::kRenameDropped:
      // Acknowledged but never renamed into place: whatever was at
      // `path` before (possibly nothing) persists.
      return;
    case StorageFaultKind::kNoSpace:
      throw coloc::classified_error(ErrorClass::kPermanent,
                                    "injected ENOSPC writing " + path);
  }
}

void StorageFaultInjector::append_durable(const std::string& path,
                                          std::string_view bytes) {
  base_.append_durable(path, bytes);
}

void StorageFaultInjector::remove(const std::string& path) {
  base_.remove(path);
}

void StorageFaultInjector::create_directories(const std::string& path) {
  base_.create_directories(path);
}

StorageFaultStats StorageFaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace coloc::fault
