// Seeded, deterministic fault injection for the storage path — the
// write-side twin of FaultPlan/FaultInjector (which target measurements).
//
// A StorageFaultInjector decorates a store::FileOps and corrupts
// write_atomic calls according to a StorageFaultPlan: every decision is a
// pure function of (plan seed, path, per-path operation index), so a
// chaos run replays identically across processes and a single failing
// seed reproduces its exact corruption sequence. Reads always pass
// through untouched — the point is to prove that *readers* (zoo loader,
// stage journal, checkpoint) detect what corrupt writers leave behind.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "store/file_ops.hpp"

namespace coloc::fault {

/// What an injected storage fault does to the write it targets.
enum class StorageFaultKind : std::uint32_t {
  kNone = 0,
  /// Only a prefix of the bytes reaches the final path: a crash inside a
  /// non-atomic writer, or a torn multi-sector update after power loss.
  kTornWrite,
  /// The full payload lands but one bit is flipped: media bit rot or a
  /// DMA/ECC error that slipped through.
  kBitFlip,
  /// The file is cut to a fraction of its length after the write: lost
  /// tail pages that were never flushed.
  kTruncate,
  /// The write is acknowledged to the caller but the rename never
  /// happens: the previous content (or absence) persists. Models a crash
  /// between temp-file write and rename, with the temp later cleaned up.
  kRenameDropped,
  /// The write throws after a partial temp write, like ENOSPC. The final
  /// path is left untouched (the atomic discipline holds even here).
  kNoSpace,
};

inline constexpr std::size_t kNumStorageFaultKinds = 5;

const char* to_string(StorageFaultKind kind);

/// Parses a storage fault kind list
/// ("torn,bitflip,truncate,rename-dropped,enospc"). Throws
/// coloc::invalid_argument_error naming any unknown token.
std::vector<StorageFaultKind> parse_storage_fault_kinds(
    std::string_view spec);

struct StorageFaultPlanConfig {
  double rate = 0.0;          // probability per write_atomic call
  std::uint64_t seed = 4321;  // plan seed
  /// Enabled kinds; empty means all five.
  std::vector<StorageFaultKind> kinds;
};

/// Pure-function fault decisions, mirroring FaultPlan: deterministic in
/// (seed, path, op_index) so storage chaos is replayable.
class StorageFaultPlan {
 public:
  explicit StorageFaultPlan(StorageFaultPlanConfig config);

  const StorageFaultPlanConfig& config() const { return config_; }
  bool enabled() const { return config_.rate > 0.0; }

  /// The fault (or kNone) for the op_index-th write to `path`.
  StorageFaultKind decide(std::string_view path,
                          std::uint64_t op_index) const;

  /// Deterministic fraction in (0, 1) locating the tear/truncation point.
  double offset_fraction(std::string_view path, std::uint64_t op_index) const;

  /// Deterministic bit index in [0, num_bits) for kBitFlip.
  std::uint64_t bit_index(std::string_view path, std::uint64_t op_index,
                          std::uint64_t num_bits) const;

 private:
  StorageFaultPlanConfig config_;
  std::vector<StorageFaultKind> enabled_kinds_;
};

/// Count of injected faults by kind (indexed by StorageFaultKind - 1).
struct StorageFaultStats {
  std::array<std::uint64_t, kNumStorageFaultKinds> injected{};
  std::uint64_t total() const;
};

/// store::FileOps decorator that corrupts writes per the plan. Reads,
/// existence checks, appends, and removals pass through unchanged.
/// Thread-safe: the per-path op counters are mutex-guarded.
class StorageFaultInjector final : public store::FileOps {
 public:
  StorageFaultInjector(store::FileOps& base, StorageFaultPlan plan);

  bool exists(const std::string& path) const override;
  std::string read(const std::string& path) const override;
  void write_atomic(const std::string& path,
                    std::string_view bytes) override;
  void append_durable(const std::string& path,
                      std::string_view bytes) override;
  void remove(const std::string& path) override;
  void create_directories(const std::string& path) override;

  const StorageFaultPlan& plan() const { return plan_; }
  StorageFaultStats stats() const;

 private:
  std::uint64_t next_op_index(const std::string& path);

  store::FileOps& base_;
  StorageFaultPlan plan_;
  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t> op_counts_;
  StorageFaultStats stats_;
};

}  // namespace coloc::fault
