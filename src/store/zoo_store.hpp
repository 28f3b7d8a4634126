// Crash-consistent, checksummed on-disk format for a trained model zoo.
//
// A "zoo bundle" is a directory:
//
//   DIR/
//     MANIFEST.json          committed LAST — the bundle's commit record
//     models/<name>.model    one ml::save_model stream per trained model
//
// Write protocol: every model file is written with the durable atomic
// discipline (write-temp -> fsync -> rename -> fsync parent), then the
// manifest — which names every entry with its byte count and FNV-1a
// digest plus free-form provenance (feature sets, training seed, dataset
// digest) — is written the same way, last. A crash at any point leaves
// either no manifest (bundle absent / previous bundle intact) or a
// manifest whose digests let the loader prove which entries are whole.
//
// Read protocol: load_zoo never trusts bytes it cannot verify. Each entry
// is checked against its manifest digest and parsed defensively; failures
// quarantine that one entry — the typed LoadReport tells callers exactly
// which models loaded, which were quarantined (with a reason), and which
// are missing, so a deployment can degrade gracefully and retrain only
// the damaged models instead of the whole zoo.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ml/model.hpp"

namespace coloc::store {

inline constexpr int kZooFormatVersion = 1;
inline constexpr const char* kZooManifestName = "MANIFEST.json";

/// One model offered for persistence (the pointer is borrowed).
struct ZooModel {
  std::string name;
  const ml::Regressor* model = nullptr;
};

/// One manifest entry: where a model lives and what its bytes must hash to.
struct ZooEntry {
  std::string name;
  std::string path;  // relative to the bundle directory
  std::uint64_t bytes = 0;
  std::string digest;  // digest_hex of the entry file
};

struct ZooManifest {
  int version = kZooFormatVersion;
  std::vector<ZooEntry> entries;                            // sorted by name
  std::vector<std::pair<std::string, std::string>> provenance;  // sorted keys

  /// Deterministic rendering: fixed key order, entries and provenance
  /// sorted, no timestamps — two identical zoos serialize byte-identically.
  std::string to_json() const;
  static ZooManifest from_json(const std::string& text);

  const ZooEntry* find(const std::string& name) const;
};

struct ZooSaveResult {
  ZooManifest manifest;
  /// digest_hex of the committed MANIFEST.json bytes — the bundle-level
  /// digest recorded in run manifests and stage journals. Because every
  /// entry's digest is inside the manifest, this one value covers the
  /// whole bundle transitively.
  std::string bundle_digest;
};

/// Writes a zoo bundle into `dir` (created if needed). Entry files first,
/// manifest last; every write is durable-atomic (write_file_atomic).
/// Throws coloc::runtime_error on I/O failure — the manifest is not
/// committed in that case.
ZooSaveResult save_zoo(
    const std::string& dir, const std::vector<ZooModel>& models,
    const std::vector<std::pair<std::string, std::string>>& provenance = {});

enum class ZooEntryState {
  kLoaded,       // digest verified, parsed successfully
  kQuarantined,  // present but corrupt (digest/size/parse mismatch)
  kMissing,      // named in the manifest, file absent
};

const char* to_string(ZooEntryState state);

struct ZooEntryReport {
  std::string name;
  ZooEntryState state = ZooEntryState::kMissing;
  std::string detail;  // human-readable reason for non-loaded states
};

/// Outcome of load_zoo. `models` holds only verified entries; everything
/// else is accounted for in `entries` so a caller can retrain exactly the
/// quarantined/missing names.
struct LoadReport {
  /// False when the bundle has no readable, well-formed manifest at all
  /// (absent directory, missing MANIFEST.json, corrupt JSON, bad version).
  bool manifest_ok = false;
  std::string error;  // why manifest_ok is false
  std::string bundle_digest;
  std::vector<std::pair<std::string, std::string>> provenance;
  std::vector<ZooEntryReport> entries;
  std::map<std::string, ml::RegressorPtr> models;

  bool complete() const;  // manifest_ok and every entry loaded
  std::vector<std::string> names_in_state(ZooEntryState state) const;
  std::string summary() const;
};

/// Loads a zoo bundle, verifying every entry. Never throws for corruption
/// — damage is reported per entry (and counted in the
/// store_corruption_detected_total metric); only programmer errors throw.
LoadReport load_zoo(const std::string& dir);

}  // namespace coloc::store
