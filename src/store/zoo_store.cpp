#include "store/zoo_store.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "ml/serialization.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "store/digest.hpp"
#include "store/file_ops.hpp"

namespace coloc::store {

namespace {

obs::Counter& corruption_counter(const char* reason) {
  return obs::Registry::global().counter("store_corruption_detected_total",
                                         {{"reason", reason}});
}

/// Entry names become file names; keep them path-safe and non-empty.
void check_entry_name(const std::string& name) {
  COLOC_CHECK_MSG(!name.empty(), "zoo entry name must not be empty");
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    COLOC_CHECK_MSG(ok, "zoo entry name has unsafe character: " + name);
  }
}

}  // namespace

const char* to_string(ZooEntryState state) {
  switch (state) {
    case ZooEntryState::kLoaded: return "loaded";
    case ZooEntryState::kQuarantined: return "quarantined";
    case ZooEntryState::kMissing: return "missing";
  }
  return "unknown";
}

std::string ZooManifest::to_json() const {
  std::ostringstream os;
  os << "{\"format\":\"coloc-zoo\",\"version\":" << version << ",";
  os << "\"provenance\":{";
  bool first = true;
  for (const auto& [k, v] : provenance) {
    if (!first) os << ',';
    first = false;
    os << '"' << obs::json_escape(k) << "\":\"" << obs::json_escape(v)
       << '"';
  }
  os << "},\"entries\":[";
  first = true;
  for (const ZooEntry& e : entries) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << obs::json_escape(e.name) << "\",\"path\":\""
       << obs::json_escape(e.path) << "\",\"bytes\":" << e.bytes
       << ",\"digest\":\"" << e.digest << "\"}";
  }
  os << "]}";
  return os.str();
}

ZooManifest ZooManifest::from_json(const std::string& text) {
  const obs::JsonValue doc = obs::json_parse(text);
  const obs::JsonValue* format = doc.find("format");
  if (format == nullptr || !format->is_string() ||
      format->string != "coloc-zoo") {
    throw coloc::data_error("not a coloc-zoo manifest");
  }
  ZooManifest m;
  if (const obs::JsonValue* v = doc.find("version");
      v != nullptr && v->is_number()) {
    m.version = static_cast<int>(v->number);
  }
  if (m.version != kZooFormatVersion) {
    throw coloc::data_error("unsupported zoo manifest version " +
                            std::to_string(m.version));
  }
  if (const obs::JsonValue* v = doc.find("provenance");
      v != nullptr && v->is_object()) {
    for (const auto& [k, val] : v->object) {
      if (val.is_string()) m.provenance.emplace_back(k, val.string);
    }
  }
  if (const obs::JsonValue* v = doc.find("entries");
      v != nullptr && v->is_array()) {
    for (const obs::JsonValue& item : v->array) {
      if (!item.is_object()) continue;
      ZooEntry e;
      if (const obs::JsonValue* f = item.find("name");
          f != nullptr && f->is_string()) {
        e.name = f->string;
      }
      if (const obs::JsonValue* f = item.find("path");
          f != nullptr && f->is_string()) {
        e.path = f->string;
      }
      if (const obs::JsonValue* f = item.find("bytes");
          f != nullptr && f->is_number()) {
        e.bytes = static_cast<std::uint64_t>(f->number);
      }
      if (const obs::JsonValue* f = item.find("digest");
          f != nullptr && f->is_string()) {
        e.digest = f->string;
      }
      if (e.name.empty() || e.path.empty() || e.digest.empty()) {
        throw coloc::data_error("zoo manifest entry missing fields");
      }
      m.entries.push_back(std::move(e));
    }
  }
  return m;
}

const ZooEntry* ZooManifest::find(const std::string& name) const {
  for (const ZooEntry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

ZooSaveResult save_zoo(
    const std::string& dir, const std::vector<ZooModel>& models,
    const std::vector<std::pair<std::string, std::string>>& provenance) {
  COLOC_CHECK_MSG(!dir.empty(), "zoo bundle needs a directory");
  create_directories(dir + "/models");

  ZooManifest manifest;
  manifest.provenance = provenance;
  std::sort(manifest.provenance.begin(), manifest.provenance.end());

  std::vector<const ZooModel*> ordered;
  ordered.reserve(models.size());
  for (const ZooModel& m : models) {
    check_entry_name(m.name);
    COLOC_CHECK_MSG(m.model != nullptr, "zoo model pointer is null: " +
                                            m.name);
    ordered.push_back(&m);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const ZooModel* a, const ZooModel* b) {
              return a->name < b->name;
            });
  for (std::size_t i = 1; i < ordered.size(); ++i) {
    COLOC_CHECK_MSG(ordered[i - 1]->name != ordered[i]->name,
                    "duplicate zoo entry name: " + ordered[i]->name);
  }

  // Entries first, each durably in place before the manifest that names
  // them exists; the manifest rename below is the bundle's commit point.
  for (const ZooModel* m : ordered) {
    std::ostringstream body;
    ml::save_model(body, *m->model);
    const std::string bytes = body.str();
    ZooEntry entry;
    entry.name = m->name;
    entry.path = "models/" + m->name + ".model";
    entry.bytes = bytes.size();
    entry.digest = digest_hex(bytes);
    write_file_atomic(dir + "/" + entry.path, bytes);
    manifest.entries.push_back(std::move(entry));
  }

  const std::string rendered = manifest.to_json();
  write_file_atomic(dir + "/" + kZooManifestName, rendered);

  ZooSaveResult result;
  result.manifest = std::move(manifest);
  result.bundle_digest = digest_hex(rendered);
  return result;
}

bool LoadReport::complete() const {
  if (!manifest_ok) return false;
  return std::all_of(entries.begin(), entries.end(),
                     [](const ZooEntryReport& e) {
                       return e.state == ZooEntryState::kLoaded;
                     });
}

std::vector<std::string> LoadReport::names_in_state(
    ZooEntryState state) const {
  std::vector<std::string> names;
  for (const ZooEntryReport& e : entries) {
    if (e.state == state) names.push_back(e.name);
  }
  return names;
}

std::string LoadReport::summary() const {
  if (!manifest_ok) return "zoo bundle unreadable: " + error;
  std::size_t loaded = 0, quarantined = 0, missing = 0;
  for (const ZooEntryReport& e : entries) {
    switch (e.state) {
      case ZooEntryState::kLoaded: ++loaded; break;
      case ZooEntryState::kQuarantined: ++quarantined; break;
      case ZooEntryState::kMissing: ++missing; break;
    }
  }
  std::ostringstream os;
  os << loaded << " loaded, " << quarantined << " quarantined, " << missing
     << " missing of " << entries.size() << " zoo entries";
  return os.str();
}

LoadReport load_zoo(const std::string& dir) {
  LoadReport report;
  const std::string manifest_path = dir + "/" + kZooManifestName;
  const std::optional<std::string> raw = read_file_if_exists(manifest_path);
  if (!raw.has_value()) {
    // An absent manifest is a legitimate "no bundle here" — an interrupted
    // save never commits one — so it is not counted as corruption.
    report.error = "no manifest at " + manifest_path;
    return report;
  }

  ZooManifest manifest;
  try {
    manifest = ZooManifest::from_json(*raw);
  } catch (const std::exception& e) {
    corruption_counter("manifest").inc();
    report.error = std::string("manifest corrupt: ") + e.what();
    COLOC_LOG_WARN << "zoo bundle " << dir << ": " << report.error;
    return report;
  }
  report.manifest_ok = true;
  report.bundle_digest = digest_hex(*raw);
  report.provenance = manifest.provenance;

  for (const ZooEntry& entry : manifest.entries) {
    ZooEntryReport er;
    er.name = entry.name;
    const std::optional<std::string> bytes =
        read_file_if_exists(dir + "/" + entry.path);
    if (!bytes.has_value()) {
      er.state = ZooEntryState::kMissing;
      er.detail = "file absent: " + entry.path;
      corruption_counter("missing").inc();
      report.entries.push_back(std::move(er));
      continue;
    }
    if (bytes->size() != entry.bytes ||
        digest_hex(*bytes) != entry.digest) {
      er.state = ZooEntryState::kQuarantined;
      er.detail = "digest mismatch (" + std::to_string(bytes->size()) +
                  " bytes, expected " + std::to_string(entry.bytes) + ")";
      corruption_counter("digest").inc();
      report.entries.push_back(std::move(er));
      continue;
    }
    try {
      std::istringstream body(*bytes);
      ml::RegressorPtr model = ml::load_model(body);
      er.state = ZooEntryState::kLoaded;
      report.models.emplace(entry.name, std::move(model));
    } catch (const std::exception& e) {
      // Digest-valid but unparseable: the writer persisted garbage. Still
      // quarantine rather than crash — the caller can retrain this entry.
      er.state = ZooEntryState::kQuarantined;
      er.detail = std::string("parse failed: ") + e.what();
      corruption_counter("parse").inc();
    }
    report.entries.push_back(std::move(er));
  }

  if (!report.complete()) {
    COLOC_LOG_WARN << "zoo bundle " << dir << ": " << report.summary();
  }
  return report;
}

}  // namespace coloc::store
