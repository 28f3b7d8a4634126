#include "fault/checkpoint.hpp"

#include <fstream>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "store/file_ops.hpp"

namespace coloc::fault {

namespace {
struct CheckpointMetrics {
  obs::Counter& writes;
  obs::Counter& rows_loaded;

  static CheckpointMetrics& get() {
    auto& registry = obs::Registry::global();
    static CheckpointMetrics metrics{
        registry.counter("checkpoint_writes_total"),
        registry.counter("checkpoint_rows_loaded_total"),
    };
    return metrics;
  }
};
}  // namespace

CampaignCheckpoint::CampaignCheckpoint(std::string path,
                                       std::vector<std::string> feature_names,
                                       std::string target_name,
                                       std::size_t flush_every)
    : path_(std::move(path)), feature_names_(std::move(feature_names)),
      target_name_(std::move(target_name)), flush_every_(flush_every) {
  COLOC_CHECK_MSG(!path_.empty(), "checkpoint needs a path");
  COLOC_CHECK_MSG(!feature_names_.empty(), "checkpoint needs feature names");
}

const CheckpointRow* CampaignCheckpoint::find(const std::string& tag) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = rows_.find(tag);
  return it == rows_.end() ? nullptr : &it->second;
}

std::size_t CampaignCheckpoint::load() {
  std::ifstream is(path_);
  if (!is) return 0;  // no previous state: fresh run
  std::lock_guard<std::mutex> lock(mutex_);
  CsvTable table;
  try {
    table = CsvTable::parse(is);
    std::vector<std::string> expected = {"tag", target_name_};
    expected.insert(expected.end(), feature_names_.begin(),
                    feature_names_.end());
    if (table.header() != expected) {
      throw data_error(
          "mismatched header; refusing to resume an incompatible campaign");
    }
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      CheckpointRow row;
      row.target = table.at_double(r, 1);
      row.features.reserve(feature_names_.size());
      for (std::size_t c = 0; c < feature_names_.size(); ++c) {
        row.features.push_back(table.at_double(r, c + 2));
      }
      rows_[table.at(r, 0)] = std::move(row);
    }
  } catch (const data_error& e) {
    throw data_error("checkpoint " + path_ + ": " + e.what());
  }
  CheckpointMetrics::get().rows_loaded.inc(table.num_rows());
  COLOC_LOG_INFO << "resumed " << rows_.size() << " completed cells from "
                 << path_;
  return rows_.size();
}

void CampaignCheckpoint::record(const std::string& tag,
                                std::span<const double> features,
                                double target) {
  COLOC_CHECK_MSG(features.size() == feature_names_.size(),
                  "checkpoint feature width mismatch");
  CheckpointRow row;
  row.target = target;
  row.features.assign(features.begin(), features.end());
  std::lock_guard<std::mutex> lock(mutex_);
  rows_[tag] = std::move(row);
  if (flush_every_ > 0 && ++dirty_ >= flush_every_) flush_locked();
}

void CampaignCheckpoint::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  flush_locked();
}

void CampaignCheckpoint::flush_locked() {
  std::ostringstream os;
  os << "tag," << csv_escape(target_name_);
  for (const auto& name : feature_names_) os << ',' << csv_escape(name);
  os << '\n';
  for (const auto& [tag, row] : rows_) {
    os << csv_escape(tag) << ',' << obs::format_double(row.target);
    for (double v : row.features) os << ',' << obs::format_double(v);
    os << '\n';
  }
  // Durable atomic replace: the old rename-only path could publish a
  // checkpoint whose data blocks were still unflushed, so a power cut
  // after the rename left a committed name pointing at torn contents.
  store::write_file_atomic(path_, os.str());
  dirty_ = 0;
  CheckpointMetrics::get().writes.inc();
}

}  // namespace coloc::fault
