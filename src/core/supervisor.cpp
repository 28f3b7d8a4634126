#include "core/supervisor.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "store/digest.hpp"
#include "store/file_ops.hpp"

namespace coloc::core {

namespace {

constexpr const char* kJournalHeader = "coloc-journal v1";

volatile std::sig_atomic_t g_stop_requested = 0;

void stop_signal_handler(int /*signum*/) { g_stop_requested = 1; }

obs::Counter& supervisor_counter(const char* name) {
  return obs::Registry::global().counter(name);
}

/// Journal fields are space-separated; paths with whitespace would make
/// records ambiguous, so refuse them up front.
void check_journal_token(const std::string& token, const char* what) {
  COLOC_CHECK_MSG(!token.empty(), std::string(what) + " must not be empty");
  for (char c : token) {
    COLOC_CHECK_MSG(c != ' ' && c != '\n' && c != '\r' && c != '\t',
                    std::string(what) + " must not contain whitespace: " +
                        token);
  }
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream is(line);
  std::string field;
  while (is >> field) fields.push_back(field);
  return fields;
}

}  // namespace

const JournalStage* JournalState::find(const std::string& stage) const {
  for (const JournalStage& s : completed) {
    if (s.name == stage) return &s;
  }
  return nullptr;
}

JournalState StageJournal::parse(const std::string& text) {
  JournalState state;
  std::size_t pos = 0;
  bool saw_header = false;
  JournalStage open_stage;  // artifacts accumulate between start and done
  bool stage_open = false;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // torn tail: drop the partial line
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != kJournalHeader) {
        throw coloc::data_error("not a coloc stage journal");
      }
      saw_header = true;
      continue;
    }
    const std::vector<std::string> fields = split_fields(line);
    if (fields.empty()) continue;
    if (fields[0] == "start" && fields.size() == 2) {
      open_stage = JournalStage{fields[1], {}};
      stage_open = true;
      state.clean_stop = false;
    } else if (fields[0] == "artifact" && fields.size() == 5) {
      if (stage_open && fields[1] == open_stage.name) {
        JournalArtifact a;
        a.path = fields[2];
        a.bytes = std::strtoull(fields[3].c_str(), nullptr, 10);
        a.digest = fields[4];
        open_stage.artifacts.push_back(std::move(a));
      }
    } else if (fields[0] == "done" && fields.size() == 2) {
      if (stage_open && fields[1] == open_stage.name) {
        state.completed.push_back(std::move(open_stage));
        stage_open = false;
      }
    } else if (fields[0] == "stop" && fields.size() == 1) {
      state.clean_stop = true;
    }
    // Unknown or malformed records are skipped, not fatal: the journal
    // may carry a torn line in the middle only if a concurrent writer
    // misbehaved, and the conservative response is to ignore the record
    // (its stage then simply re-runs).
  }
  return state;
}

StageJournal::StageJournal(std::string path, bool resume)
    : path_(std::move(path)) {
  COLOC_CHECK_MSG(!path_.empty(), "stage journal needs a path");
  if (resume) {
    if (const std::optional<std::string> raw =
            store::read_file_if_exists(path_)) {
      state_ = parse(*raw);
    }
    // A resumed run is live again: drop any clean-stop marker.
    state_.clean_stop = false;
  }
  // Compact: rewrite only the surviving records so the on-disk file has
  // no torn tail and later appends extend a verified prefix.
  rewrite();
}

void StageJournal::rewrite() {
  std::ostringstream os;
  os << kJournalHeader << '\n';
  for (const JournalStage& s : state_.completed) {
    os << "start " << s.name << '\n';
    for (const JournalArtifact& a : s.artifacts) {
      os << "artifact " << s.name << ' ' << a.path << ' ' << a.bytes << ' '
         << a.digest << '\n';
    }
    os << "done " << s.name << '\n';
  }
  if (state_.clean_stop) os << "stop\n";
  store::write_file_atomic(path_, os.str());
}

void StageJournal::append(const std::string& line) {
  store::append_file_durable(path_, line + "\n");
}

void StageJournal::record_start(const std::string& stage) {
  check_journal_token(stage, "stage name");
  append("start " + stage);
}

void StageJournal::record_done(const std::string& stage,
                               const std::vector<JournalArtifact>& artifacts) {
  check_journal_token(stage, "stage name");
  for (const JournalArtifact& a : artifacts) {
    check_journal_token(a.path, "artifact path");
    append("artifact " + stage + " " + a.path + " " +
           std::to_string(a.bytes) + " " + a.digest);
  }
  append("done " + stage);
  state_.completed.push_back(JournalStage{stage, artifacts});
}

void StageJournal::record_stop() {
  append("stop");
  state_.clean_stop = true;
}

void StageJournal::reset_from(const std::string& stage) {
  const auto it = std::find_if(
      state_.completed.begin(), state_.completed.end(),
      [&](const JournalStage& s) { return s.name == stage; });
  if (it == state_.completed.end()) return;
  state_.completed.erase(it, state_.completed.end());
  rewrite();
}

const char* to_string(StageOutcome outcome) {
  switch (outcome) {
    case StageOutcome::kRan: return "ran";
    case StageOutcome::kSkippedValid: return "skipped";
    case StageOutcome::kStopped: return "stopped";
  }
  return "unknown";
}

PipelineSupervisor::PipelineSupervisor(Options options)
    : journal_(options.journal_path, options.resume),
      resume_(options.resume), handle_signals_(options.handle_signals) {
  if (handle_signals_) {
    old_term_ = std::signal(SIGTERM, stop_signal_handler);
    old_int_ = std::signal(SIGINT, stop_signal_handler);
  }
}

PipelineSupervisor::~PipelineSupervisor() {
  if (handle_signals_) {
    std::signal(SIGTERM, old_term_ != SIG_ERR ? old_term_ : SIG_DFL);
    std::signal(SIGINT, old_int_ != SIG_ERR ? old_int_ : SIG_DFL);
  }
}

bool PipelineSupervisor::stop_requested() const {
  return g_stop_requested != 0;
}

void PipelineSupervisor::request_stop() { g_stop_requested = 1; }

void PipelineSupervisor::clear_stop_request() { g_stop_requested = 0; }

StageOutcome PipelineSupervisor::run_stage(
    const std::string& stage, const std::vector<std::string>& artifacts,
    const std::function<void()>& body) {
  if (stop_requested()) {
    if (!stopped_) {
      journal_.record_stop();
      stopped_ = true;
      supervisor_counter("supervisor_clean_stops_total").inc();
      COLOC_LOG_INFO << "stop requested; pipeline halting before stage '"
                     << stage << "' (resume with --resume)";
    }
    return StageOutcome::kStopped;
  }

  if (const JournalStage* record = journal_.state().find(stage)) {
    bool valid = resume_;
    std::string why;
    for (const JournalArtifact& a : record->artifacts) {
      if (!valid) break;
      const std::optional<std::string> bytes =
          store::read_file_if_exists(a.path);
      if (!bytes.has_value()) {
        valid = false;
        why = "artifact missing: " + a.path;
      } else if (bytes->size() != a.bytes ||
                 store::digest_hex(*bytes) != a.digest) {
        valid = false;
        why = "artifact digest mismatch: " + a.path;
      }
    }
    if (valid) {
      ++skipped_;
      supervisor_counter("supervisor_stage_skipped_total").inc();
      COLOC_LOG_INFO << "stage '" << stage << "' already complete; skipping";
      return StageOutcome::kSkippedValid;
    }
    // Journaled but unverifiable (or resume disabled): this stage and
    // everything after it must re-run against fresh inputs.
    ++replayed_;
    supervisor_counter("supervisor_stage_replayed_total").inc();
    if (!why.empty()) {
      COLOC_LOG_WARN << "stage '" << stage << "' journaled but invalid ("
                     << why << "); replaying it and all later stages";
    }
    journal_.reset_from(stage);
  }

  journal_.record_start(stage);
  body();

  std::vector<JournalArtifact> recorded;
  recorded.reserve(artifacts.size());
  for (const std::string& path : artifacts) {
    const std::optional<std::string> bytes = store::read_file_if_exists(path);
    COLOC_CHECK_MSG(bytes.has_value(), "stage '" + stage +
                                           "' did not produce promised "
                                           "artifact: " +
                                           path);
    JournalArtifact a;
    a.path = path;
    a.bytes = bytes->size();
    a.digest = store::digest_hex(*bytes);
    recorded.push_back(std::move(a));
  }
  journal_.record_done(stage, recorded);
  ++executed_;
  supervisor_counter("supervisor_stage_executed_total").inc();
  return StageOutcome::kRan;
}

}  // namespace coloc::core
