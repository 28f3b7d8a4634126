// Write-ahead stage journal + pipeline supervisor: makes the end-to-end
// pipeline (campaign -> baselines -> train -> validate -> report)
// resumable after a crash or a clean SIGTERM/SIGINT stop.
//
// The journal is a line-oriented write-ahead log, appended durably
// (O_APPEND + fsync) at every stage boundary:
//
//   coloc-journal v1
//   start <stage>
//   artifact <stage> <path> <bytes> <digest>     (one per artifact)
//   done <stage>
//   stop                                          (clean-interrupt marker)
//
// A stage counts as completed only when its `done` line is present and
// complete; a torn tail (partial last line from a crash mid-append) is
// dropped on load, which re-runs exactly the stage that was in flight.
// On resume the supervisor re-verifies every completed stage's artifacts
// byte-for-byte (size + FNV-1a digest) before skipping it — a stage whose
// outputs were corrupted or deleted is replayed, along with everything
// after it, because later stages consumed the now-invalid bytes.
//
// SIGTERM/SIGINT do not kill the pipeline mid-commit: the handler only
// sets a flag, the in-flight stage finishes and journals `done`, then the
// supervisor journals `stop` and refuses further stages. A subsequent
// --resume run picks up from the first unfinished stage.
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace coloc::core {

/// One artifact recorded at a stage boundary.
struct JournalArtifact {
  std::string path;
  std::uint64_t bytes = 0;
  std::string digest;  // store::digest_hex of the file contents
};

/// A completed stage as recorded in the journal.
struct JournalStage {
  std::string name;
  std::vector<JournalArtifact> artifacts;
};

/// Parsed journal state (torn tail already dropped).
struct JournalState {
  std::vector<JournalStage> completed;  // in execution order
  bool clean_stop = false;              // trailing `stop` record present

  const JournalStage* find(const std::string& stage) const;
};

/// The write-ahead stage journal. Not thread-safe: the pipeline runs
/// stages sequentially by construction.
class StageJournal {
 public:
  /// Opens (and on resume, loads) the journal at `path`. When
  /// `resume` is false any existing journal is discarded and a fresh
  /// header is committed. When true, the existing file is parsed
  /// (tolerating a torn tail) and compacted: the surviving records are
  /// rewritten atomically so later appends start from a clean prefix.
  StageJournal(std::string path, bool resume);

  const JournalState& state() const { return state_; }

  void record_start(const std::string& stage);
  void record_done(const std::string& stage,
                   const std::vector<JournalArtifact>& artifacts);
  void record_stop();

  /// Drops `stage` and every later completed stage from the journal
  /// (they must re-run), rewriting the file atomically.
  void reset_from(const std::string& stage);

  static JournalState parse(const std::string& text);

 private:
  void rewrite();
  void append(const std::string& line);

  std::string path_;
  JournalState state_;
};

enum class StageOutcome {
  kRan,           // body executed, artifacts journaled
  kSkippedValid,  // journal said done and every artifact digest verified
  kStopped,       // a stop was requested; body not executed
};

const char* to_string(StageOutcome outcome);

/// Orchestrates sequential pipeline stages through the journal.
class PipelineSupervisor {
 public:
  struct Options {
    std::string journal_path;
    bool resume = false;
    /// Install SIGTERM/SIGINT handlers that request a clean stop.
    bool handle_signals = false;
  };

  explicit PipelineSupervisor(Options options);
  ~PipelineSupervisor();

  PipelineSupervisor(const PipelineSupervisor&) = delete;
  PipelineSupervisor& operator=(const PipelineSupervisor&) = delete;

  /// Runs one stage. `artifacts` are the files the stage promises to
  /// produce; after `body` returns they must all exist (checked) and
  /// their digests are journaled. On resume, a stage whose journal
  /// record and artifact digests all verify is skipped; a stage whose
  /// record is present but whose artifacts fail verification is
  /// replayed, as is everything journaled after it.
  StageOutcome run_stage(const std::string& stage,
                         const std::vector<std::string>& artifacts,
                         const std::function<void()>& body);

  /// True once a stop was requested (signal or request_stop). The next
  /// run_stage call will journal `stop` and return kStopped.
  bool stop_requested() const;

  /// Programmatic stop request (what the signal handlers call).
  static void request_stop();

  /// Clears a pending stop request (process-global; tests and fresh
  /// pipeline runs in the same process need this).
  static void clear_stop_request();

  /// Number of stages this run skipped / executed / replayed.
  std::size_t stages_skipped() const { return skipped_; }
  std::size_t stages_executed() const { return executed_; }
  std::size_t stages_replayed() const { return replayed_; }
  bool stopped_cleanly() const { return stopped_; }

  const StageJournal& journal() const { return journal_; }

 private:
  StageJournal journal_;
  bool resume_ = false;
  bool handle_signals_ = false;
  bool stopped_ = false;
  std::size_t skipped_ = 0;
  std::size_t executed_ = 0;
  std::size_t replayed_ = 0;
  using SignalHandler = void (*)(int);
  SignalHandler old_term_ = nullptr;
  SignalHandler old_int_ = nullptr;
};

}  // namespace coloc::core
