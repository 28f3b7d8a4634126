// Crash-recovery harness: proves the supervised pipeline survives SIGKILL
// at arbitrary points and still produces bit-identical artifacts.
//
// Two modes in one binary:
//
//   --mode=pipeline --dir=D [--resume]
//       Runs a small but complete five-stage supervised pipeline
//       (baselines -> campaign -> train -> validate -> report) under a
//       core::PipelineSupervisor journaling to D/journal.wal. Every stage
//       communicates with the next ONLY through on-disk artifacts, so a
//       freshly exec'd process can resume from any stage boundary.
//
//   --mode=harness --dir=D [--kills=N] [--seed=S] [--verbose]
//       1. Runs one uninterrupted reference pipeline into D/ref.
//       2. Repeatedly: resets D/work, launches the pipeline as a child
//          process, SIGKILLs it after a seeded random delay drawn from
//          [2ms, 0.9 * T_reference], relaunches with --resume (killing
//          again while the kill budget lasts) until it completes, then
//          byte-compares every artifact in D/work against D/ref.
//       3. Exits non-zero on the first mismatch; exits 0 once N kills
//          have been delivered and every completed trial matched.
//
// CI's recovery job runs `crash_harness --mode=harness --kills=100`; the
// ctest smoke uses a small kill budget so the suite stays fast.
#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "core/feature_sets.hpp"
#include "core/model_zoo.hpp"
#include "core/supervisor.hpp"
#include "core/zoo_artifacts.hpp"
#include "ml/validation.hpp"
#include "obs/json.hpp"
#include "sim/app_model.hpp"
#include "sim/execution.hpp"
#include "sim/machine.hpp"
#include "store/digest.hpp"
#include "store/file_ops.hpp"

namespace {

using namespace coloc;

// ---------------------------------------------------------------------------
// Pipeline mode: the supervised five-stage run.
// ---------------------------------------------------------------------------

// The zoo subset the train stage persists: both techniques, smallest and
// largest feature set. Small enough to keep a trial under a second, rich
// enough to exercise linear + MLP serialization.
const std::vector<std::string>& zoo_model_names() {
  static const std::vector<std::string> names = {"linear-A", "linear-F",
                                                 "nn-F"};
  return names;
}

core::ModelZooOptions pipeline_zoo_options() {
  core::ModelZooOptions zoo;
  zoo.mlp.max_iterations = 120;
  zoo.mlp.weight_decay = 1e-6;
  zoo.mlp.restarts = 1;
  return zoo;
}

// Artifact paths (relative to the pipeline dir) compared by the harness.
std::vector<std::string> artifact_names() {
  std::vector<std::string> names = {"baselines.csv", "dataset.csv",
                                    "validate.csv", "report.txt",
                                    "zoo/MANIFEST.json"};
  for (const std::string& model : zoo_model_names()) {
    names.push_back("zoo/models/" + model + ".model");
  }
  return names;
}

ml::Dataset load_dataset(const std::string& path) {
  const CsvTable table = CsvTable::load(path);
  return ml::Dataset::from_csv(table, "colocExTime");
}

int run_pipeline(const std::string& dir, bool resume) {
  store::create_directories(dir);

  // A deliberately tiny deterministic configuration: 2 targets x 2
  // co-runners x {1,2} copies x {lowest, highest} P-state = 16 cells.
  const sim::MachineConfig machine = sim::xeon_e5649();
  sim::AppMrcLibrary library;
  sim::MeasurementOptions measurement;
  measurement.seed = 99;
  sim::Simulator testbed(machine, &library, measurement);

  core::CampaignConfig campaign_config;
  campaign_config.targets = {sim::find_application("canneal"),
                             sim::find_application("cg")};
  campaign_config.coapps = {sim::find_application("cg"),
                            sim::find_application("ep")};
  campaign_config.colocation_counts = {1, 2};
  campaign_config.pstate_indices = {0, machine.pstates.size() - 1};
  campaign_config.jobs = 1;

  std::vector<sim::ApplicationSpec> apps = campaign_config.targets;
  for (const sim::ApplicationSpec& co : campaign_config.coapps) {
    bool known = false;
    for (const sim::ApplicationSpec& t : apps) known |= t.name == co.name;
    if (!known) apps.push_back(co);
  }
  library.profile_all(apps);

  core::PipelineSupervisor::Options options;
  options.journal_path = dir + "/journal.wal";
  options.resume = resume;
  options.handle_signals = true;
  core::PipelineSupervisor supervisor(options);

  // Stage 1: baseline characterization of every application involved.
  supervisor.run_stage("baselines", {dir + "/baselines.csv"}, [&] {
    const core::BaselineLibrary baselines =
        core::collect_baselines(testbed, apps);
    std::ostringstream os;
    os << "app,memory_intensity,cm_per_ca,ca_per_ins";
    for (std::size_t p : campaign_config.pstate_indices) {
      os << ",time_p" << p;
    }
    os << "\n";
    for (const auto& [name, profile] : baselines) {  // map: sorted by name
      os << name << ',' << obs::format_double(profile.memory_intensity) << ','
         << obs::format_double(profile.cm_per_ca) << ','
         << obs::format_double(profile.ca_per_ins);
      for (std::size_t p : campaign_config.pstate_indices) {
        os << ',' << obs::format_double(profile.time_at(p));
      }
      os << "\n";
    }
    store::write_file_atomic(dir + "/baselines.csv", os.str());
  });

  // Stage 2: the Table V sweep, checkpointing every cell so a SIGKILL
  // mid-campaign loses at most one measurement.
  supervisor.run_stage("campaign", {dir + "/dataset.csv"}, [&] {
    core::CampaignRobustness robustness;
    robustness.checkpoint_path = dir + "/checkpoint.csv";
    robustness.checkpoint_every = 1;
    robustness.resume = true;  // no-op when the checkpoint is absent
    const core::CampaignResult campaign =
        core::run_campaign(testbed, campaign_config, robustness);
    std::ostringstream os;
    campaign.dataset.to_csv().write(os);
    store::write_file_atomic(dir + "/dataset.csv", os.str());
  });

  // Stage 3: train the zoo subset FROM THE DATASET ARTIFACT (not the
  // in-memory campaign) so a resumed process trains on identical bytes.
  std::vector<std::string> train_artifacts = {dir + "/zoo/MANIFEST.json"};
  for (const std::string& model : zoo_model_names()) {
    train_artifacts.push_back(dir + "/zoo/models/" + model + ".model");
  }
  supervisor.run_stage("train", train_artifacts, [&] {
    const ml::Dataset dataset = load_dataset(dir + "/dataset.csv");
    std::vector<core::ModelId> ids;
    for (const std::string& model : zoo_model_names()) {
      ids.push_back(core::parse_model_id(model));
    }
    const core::TrainedZoo zoo =
        core::train_full_zoo(dataset, pipeline_zoo_options(), ids);
    core::save_trained_zoo(dir + "/zoo", zoo, {{"harness", "crash"}});
  });

  // Stage 4: the paper's repeated-subsampling protocol on nn-F.
  supervisor.run_stage("validate", {dir + "/validate.csv"}, [&] {
    const ml::Dataset dataset = load_dataset(dir + "/dataset.csv");
    const core::ModelId id = core::parse_model_id("nn-F");
    ml::ValidationOptions validation;
    validation.partitions = 2;
    validation.jobs = 1;
    const ml::ValidationResult result = ml::repeated_subsampling_validation(
        dataset, core::feature_set_columns(id.feature_set),
        core::make_model_factory(id, pipeline_zoo_options()), validation);
    std::ostringstream os;
    os << "train_mpe,test_mpe,train_nrmse,test_nrmse,partitions\n"
       << obs::format_double(result.train_mpe) << ','
       << obs::format_double(result.test_mpe) << ','
       << obs::format_double(result.train_nrmse) << ','
       << obs::format_double(result.test_nrmse) << ',' << result.partitions
       << "\n";
    store::write_file_atomic(dir + "/validate.csv", os.str());
  });

  // Stage 5: human-readable summary stitched from the artifacts alone.
  supervisor.run_stage("report", {dir + "/report.txt"}, [&] {
    const std::string dataset_csv = store::read_file(dir + "/dataset.csv");
    std::size_t rows = 0;
    for (char c : dataset_csv) rows += c == '\n' ? 1 : 0;
    if (rows > 0) --rows;  // header
    const std::string manifest = store::read_file(dir + "/zoo/MANIFEST.json");
    std::ostringstream os;
    os << "coloc crash-harness report v1\n"
       << "dataset_rows " << rows << "\n"
       << "zoo_bundle_digest " << store::digest_hex(manifest) << "\n"
       << "validation\n"
       << store::read_file(dir + "/validate.csv");
    store::write_file_atomic(dir + "/report.txt", os.str());
  });

  return supervisor.stopped_cleanly() ? 3 : 0;
}

// ---------------------------------------------------------------------------
// Harness mode: fork, kill, resume, compare.
// ---------------------------------------------------------------------------

std::string self_executable(const char* argv0) {
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) return exe.string();
  return argv0;
}

void reset_directory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw coloc::runtime_error("cannot reset " + dir + ": " + ec.message());
  }
}

pid_t spawn_pipeline(const std::string& exe, const std::string& dir) {
  const pid_t pid = fork();
  if (pid < 0) {
    throw coloc::runtime_error(std::string("fork failed: ") +
                               std::strerror(errno));
  }
  if (pid == 0) {
    const std::string mode = "--mode=pipeline";
    const std::string dir_arg = "--dir=" + dir;
    const std::string resume = "--resume";
    char* args[] = {const_cast<char*>(exe.c_str()),
                    const_cast<char*>(mode.c_str()),
                    const_cast<char*>(dir_arg.c_str()),
                    const_cast<char*>(resume.c_str()), nullptr};
    execv(exe.c_str(), args);
    std::fprintf(stderr, "execv %s failed: %s\n", exe.c_str(),
                 std::strerror(errno));
    _exit(127);
  }
  return pid;
}

struct ChildResult {
  bool killed = false;    // reaped via our SIGKILL
  int exit_code = -1;     // valid when !killed and the child exited
};

/// Waits up to `delay_ms` for the child to finish on its own; if it is
/// still running then, delivers SIGKILL. Either way the child is reaped.
ChildResult wait_or_kill(pid_t pid, std::int64_t delay_ms) {
  ChildResult result;
  int status = 0;
  for (std::int64_t elapsed = 0; elapsed < delay_ms; ++elapsed) {
    const pid_t reaped = waitpid(pid, &status, WNOHANG);
    if (reaped == pid) {
      result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      return result;  // finished before the kill landed
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  kill(pid, SIGKILL);
  waitpid(pid, &status, 0);
  if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
    result.killed = true;
  } else {
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return result;
}

ChildResult wait_to_completion(pid_t pid) {
  ChildResult result;
  int status = 0;
  waitpid(pid, &status, 0);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

bool compare_artifacts(const std::string& ref_dir,
                       const std::string& work_dir) {
  bool all_match = true;
  for (const std::string& name : artifact_names()) {
    const auto expected = store::read_file_if_exists(ref_dir + "/" + name);
    const auto actual = store::read_file_if_exists(work_dir + "/" + name);
    if (!expected.has_value()) {
      std::fprintf(stderr, "crash_harness: reference artifact missing: %s\n",
                   name.c_str());
      all_match = false;
      continue;
    }
    if (!actual.has_value()) {
      std::fprintf(stderr, "crash_harness: recovered run lost artifact %s\n",
                   name.c_str());
      all_match = false;
      continue;
    }
    if (*expected != *actual) {
      std::fprintf(stderr,
                   "crash_harness: artifact %s diverged after recovery "
                   "(reference %zu bytes %s, recovered %zu bytes %s)\n",
                   name.c_str(), expected->size(),
                   store::digest_hex(*expected).c_str(), actual->size(),
                   store::digest_hex(*actual).c_str());
      all_match = false;
    }
  }
  return all_match;
}

int run_harness(const std::string& exe, const std::string& dir,
                std::size_t kills_target, std::uint64_t seed, bool verbose) {
  const std::string ref_dir = dir + "/ref";
  const std::string work_dir = dir + "/work";

  // Reference: one uninterrupted run, timed to scale the kill delays.
  reset_directory(ref_dir);
  const auto ref_begin = std::chrono::steady_clock::now();
  {
    const ChildResult ref = wait_to_completion(spawn_pipeline(exe, ref_dir));
    if (ref.exit_code != 0) {
      std::fprintf(stderr,
                   "crash_harness: reference pipeline failed (exit %d)\n",
                   ref.exit_code);
      return 2;
    }
  }
  const std::int64_t ref_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - ref_begin)
          .count();
  const std::int64_t max_delay_ms = std::max<std::int64_t>(10, ref_ms * 9 / 10);
  std::printf("crash_harness: reference run took %lld ms; "
              "kill window [2, %lld] ms, budget %zu kills\n",
              static_cast<long long>(ref_ms),
              static_cast<long long>(max_delay_ms), kills_target);

  Rng rng(seed);
  std::size_t kills_delivered = 0;
  std::size_t trials = 0;
  std::size_t launches = 0;
  const std::size_t launch_cap = kills_target * 10 + 100;

  while (kills_delivered < kills_target) {
    reset_directory(work_dir);
    ++trials;
    std::size_t trial_kills = 0;
    while (true) {
      if (++launches > launch_cap) {
        std::fprintf(stderr,
                     "crash_harness: launch cap exceeded (%zu launches, "
                     "%zu/%zu kills) — pipeline not making progress\n",
                     launches, kills_delivered, kills_target);
        return 2;
      }
      const pid_t pid = spawn_pipeline(exe, work_dir);
      ChildResult result;
      if (kills_delivered < kills_target) {
        const std::int64_t delay_ms = 2 + static_cast<std::int64_t>(
            rng.uniform(0.0, static_cast<double>(max_delay_ms - 2)));
        result = wait_or_kill(pid, delay_ms);
      } else {
        result = wait_to_completion(pid);
      }
      if (result.killed) {
        ++kills_delivered;
        ++trial_kills;
        continue;  // resume from the journal
      }
      if (result.exit_code != 0) {
        std::fprintf(stderr,
                     "crash_harness: resumed pipeline failed (exit %d) on "
                     "trial %zu\n",
                     result.exit_code, trials);
        return 2;
      }
      break;  // completed
    }
    if (!compare_artifacts(ref_dir, work_dir)) {
      std::fprintf(stderr,
                   "crash_harness: FAIL — artifacts diverged on trial %zu "
                   "(%zu kills in trial, %zu total)\n",
                   trials, trial_kills, kills_delivered);
      return 1;
    }
    if (verbose) {
      std::printf("crash_harness: trial %zu ok (%zu kills, %zu/%zu total)\n",
                  trials, trial_kills, kills_delivered, kills_target);
    }
  }

  std::printf("crash_harness: PASS — %zu trials, %zu SIGKILLs delivered, "
              "every recovered run bit-identical to the reference\n",
              trials, kills_delivered);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const coloc::CliArgs args(argc, argv);
  const std::string mode = args.get("mode", "harness");
  const std::string dir = args.get("dir", "crash_harness_out");
  try {
    if (mode == "pipeline") {
      return run_pipeline(dir, args.get_bool("resume", false));
    }
    if (mode == "harness") {
      const std::size_t kills = args.get_int("kills", 25);
      const std::uint64_t seed = args.get_int("seed", 1234);
      return run_harness(self_executable(argv[0]), dir, kills, seed,
                         args.get_bool("verbose", false));
    }
    std::fprintf(stderr, "unknown --mode=%s (use pipeline|harness)\n",
                 mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crash_harness: fatal: %s\n", e.what());
    return 2;
  }
}
