// Benchmark driver: runs one workload and prints the result line.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//   perfbench_driver --self-test
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"};
// the line before it carries diagnostics (digests, host probe readings,
// per-pass times). Exit status: 0 when every correctness check passed,
// 1 when one failed, 2 on a usage error.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/log.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1\n"
               "       perfbench_driver --self-test\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value != "0";
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }

  if (self_test) {
    const int failures = perfbench::run_self_tests();
    std::printf("self-test: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  if (options.workload.empty()) return usage("--workload is required");

  // One malloc arena: with per-thread arenas, peak RSS depends on which
  // worker happened to free what, and varies from run to run.
  mallopt(M_ARENA_MAX, 1);
  // Library progress lines and info logs would interleave with the
  // result; keep stderr to warnings.
  setenv("COLOC_PROGRESS", "0", 1);
  coloc::set_log_level(coloc::LogLevel::kWarn);
  try {
    const perfbench::RunResult result = perfbench::run_workload(options);
    result.print();
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
