// Shared fixtures: a small fast machine and tiny applications so the core
// pipeline tests run in milliseconds instead of profiling 64 MB working
// sets.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"
#include "obs/json.hpp"
#include "sim/app_model.hpp"
#include "sim/execution.hpp"
#include "sim/machine.hpp"

namespace coloc::testing_helpers {

/// 4-core machine, 2 MB LLC, 3 P-states — tiny but structurally complete.
inline sim::MachineConfig tiny_machine() {
  sim::MachineConfig m;
  m.name = "TinyTest 4-core";
  m.cores = 4;
  m.llc_bytes = 2ULL << 20;
  m.line_bytes = 64;
  m.llc_associativity = 16;
  m.private_bytes = 128ULL << 10;
  m.memory_bandwidth_gbs = 10.0;
  m.memory_latency_ns = 70.0;
  m.memory_queue_sensitivity = 0.5;
  m.pstates = sim::PStateTable::evenly_spaced(1.5, 2.5, 3);
  sim::validate(m);
  return m;
}

/// Small app with a configurable working set / intensity profile.
inline sim::ApplicationSpec tiny_app(const std::string& name,
                                     std::size_t ws_lines, double compulsory,
                                     double rpi = 0.02,
                                     double instructions = 100e9) {
  sim::ApplicationSpec a;
  a.name = name;
  a.instructions = instructions;
  a.cpi_base = 0.7;
  a.refs_per_instruction = rpi;
  a.mlp = 2.5;
  a.compulsory_misses_per_instruction = compulsory;
  sim::Phase p;
  p.working_set_lines = ws_lines;
  p.mix = {.hot_cold = 0.7, .pointer = 0.3};
  p.zipf_exponent = 0.85;
  a.trace.phases = {p};
  a.trace.name = name;
  a.profile_references = 120'000;
  return a;
}

/// A 4-app mini-suite spanning hungry-to-quiet behaviour.
inline std::vector<sim::ApplicationSpec> tiny_suite() {
  return {
      tiny_app("hog", 120'000, 4e-3, 0.03),     // class I analogue
      tiny_app("medium", 30'000, 4e-4, 0.02),   // class II analogue
      tiny_app("light", 6'000, 5e-5, 0.015),    // class III analogue
      tiny_app("quiet", 1'000, 1e-6, 0.01),     // class IV analogue
  };
}

/// Expects `got` to hold `want`'s column names, tags and every double bit
/// for bit (-0.0 differs from 0.0 here).
inline void expect_datasets_identical(const ml::Dataset& got,
                                      const ml::Dataset& want) {
  EXPECT_EQ(got.feature_names(), want.feature_names());
  EXPECT_EQ(got.target_name(), want.target_name());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t r = 0; r < got.num_rows(); ++r) {
    EXPECT_EQ(got.tag(r), want.tag(r)) << "row " << r;
    EXPECT_EQ(bits(got.target(r)), bits(want.target(r)))
        << "row " << r << " (" << got.tag(r) << ") target "
        << obs::format_double(got.target(r)) << " vs "
        << obs::format_double(want.target(r));
    const auto a = got.features(r);
    const auto b = want.features(r);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a.size(); ++c) {
      EXPECT_EQ(bits(a[c]), bits(b[c]))
          << "row " << r << " col " << c << " (" << got.tag(r) << ") "
          << obs::format_double(a[c]) << " vs "
          << obs::format_double(b[c]);
    }
  }
}

/// `ds` written by to_csv as CSV text, parsed back and loaded.
inline ml::Dataset through_csv_text(const ml::Dataset& ds) {
  std::ostringstream os;
  ds.to_csv().write(os);
  std::istringstream is(os.str());
  return ml::Dataset::from_csv(CsvTable::parse(is), ds.target_name());
}

/// One seeded mutation set for the file-reader fuzzers: 1 to 3 mutations,
/// each a bit flip, a byte insertion, a deletion of 1 to 8 bytes, a
/// truncation, a duplicated line or a swapped pair of lines, all drawn
/// from `rng`. `applied` gets one digit per mutation kind, for failure
/// messages.
inline std::string mutate_bytes(std::string bytes, Rng& rng,
                                std::string& applied) {
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_index(n));
  };
  const std::size_t mutations = 1 + pick(3);
  for (std::size_t m = 0; m < mutations && !bytes.empty(); ++m) {
    const std::size_t kind = pick(6);
    applied += std::to_string(kind);
    if (kind == 0) {  // bit flip
      bytes[pick(bytes.size())] ^= static_cast<char>(1u << pick(8));
    } else if (kind == 1) {  // byte insertion
      bytes.insert(
          bytes.begin() + static_cast<std::ptrdiff_t>(pick(bytes.size() + 1)),
          static_cast<char>(pick(256)));
    } else if (kind == 2) {  // deletion of 1 to 8 bytes
      const std::size_t at = pick(bytes.size());
      bytes.erase(at, 1 + pick(8));
    } else if (kind == 3) {  // truncation
      bytes.resize(pick(bytes.size()));
    } else {
      std::vector<std::string> lines;
      std::istringstream is(bytes);
      for (std::string line; std::getline(is, line);) lines.push_back(line);
      if (lines.empty()) continue;
      const std::size_t i = pick(lines.size());
      const std::size_t j = pick(lines.size());
      if (kind == 4) {  // duplicated line
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(j),
                     lines[i]);
      } else {  // swapped lines
        std::swap(lines[i], lines[j]);
      }
      bytes.clear();
      for (const std::string& line : lines) bytes += line + "\n";
    }
  }
  return bytes;
}

}  // namespace coloc::testing_helpers
