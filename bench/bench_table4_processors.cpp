// Regenerates Table IV: the multicore processors used for validation,
// plus the derived simulator parameters (private filter, bandwidth,
// unloaded latency) that the substitution documents in DESIGN.md.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/report.hpp"
#include "sim/machine.hpp"

namespace {
int run(const coloc::CliArgs& args) {
  using namespace coloc;
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const obs::ObsSession session(config.run_session());
  const std::vector<sim::MachineConfig> machines = {sim::xeon_e5649(),
                                                    sim::xeon_e5_2697v2()};
  core::render_table4(machines).print(std::cout);

  TextTable detail("Simulator substrate parameters (per DESIGN.md)");
  detail.set_columns({"processor", "private cache", "mem BW (GB/s)",
                      "unloaded latency (ns)", "LLC assoc", "P-states"});
  for (const auto& m : machines) {
    detail.add_row({m.name,
                    std::to_string(m.private_bytes >> 10) + "KB/core",
                    TextTable::num(m.memory_bandwidth_gbs, 1),
                    TextTable::num(m.memory_latency_ns, 0),
                    TextTable::num(m.llc_associativity),
                    TextTable::num(m.pstates.size())});
  }
  detail.print(std::cout);

  TextTable pstates("P-state ladders (frequency GHz @ voltage)");
  pstates.set_columns({"processor", "P0", "P1", "P2", "P3", "P4", "P5"});
  for (const auto& m : machines) {
    std::vector<std::string> row = {m.name};
    for (std::size_t p = 0; p < m.pstates.size(); ++p) {
      row.push_back(TextTable::num(m.pstates[p].frequency_ghz, 2) + "@" +
                    TextTable::num(m.pstates[p].voltage, 2) + "V");
    }
    pstates.add_row(std::move(row));
  }
  pstates.print(std::cout);
  return 0;
}
}  // namespace

int main(int argc, char** argv) {
  return coloc::bench::run_main(argc, argv, run);
}
