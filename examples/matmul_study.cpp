// Matmul policy study: one slice of the paper's Figures 3/4 with per-class
// breakdowns, plus the machine-level counters that explain the result.
//
// Usage: matmul_study [partition_size] (default 8; must divide 16). A
// malformed or non-dividing size, or an extra argument, exits 2.

#include <iostream>
#include <string>

#include "cli/flags.h"
#include "core/experiment.h"
#include "core/report.h"

int main(int argc, char** argv) {
  using namespace tmc;
  if (argc > 2) {
    std::cerr << "usage: matmul_study [partition_size]\n";
    return 2;
  }
  int partition = 8;
  if (argc > 1) {
    const std::string error =
        cli::parse_integer("partition_size", argv[1], 1, 16, partition);
    if (!error.empty()) {
      std::cerr << "matmul_study: " << error << "\n";
      return 2;
    }
  }
  if (16 % partition != 0) {
    std::cerr << "matmul_study: partition size must divide 16\n";
    return 2;
  }

  std::cout << "Matmul batch (12 x 60^2 + 4 x 120^2 doubles) on a 16-node "
               "machine,\npartition size "
            << partition << ", per-partition mesh.\n\n";

  for (const auto arch :
       {sched::SoftwareArch::kFixed, sched::SoftwareArch::kAdaptive}) {
    core::banner(std::cout, std::string("software architecture: ") +
                                std::string(sched::to_string(arch)));
    core::Table table({"policy", "MRT (s)", "small (s)", "large (s)",
                       "cpu util", "msgs", "self-sends", "mem blocked",
                       "peak mem (KB)"});
    for (const auto policy :
         {sched::PolicyKind::kStatic, sched::PolicyKind::kHybrid}) {
      const auto effective = partition == 16 &&
                                     policy == sched::PolicyKind::kHybrid
                                 ? sched::PolicyKind::kTimeSharing
                                 : policy;
      const auto result = core::run_experiment(core::figure_point(
          workload::App::kMatMul, arch, effective, partition,
          net::TopologyKind::kMesh));
      const auto& run = result.primary;
      table.add_row(
          {std::string(sched::to_string(effective)),
           core::fmt_seconds(result.mean_response_s),
           core::fmt_seconds(run.response_small.mean()),
           core::fmt_seconds(run.response_large.mean()),
           core::fmt_ratio(run.machine.avg_cpu_utilization),
           std::to_string(run.machine.messages),
           std::to_string(run.machine.self_sends),
           std::to_string(run.machine.mem_blocked_requests),
           std::to_string(run.machine.peak_node_memory / 1024)});
    }
    table.print(std::cout);
  }

  std::cout
      << "\nWhat to look for (paper section 5.2):\n"
         "  * static beats the time-shared policy in mean response;\n"
         "  * the fixed architecture sends more (self-sends > 0 when 16\n"
         "    processes share fewer processors) and is slower than adaptive;\n"
         "  * under time-sharing the peak node memory approaches the 4 MB\n"
         "    limit and allocations start blocking.\n";
  return 0;
}
