// Ablation A5: node memory size.
//
// The paper's job sizes were chosen so that multiprogramming level 16 just
// fits in 4 MB per node, and it attributes much of time-sharing's loss to
// memory contention (blocked mailbox allocations at loaded nodes). This
// bench sweeps the node memory: below the paper's size contention should
// bite hard (blocked allocation time grows); above it the effect saturates.
#include <iostream>
#include <optional>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "core/sweep_runner.h"
#include "figure_common.h"

int main(int argc, char** argv) {
  using namespace tmc;
  const auto options =
      bench::parse_bench_options(argc, argv, bench::kAblationFamilies);
  bench::ObsSession obs(options.obs);
  std::cout << "Ablation A5: node memory sweep (pure time-sharing, matmul "
               "batch,\nfixed architecture, 16-node mesh)\n";

  const std::vector<std::size_t> mem_kb = {512, 1024, 2048, 4096, 8192, 16384};
  core::SweepRunner runner(options.threads);
  std::size_t dots = 0;
  const auto runs = runner.map(
      mem_kb.size(),
      [&](std::size_t i) -> std::optional<core::RunResult> {
        auto config =
            core::figure_point(workload::App::kMatMul,
                               sched::SoftwareArch::kFixed,
                               sched::PolicyKind::kTimeSharing, 16,
                               net::TopologyKind::kMesh);
        config.machine.memory_per_node = mem_kb[i] * 1024;
        config.machine.max_sim_time = sim::SimTime::seconds(120);
        // The observed run is the paper's 4 MB configuration.
        obs.attach(config.machine, /*representative=*/mem_kb[i] == 4096);
        try {
          return core::run_batch(config, workload::BatchOrder::kInterleaved);
        } catch (const std::runtime_error&) {
          // Below the batch's working set the machine wedges on memory: every
          // node's allocator queue stalls -- a real buffer deadlock, reported
          // as such (the paper's sizes were picked to avoid exactly this).
          return std::nullopt;
        }
      },
      [&](std::size_t done, std::size_t) {
        for (; dots < done; ++dots) std::cout << "." << std::flush;
      });

  core::Table table({"mem/node (KB)", "MRT (s)", "peak node mem (KB)",
                     "blocked allocs", "blocked time (s)"});
  for (std::size_t i = 0; i < mem_kb.size(); ++i) {
    const std::string kb = std::to_string(mem_kb[i]);
    if (const auto& run = runs[i]) {
      table.add_row(
          {kb, core::fmt_seconds(run->mean_response_s()),
           std::to_string(run->machine.peak_node_memory / 1024),
           std::to_string(run->machine.mem_blocked_requests),
           core::fmt_seconds(run->machine.mem_block_time.to_seconds())});
    } else {
      table.add_row({kb, "deadlock", "-", "-", "-"});
    }
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nExpected shape: below the working set, blocked allocations "
               "and response time\nclimb steeply; beyond it, extra memory "
               "buys nothing (blocked time ~ 0).\n";
  return obs.flush(std::cerr);
}
