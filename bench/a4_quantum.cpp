// Ablation A4: the RR-job basic quantum q.
//
// The paper does not report its q; this bench shows the trade-off the
// choice embodies. Small quanta approximate processor sharing but multiply
// context switches; large quanta amortise switching but make the policy
// behave like run-to-completion within each round.
#include <iostream>
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
  std::cout << "Ablation A4: basic quantum sweep (pure time-sharing, matmul "
               "batch,\nfixed architecture, 16-node mesh)\n";

  const std::vector<int> quanta_ms = {5, 10, 20, 50, 100, 200, 500};
  core::SweepRunner runner(options.threads);
  std::size_t dots = 0;
  const auto runs = runner.map(
      quanta_ms.size(),
      [&](std::size_t i) {
        auto config =
            core::figure_point(workload::App::kMatMul,
                               sched::SoftwareArch::kFixed,
                               sched::PolicyKind::kTimeSharing, 16,
                               net::TopologyKind::kMesh);
        config.machine.policy.basic_quantum =
            sim::SimTime::milliseconds(quanta_ms[i]);
        // The observed run is the smallest quantum (most context switching).
        obs.attach(config.machine, /*representative=*/i == 0);
        return core::run_batch(config, workload::BatchOrder::kInterleaved);
      },
      [&](std::size_t done, std::size_t) {
        for (; dots < done; ++dots) std::cout << "." << std::flush;
      });

  core::Table table({"q (ms)", "MRT (s)", "ctx switches", "quantum expiries",
                     "cpu util"});
  for (std::size_t i = 0; i < quanta_ms.size(); ++i) {
    const auto& run = runs[i];
    table.add_row({std::to_string(quanta_ms[i]),
                   core::fmt_seconds(run.mean_response_s()),
                   std::to_string(run.machine.context_switches),
                   std::to_string(run.machine.quantum_expiries),
                   core::fmt_ratio(run.machine.avg_cpu_utilization)});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nExpected shape: context switches fall roughly as 1/q, and the "
               "response curve\nhas an interior optimum: tiny quanta multiply "
               "switching and gang-turn overheads,\nlarge quanta stretch the "
               "rotation latency every synchronisation must ride.\n";
  return obs.flush(std::cerr);
}
