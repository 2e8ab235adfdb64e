// Ablation A6: the static policy's ordering sensitivity.
//
// The paper reports static results as the average of the best (small jobs
// first) and worst (large jobs first) orderings. This bench shows the
// spread being averaged over -- how much FCFS order matters at each
// partition size.
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
  std::cout << "Ablation A6: static-policy ordering spread (matmul batch, "
               "adaptive architecture, mesh)\n";

  const std::vector<int> partitions = {1, 2, 4, 8, 16};
  constexpr workload::BatchOrder kOrders[] = {
      workload::BatchOrder::kSmallestFirst, workload::BatchOrder::kInterleaved,
      workload::BatchOrder::kLargestFirst};
  core::SweepRunner runner(options.threads);
  std::size_t dots = 0;
  const auto runs = runner.map(
      partitions.size() * 3,
      [&](std::size_t i) {
        auto config =
            core::figure_point(workload::App::kMatMul,
                               sched::SoftwareArch::kAdaptive,
                               sched::PolicyKind::kStatic, partitions[i / 3],
                               net::TopologyKind::kMesh);
        // The observed run is the last point (worst-case ordering at p=16).
        obs.attach(config.machine,
                   /*representative=*/i == partitions.size() * 3 - 1);
        return core::run_batch(config, kOrders[i % 3]);
      },
      [&](std::size_t done, std::size_t) {
        for (; dots < done; ++dots) std::cout << "." << std::flush;
      });

  core::Table table({"partitions", "best SJF (s)", "interleaved (s)",
                     "worst LJF (s)", "worst/best", "paper avg (s)"});
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const int p = partitions[i];
    const auto& best = runs[i * 3];
    const auto& mid = runs[i * 3 + 1];
    const auto& worst = runs[i * 3 + 2];
    table.add_row(
        {std::to_string(16 / p) + " x " + std::to_string(p),
         core::fmt_seconds(best.mean_response_s()),
         core::fmt_seconds(mid.mean_response_s()),
         core::fmt_seconds(worst.mean_response_s()),
         core::fmt_ratio(worst.mean_response_s() / best.mean_response_s()),
         core::fmt_seconds(0.5 * (best.mean_response_s() +
                                  worst.mean_response_s()))});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nExpected shape: the spread is widest with few partitions "
               "(deep FCFS queues);\nwith 16 single-CPU partitions ordering "
               "barely matters.\n";
  return obs.flush(std::cerr);
}
