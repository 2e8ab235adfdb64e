// Ablation A9: adaptive space-sharing vs the paper's policies.
//
// The paper's taxonomy (section 2.1) names semi-static/dynamic space
// sharing but evaluates only fixed equal partitions. This bench adds the
// classic adaptive policy ([5, 10] in the paper's references): partition
// size = machine / jobs-in-system, buddy-allocated at dispatch. For a batch
// arriving at once, adaptivity must pick its way between the fixed sizes;
// the interesting question is whether it lands near the best fixed choice
// without being told the load.
#include <iostream>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "core/sweep_runner.h"
#include "figure_common.h"

namespace {

using namespace tmc;

core::ExperimentConfig adaptive_config(workload::App app,
                                       sched::SoftwareArch arch) {
  auto config = core::figure_point(app, arch,
                                   sched::PolicyKind::kAdaptiveStatic, 16,
                                   net::TopologyKind::kMesh);
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tmc;
  const auto options =
      bench::parse_bench_options(argc, argv, bench::kAblationFamilies);
  bench::ObsSession obs(options.obs);
  std::cout << "Ablation A9: adaptive space-sharing (buddy-allocated, "
               "equipartition target)\nvs fixed static partitions and the "
               "hybrid policy; mesh, 16-job batch.\n";

  const std::vector<int> partitions = {1, 2, 4, 8, 16};
  core::SweepRunner runner(options.threads);
  for (const auto app : {workload::App::kMatMul, workload::App::kSort}) {
    const auto arch = sched::SoftwareArch::kAdaptive;
    core::banner(std::cout, std::string(workload::to_string(app)) +
                                " / adaptive software architecture");
    // Points 0-4: static per partition size; 5: hybrid; 6: adaptive-static.
    std::size_t dots = 0;
    const auto mrts = runner.map(
        partitions.size() + 2,
        [&](std::size_t i) {
          if (i < partitions.size()) {
            return core::run_experiment(
                       core::figure_point(app, arch, sched::PolicyKind::kStatic,
                                          partitions[i],
                                          net::TopologyKind::kMesh))
                .mean_response_s;
          }
          if (i == partitions.size()) {
            return core::run_experiment(
                       core::figure_point(app, arch, sched::PolicyKind::kHybrid,
                                          4, net::TopologyKind::kMesh))
                .mean_response_s;
          }
          // The observed run is the matmul adaptive-static point (the
          // policy this ablation introduces).
          auto config = adaptive_config(app, arch);
          obs.attach(config.machine,
                     /*representative=*/app == workload::App::kMatMul);
          return core::run_experiment(config).mean_response_s;
        },
        [&](std::size_t done, std::size_t) {
          for (; dots < done; ++dots) std::cout << "." << std::flush;
        });

    core::Table table({"policy", "MRT (s)"});
    for (std::size_t i = 0; i < partitions.size(); ++i) {
      table.add_row({"static p=" + std::to_string(partitions[i]),
                     core::fmt_seconds(mrts[i])});
    }
    table.add_row(
        {"hybrid p=4", core::fmt_seconds(mrts[partitions.size()])});
    table.add_row({"adaptive-static (buddy)",
                   core::fmt_seconds(mrts[partitions.size() + 1])});
    std::cout << "\n";
    table.print(std::cout);
  }

  std::cout
      << "\nExpected shape: for matmul, adaptive space-sharing lands between "
         "the fixed\nsizes without being told the load (early dispatches "
         "take large blocks, the\nbacklogged tail degrades toward small "
         "ones). For sort it backfires: once the\nqueue is deep it hands "
         "out 1-2 CPU blocks, and an adaptive-width selection sort\non one "
         "CPU is quadratic in the whole array -- allocation policy and "
         "algorithmic\nscalability interact, which is why the adaptive "
         "family needs workload speedup\nknowledge ([10] Rosti et al.).\n";
  return obs.flush(std::cerr);
}
