// Reproduces Figure 3: mean response time of the matrix-multiplication
// batch under the FIXED software architecture (16 processes per job),
// static space-sharing vs time-sharing/hybrid, over partition size and
// per-partition topology.
#include <iostream>

#include "figure_common.h"

namespace {

int run(int argc, char** argv) {
  using namespace tmc;
  const auto options =
      bench::parse_bench_options(argc, argv, bench::kFigureFamilies);
  bench::ObsSession obs(options.obs);
  std::cout << "Figure 3: matmul, fixed architecture (12x50^2 + 4x100^2, "
               "16 processes/job)\n";
  const auto rows = bench::run_figure_sweep(workload::App::kMatMul,
                                            sched::SoftwareArch::kFixed,
                                            options, std::cout, &obs);
  bench::print_figure(std::cout,
                      "Figure 3 -- matmul / fixed software architecture",
                      rows, options.csv);
  std::cout << "\nPaper shape: static < hybrid << pure TS at every partition "
               "size;\ngap grows to the right (fewer, larger partitions); "
               "linear worst for TS.\n";
  return obs.flush(std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
  return tmc::bench::run_main(argc, argv, run);
}
