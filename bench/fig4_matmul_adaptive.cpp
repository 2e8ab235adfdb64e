// Reproduces Figure 4: the matrix-multiplication batch under the ADAPTIVE
// software architecture (process count = partition size, discovered at
// dispatch).
#include <iostream>

#include "figure_common.h"

namespace {

int run(int argc, char** argv) {
  using namespace tmc;
  const auto options =
      bench::parse_bench_options(argc, argv, bench::kFigureFamilies);
  bench::ObsSession obs(options.obs);
  std::cout << "Figure 4: matmul, adaptive architecture (12x50^2 + 4x100^2, "
               "processes = partition size)\n";
  const auto rows = bench::run_figure_sweep(workload::App::kMatMul,
                                            sched::SoftwareArch::kAdaptive,
                                            options, std::cout, &obs);
  bench::print_figure(std::cout,
                      "Figure 4 -- matmul / adaptive software architecture",
                      rows, options.csv);
  std::cout << "\nPaper shape: as Figure 3, but adaptive beats fixed (fewer "
               "processes => fewer\nself-sends and buffers); at one "
               "partition the two architectures coincide.\n";
  return obs.flush(std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
  return tmc::bench::run_main(argc, argv, run);
}
