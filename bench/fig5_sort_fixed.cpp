// Reproduces Figure 5: the sorting batch (divide-and-conquer, selection-sort
// workers) under the FIXED software architecture.
#include <iostream>

#include "figure_common.h"

namespace {

int run(int argc, char** argv) {
  using namespace tmc;
  const auto options =
      bench::parse_bench_options(argc, argv, bench::kFigureFamilies);
  bench::ObsSession obs(options.obs);
  std::cout << "Figure 5: sort, fixed architecture (12x6000 + 4x14000 "
               "elements, 16 processes/job)\n";
  const auto rows = bench::run_figure_sweep(workload::App::kSort,
                                            sched::SoftwareArch::kFixed,
                                            options, std::cout, &obs);
  bench::print_figure(std::cout,
                      "Figure 5 -- sort / fixed software architecture", rows,
                      options.csv);
  std::cout << "\nPaper shape: static <= TS as in the matmul figures; the "
               "fixed architecture is\nfast in absolute terms because 16 "
               "small chunks sidestep selection sort's O(n^2).\n";
  return obs.flush(std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
  return tmc::bench::run_main(argc, argv, run);
}
