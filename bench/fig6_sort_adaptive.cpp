// Reproduces Figure 6: the sorting batch under the ADAPTIVE software
// architecture. Section 5.3's headline: unlike matmul, sort prefers the
// FIXED architecture -- selection sort is O(n^2), so 16 small chunks are
// much cheaper than p large ones.
#include <iostream>

#include "figure_common.h"

namespace {

int run(int argc, char** argv) {
  using namespace tmc;
  const auto options =
      bench::parse_bench_options(argc, argv, bench::kFigureFamilies);
  bench::ObsSession obs(options.obs);
  std::cout << "Figure 6: sort, adaptive architecture (12x6000 + 4x14000 "
               "elements, processes = partition size)\n";
  const auto rows = bench::run_figure_sweep(workload::App::kSort,
                                            sched::SoftwareArch::kAdaptive,
                                            options, std::cout, &obs);
  bench::print_figure(std::cout,
                      "Figure 6 -- sort / adaptive software architecture",
                      rows, options.csv);
  std::cout << "\nPaper shape: response times far above Figure 5 at small "
               "partition sizes\n(adaptive makes chunks large and selection "
               "sort quadratic); static still beats TS.\n";
  return obs.flush(std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
  return tmc::bench::run_main(argc, argv, run);
}
