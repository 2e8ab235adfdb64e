// Figure 7 (extension): the matrix-multiplication batch under the
// WORK-STEALING software architecture. Like figure 3's fixed runs, every
// job keeps 16 processes; unlike them, each process's band decomposes into
// migratable row tasklets and idle workers steal through the network, so
// the steal price is topology- and contention-dependent. --steal-rate 0
// degenerates byte-identically to figure 3 (the engine is never built and
// the jobs run their fallback fixed scripts).
#include <iostream>

#include "figure_common.h"

namespace {

int run(int argc, char** argv) {
  using namespace tmc;
  // Stealing on by default (a 10 kHz idle poll); an explicit --steal-rate
  // (including 0) wins.
  bench::FigureOptions defaults;
  defaults.stealing.steal_rate = 10'000.0;
  const auto options = bench::parse_bench_options(
      argc, argv, bench::kFigureFamilies | cli::Family::kSteal, defaults);

  bench::ObsSession obs(options.obs);
  std::cout << "Figure 7: matmul, work-stealing architecture (12x50^2 + "
               "4x100^2, 16 processes/job,\nsteal rate "
            << options.stealing.steal_rate << "/s, victim "
            << sched::stealing::to_string(options.stealing.victim)
            << ", granularity "
            << sched::stealing::to_string(options.stealing.granularity)
            << ")\n";
  const auto rows = bench::run_figure_sweep(workload::App::kMatMul,
                                            sched::SoftwareArch::kStealing,
                                            options, std::cout, &obs);
  bench::print_figure(
      std::cout, "Figure 7 -- matmul / work-stealing software architecture",
      rows, options.csv);
  std::cout << "\nExpected shape: close to figure 3 on balanced matmul (the "
               "initial deal is already\neven, so steals are rare); the "
               "protocol's polling and per-tasklet result traffic\nshow up "
               "as a small overhead on the thin-bisection topologies.\n";
  return obs.flush(std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
  return tmc::bench::run_main(argc, argv, run);
}
