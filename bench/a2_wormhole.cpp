// Ablation A2: wormhole routing.
//
// Section 5.2 of the paper predicts that wormhole routing, by eliminating
// store-and-forward buffering at intermediate processors, would both reduce
// buffer demand and flatten the policies' sensitivity to topology. This
// bench runs the communication-heavy matmul batch (fixed architecture,
// pure time-sharing on one 16-node partition) under both transports and
// reports the topology spread.
#include <iostream>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "core/sweep_runner.h"
#include "figure_common.h"

namespace {

using namespace tmc;

double run_point(net::TopologyKind topology, bool wormhole,
                 const fault::FaultConfig& faults, bench::ObsSession& obs,
                 bool representative) {
  auto config =
      core::figure_point(workload::App::kMatMul, sched::SoftwareArch::kFixed,
                         sched::PolicyKind::kTimeSharing, 16, topology);
  config.machine.wormhole = wormhole;
  config.machine.faults = faults;
  obs.attach(config.machine, representative);
  return core::run_experiment(config).mean_response_s;
}

int run(int argc, char** argv) {
  const auto options =
      bench::parse_bench_options(
          argc, argv, bench::kAblationFamilies | cli::Family::kFault);
  bench::ObsSession obs(options.obs);
  std::cout << "Ablation A2: store-and-forward vs wormhole routing\n"
               "(matmul batch, fixed architecture, pure time-sharing on one "
               "16-node partition)\n";

  const std::vector<net::TopologyKind> topologies = {
      net::TopologyKind::kLinear, net::TopologyKind::kRing,
      net::TopologyKind::kMesh};
  core::SweepRunner runner(options.threads);
  std::size_t dots = 0;
  const auto mrts = runner.map(
      topologies.size() * 2,
      [&](std::size_t i) {
        // The observed run is the wormhole mesh (the ablation's headline
        // configuration): the last sweep point.
        return run_point(topologies[i / 2], /*wormhole=*/i % 2 == 1,
                         options.faults, obs,
                         /*representative=*/i == topologies.size() * 2 - 1);
      },
      [&](std::size_t done, std::size_t) {
        for (; dots < done; ++dots) std::cout << "." << std::flush;
      });

  core::Table table(
      {"topology", "store-fwd MRT (s)", "wormhole MRT (s)", "speedup"});
  double sf_min = 1e300, sf_max = 0, wh_min = 1e300, wh_max = 0;
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    const double sf = mrts[i * 2];
    const double wh = mrts[i * 2 + 1];
    sf_min = std::min(sf_min, sf);
    sf_max = std::max(sf_max, sf);
    wh_min = std::min(wh_min, wh);
    wh_max = std::max(wh_max, wh);
    table.add_row({topology_name(topologies[i]), core::fmt_seconds(sf),
                   core::fmt_seconds(wh), core::fmt_ratio(sf / wh)});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nTopology spread (worst/best MRT): store-and-forward "
            << core::fmt_ratio(sf_max / sf_min) << ", wormhole "
            << core::fmt_ratio(wh_max / wh_min)
            << "\nExpected shape: wormhole is faster everywhere and its "
               "spread is much closer to 1\n(the paper's predicted loss of "
               "topology sensitivity).\n";
  return obs.flush(std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
  return tmc::bench::run_main(argc, argv, run);
}
