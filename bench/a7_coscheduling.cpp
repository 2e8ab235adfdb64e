// Ablation A7: which implementation details make time-sharing lose?
//
// The paper's hybrid/TS policy gang-rotates jobs (its set of jobs "share
// the processors in the partition in a round-robin fashion") and the rest
// of its stack follows: a descheduled job's mailbox daemons stop, so its
// in-flight messages freeze, and every job's rank-0 lands on the same
// processor. This bench removes those mechanisms one at a time and shows
// that an idealised time-sharing policy -- uncoordinated process-level
// sharing with rotated placement -- would actually *beat* static
// space-sharing on this machine by overlapping one job's communication
// stalls with another's compute. The paper's conclusion is about its
// implementation (as it says: implementation exposes overheads that
// simulation studies neglect); this table maps the boundary.
#include <iostream>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "core/sweep_runner.h"
#include "figure_common.h"

namespace {

using namespace tmc;

double ts_point(bool gang, bool rotate, bench::ObsSession& obs,
                bool representative) {
  auto config =
      core::figure_point(workload::App::kMatMul, sched::SoftwareArch::kAdaptive,
                         sched::PolicyKind::kTimeSharing, 16,
                         net::TopologyKind::kMesh);
  config.machine.policy.gang_scheduling = gang;
  config.machine.partition_sched.rotate_placement = rotate;
  obs.attach(config.machine, representative);
  return core::run_experiment(config).mean_response_s;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      bench::parse_bench_options(argc, argv, bench::kAblationFamilies);
  bench::ObsSession obs(options.obs);

  // Point 0 is the static yardstick; 1-4 are the TS variants in table order.
  // The observed run is the paper-faithful variant (gang, stacked rank-0).
  core::SweepRunner runner(options.threads);
  const auto mrts = runner.map(5, [&obs](std::size_t i) {
    switch (i) {
      case 0:
        return core::run_experiment(
                   core::figure_point(workload::App::kMatMul,
                                      sched::SoftwareArch::kAdaptive,
                                      sched::PolicyKind::kStatic, 16,
                                      net::TopologyKind::kMesh))
            .mean_response_s;
      case 1: return ts_point(true, false, obs, /*representative=*/true);
      case 2: return ts_point(true, true, obs, /*representative=*/false);
      case 3: return ts_point(false, false, obs, /*representative=*/false);
      default: return ts_point(false, true, obs, /*representative=*/false);
    }
  });

  std::cout << "Ablation A7: de-constructing the time-sharing penalty\n"
               "(matmul batch, adaptive architecture, pure TS on one 16-node "
               "mesh; static = "
            << core::fmt_seconds(mrts[0]) << " s)\n";

  core::Table table({"TS variant", "MRT (s)"});
  table.add_row({"paper: gang rotation, stacked rank-0 (default)",
                 core::fmt_seconds(mrts[1])});
  table.add_row({"gang rotation, rotated placement",
                 core::fmt_seconds(mrts[2])});
  table.add_row({"uncoordinated sharing, stacked rank-0",
                 core::fmt_seconds(mrts[3])});
  table.add_row({"uncoordinated sharing, rotated placement",
                 core::fmt_seconds(mrts[4])});
  table.print(std::cout);

  std::cout << "\nExpected shape: the paper-faithful variant is the worst; "
               "dropping gang\ncoordination (so jobs overlap each other's "
               "stalls) recovers most of the loss,\nand can push "
               "time-sharing below the static policy's mean response.\n";
  return obs.flush(std::cerr);
}
