// Ablation A8: the matmul distribution algorithm.
//
// The paper's matrix multiplication ships B plus an A-band to every worker
// point-to-point from the coordinator (chosen deliberately for low
// inter-worker communication). On store-and-forward links that serialises
// ~T copies of B on the coordinator's few links and is the main reason a
// single job cannot use a 16-node partition efficiently -- which inflates
// the static policy's response at large partitions. A binomial
// distribution tree (workers forward bundles to their subtrees) is the
// textbook fix; this bench quantifies how much of the static policy's
// large-partition pain is the algorithm rather than the scheduler.
#include <iostream>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "core/sweep_runner.h"
#include "figure_common.h"

namespace {

using namespace tmc;

core::ExperimentConfig config_for(sched::PolicyKind kind, int partition,
                                  workload::MatMulParams::Broadcast bcast) {
  auto config =
      core::figure_point(workload::App::kMatMul,
                         sched::SoftwareArch::kAdaptive, kind, partition,
                         net::TopologyKind::kMesh);
  config.batch.matmul_broadcast = bcast;
  return config;
}

int run(int argc, char** argv) {
  using namespace tmc;
  using Broadcast = workload::MatMulParams::Broadcast;
  const auto options =
      bench::parse_bench_options(
          argc, argv, bench::kAblationFamilies | cli::Family::kFault);
  bench::ObsSession obs(options.obs);
  std::cout << "Ablation A8: point-to-point vs binomial-tree work "
               "distribution\n(matmul batch, adaptive architecture, mesh "
               "partitions)\n";

  struct Point {
    int partition;
    Broadcast bcast;
    sched::PolicyKind kind;
  };
  std::vector<Point> points;
  for (const int p : {4, 8, 16}) {
    for (const auto bcast : {Broadcast::kPointToPoint, Broadcast::kTree}) {
      const auto ts_kind = p == 16 ? sched::PolicyKind::kTimeSharing
                                   : sched::PolicyKind::kHybrid;
      points.push_back({p, bcast, sched::PolicyKind::kStatic});
      points.push_back({p, bcast, ts_kind});
    }
  }

  core::SweepRunner runner(options.threads);
  std::size_t dots = 0;
  const auto mrts = runner.map(
      points.size(),
      [&](std::size_t i) {
        const auto& pt = points[i];
        auto config = config_for(pt.kind, pt.partition, pt.bcast);
        config.machine.faults = options.faults;
        obs.attach(config.machine, /*representative=*/i == 0);
        return core::run_experiment(config).mean_response_s;
      },
      [&](std::size_t done, std::size_t) {
        for (; dots < done; ++dots) std::cout << "." << std::flush;
      });

  core::Table table({"partition", "algorithm", "static MRT (s)",
                     "TS MRT (s)", "TS/static"});
  for (std::size_t i = 0; i < points.size(); i += 2) {
    const double st = mrts[i];
    const double ts = mrts[i + 1];
    table.add_row({std::to_string(points[i].partition),
                   points[i].bcast == Broadcast::kTree ? "tree"
                                                       : "point-to-point",
                   core::fmt_seconds(st), core::fmt_seconds(ts),
                   core::fmt_ratio(ts / st)});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nExpected shape: the tree cuts the static policy's response "
               "hardest at large\npartitions (log-depth instead of linear "
               "broadcast), widening static's margin\nover time-sharing -- "
               "the paper's algorithm choice was the scheduler's handicap.\n";
  return obs.flush(std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
  return tmc::bench::run_main(argc, argv, run);
}
