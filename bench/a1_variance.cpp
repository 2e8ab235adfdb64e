// Ablation A1: service-demand variance.
//
// The paper notes (section 5.2) that its batches have too little variance
// in service demand to show time-sharing in a good light, and cites the
// companion technical report [2,3] for the flip: with high variance,
// time-sharing beats static space-sharing (short jobs stop being stuck
// behind long ones). This bench reproduces that study with the synthetic
// fork/join workload: a batch of 16 jobs whose total demand has a fixed
// mean and a swept coefficient of variation.
#include <iostream>
#include <memory>
#include <vector>

#include "core/machine.h"
#include "core/report.h"
#include "core/sweep_runner.h"
#include "figure_common.h"
#include "sim/rng.h"
#include "workload/synthetic.h"

namespace {

using namespace tmc;

double run_policy(sched::PolicyKind kind, int partition, double cv,
                  std::uint64_t seed, bench::ObsSession& obs,
                  bool representative) {
  core::MachineConfig cfg;
  cfg.topology = net::TopologyKind::kMesh;
  cfg.policy.kind = kind;
  cfg.policy.partition_size = partition;
  obs.attach(cfg, representative);

  workload::SyntheticParams params;
  params.mean_demand = sim::SimTime::seconds(4);
  params.cv = cv;
  params.arch = sched::SoftwareArch::kAdaptive;

  sim::Rng rng(seed);
  auto specs = workload::make_synthetic_batch(params, 16, rng);

  core::Multicomputer machine(cfg);
  std::vector<std::unique_ptr<sched::Job>> jobs;
  sched::JobId id = 1;
  for (auto& spec : specs) {
    jobs.push_back(std::make_unique<sched::Job>(id++, std::move(spec)));
    machine.submit(*jobs.back());
  }
  machine.run_to_completion();
  double total = 0;
  for (const auto& job : jobs) total += job->response_time().to_seconds();
  return total / static_cast<double>(jobs.size());
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      bench::parse_bench_options(argc, argv, bench::kAblationFamilies);
  bench::ObsSession obs(options.obs);
  std::cout << "Ablation A1: mean response vs service-demand variance\n"
               "(synthetic fork/join batch of 16 jobs, mean demand 4 s, "
               "mesh,\n5 seeded replications per point; static FCFS vs "
               "time-sharing)\n";

  // Every (policy, partition, cv, seed) point is an independent simulation;
  // flatten the grid and farm it, then fold results back in grid order so
  // the tables are identical at any thread count.
  struct Point {
    sched::PolicyKind kind;
    int partition;
    double cv;
    std::uint64_t seed;
  };
  constexpr int kPartitions[] = {4, 16};
  constexpr double kCvs[] = {0.0, 0.5, 1.0, 2.0, 4.0, 8.0};
  constexpr std::uint64_t kSeeds = 5;
  std::vector<Point> points;
  for (const int partition : kPartitions) {
    const auto ts_kind = partition == 16 ? sched::PolicyKind::kTimeSharing
                                         : sched::PolicyKind::kHybrid;
    for (const double cv : kCvs) {
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        points.push_back({sched::PolicyKind::kStatic, partition, cv, seed});
        points.push_back({ts_kind, partition, cv, seed});
      }
    }
  }

  core::SweepRunner runner(options.threads);
  std::size_t dots = 0;
  const auto mrts = runner.map(
      points.size(),
      [&](std::size_t i) {
        const auto& pt = points[i];
        // The observed run is the last grid point (highest-variance
        // time-sharing, the configuration the study is about).
        return run_policy(pt.kind, pt.partition, pt.cv, pt.seed, obs,
                          /*representative=*/i == points.size() - 1);
      },
      [&](std::size_t done, std::size_t) {
        for (; dots < done; ++dots) std::cout << "." << std::flush;
      });
  std::cout << "\n";

  std::size_t next = 0;
  for (const int partition : kPartitions) {
    std::cout << "\n-- partition size " << partition << " --\n";
    core::Table table({"cv", "static MRT (s)", "+/-", "TS MRT (s)", "+/-",
                       "TS/static"});
    for (const double cv : kCvs) {
      sim::OnlineStats stat_static, stat_ts;
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        stat_static.add(mrts[next++]);
        stat_ts.add(mrts[next++]);
      }
      table.add_row({core::fmt_ratio(cv),
                     core::fmt_seconds(stat_static.mean()),
                     core::fmt_seconds(stat_static.ci_half_width()),
                     core::fmt_seconds(stat_ts.mean()),
                     core::fmt_seconds(stat_ts.ci_half_width()),
                     core::fmt_ratio(stat_ts.mean() / stat_static.mean())});
    }
    table.print(std::cout);
  }
  std::cout << "\nExpected shape ([2,3]): TS/static ratio falls as cv grows; "
               "time-sharing wins\n(ratio < 1) once variance is high -- the "
               "paper's low-variance batches sit on the left.\n";
  return obs.flush(std::cerr);
}
