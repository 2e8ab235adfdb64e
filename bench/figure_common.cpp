#include "figure_common.h"

#include <iostream>
#include <stdexcept>
#include <string_view>

#include "core/report.h"
#include "core/sweep_runner.h"

namespace tmc::bench {

namespace {

constexpr net::TopologyKind kAllTopologies[] = {
    net::TopologyKind::kLinear, net::TopologyKind::kRing,
    net::TopologyKind::kMesh, net::TopologyKind::kHypercube};

std::string binary_name(int argc, char** argv) {
  const std::string_view path = argc > 0 ? argv[0] : "bench";
  return std::string(path.substr(path.rfind('/') + 1));
}

}  // namespace

int run_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::runtime_error& e) {
    std::cerr << binary_name(argc, argv) << ": " << e.what() << "\n";
    return 3;
  }
}

FigureOptions parse_bench_options(int argc, char** argv,
                                  cli::Families families,
                                  FigureOptions options) {
  cli::Table table(binary_name(argc, argv), families);
  table.add({cli::threads(options.threads)})
      .add(cli::in_family(
          cli::Family::kFigure,
          {cli::toggle("--csv", options.csv, "also emit the table as CSV"),
           cli::toggle("--with-16h", options.with_16h,
                       "include the 16-node hypercube the real machine\n"
                       "could not wire"),
           cli::toggle("--quick", options.quick,
                       "reduced problem (smaller batch and job sizes,\n"
                       "partition sizes 1/4/16) for regression tests")}))
      .add(obs::cli_flags(options.obs))
      .add(fault::cli_flags(options.faults))
      .add(sched::stealing::cli_flags(options.stealing))
      .parse_or_exit(argc, argv);
  if (options.quick) options.partition_sizes = {1, 4, 16};
  return options;
}

std::vector<FigureRow> run_figure_sweep(workload::App app,
                                        sched::SoftwareArch arch,
                                        const FigureOptions& options,
                                        std::ostream& progress,
                                        ObsSession* obs) {
  struct Point {
    int partition;
    net::TopologyKind topology;
  };
  std::vector<Point> points;
  for (const int p : options.partition_sizes) {
    for (const auto topology : kAllTopologies) {
      if (p == 16 && topology == net::TopologyKind::kHypercube &&
          !options.with_16h) {
        continue;
      }
      // With one processor per partition there are no links; the topology
      // letter is meaningless, so emit a single "1" row.
      if (p == 1 && topology != net::TopologyKind::kLinear) continue;
      points.push_back({p, topology});
    }
  }

  // Quick mode shrinks the batch and the per-job problem, keeping the
  // figure's qualitative shape while cutting the run to a few percent.
  const auto apply_quick = [&](core::ExperimentConfig& config) {
    if (!options.quick) return;
    config.batch.small_count = 3;
    config.batch.large_count = 1;
    if (app == workload::App::kMatMul) {
      config.batch.small_size = 30;
      config.batch.large_size = 60;
    } else {
      config.batch.small_size = 3000;
      config.batch.large_size = 7000;
    }
  };

  core::SweepRunner runner(options.threads);
  std::size_t dots = 0;
  auto rows = runner.map(
      points.size(),
      [&](std::size_t i) {
        const auto [p, topology] = points[i];
        FigureRow row;
        row.label =
            p == 1 ? "1" : std::to_string(p) + net::topology_letter(topology);

        auto static_config = core::figure_point(
            app, arch, sched::PolicyKind::kStatic, p, topology);
        apply_quick(static_config);
        static_config.machine.faults = options.faults;
        static_config.machine.stealing = options.stealing;
        // Representative run for --metrics/--timeline: the last sweep point
        // (largest partition, last topology) -- p=1 machines have no links,
        // so the first point would leave the link instruments empty.
        if (obs != nullptr) {
          obs->attach(static_config.machine, i + 1 == points.size());
        }
        const auto static_result = core::run_experiment(static_config);
        row.static_mrt = static_result.mean_response_s;
        row.static_best = static_result.primary.mean_response_s();
        row.static_worst = static_result.worst->mean_response_s();

        // The paper's "TS" line: pure time-sharing at p=16, hybrid below.
        const auto ts_policy = p == 16 ? sched::PolicyKind::kTimeSharing
                                       : sched::PolicyKind::kHybrid;
        auto ts_config = core::figure_point(app, arch, ts_policy, p, topology);
        apply_quick(ts_config);
        ts_config.machine.faults = options.faults;
        ts_config.machine.stealing = options.stealing;
        const auto ts_result = core::run_experiment(ts_config);
        row.ts_mrt = ts_result.mean_response_s;
        return row;
      },
      [&](std::size_t done, std::size_t) {
        for (; dots < done; ++dots) progress << "." << std::flush;
      });
  progress << "\n";
  return rows;
}

void print_figure(std::ostream& os, const std::string& title,
                  const std::vector<FigureRow>& rows, bool csv) {
  core::banner(os, title);
  core::Table table({"config", "static MRT (s)", "TS/hybrid MRT (s)",
                     "TS/static", "static best (s)", "static worst (s)"});
  for (const auto& row : rows) {
    table.add_row({row.label, core::fmt_seconds(row.static_mrt),
                   core::fmt_seconds(row.ts_mrt),
                   core::fmt_ratio(row.ts_mrt / row.static_mrt),
                   core::fmt_seconds(row.static_best),
                   core::fmt_seconds(row.static_worst)});
  }
  table.print(os);
  if (csv) {
    os << "\n";
    table.csv(os);
  }
}

}  // namespace tmc::bench
