// tmc_cli: run any single experiment from the command line.
//
// `tmc_cli --help` lists every flag, generated from the flag table below.
// --arch stealing runs the work-stealing architecture (DESIGN.md §11); the
// --steal-* knobs require it and the rate defaults to 10000/s there
// (--steal-rate 0 builds no engine and falls back to the fixed scripts).
// --order runs one batch in the given order instead of the policy's
// best/worst-order experiment. The --fault-* knobs inject node crashes,
// link outages and message drops (DESIGN.md §10). Invalid machine
// configurations (a partition size that does not divide the machine, zero
// memory) exit 2; a run whose machine watchdog expires (e.g. a fault rate
// that leaves too few nodes alive) exits 3.
//
// Examples:
//   tmc_cli --app sort --arch fixed --policy static --partition 8 --topology ring
//   tmc_cli --policy ts --topology linear --wormhole --jobs

#include <cstddef>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/experiment.h"
#include "core/report.h"
#include "core/sweep_runner.h"
#include "obs/hub.h"
#include "sched/stealing/stealing.h"

namespace {

using namespace tmc;

int run_cli(int argc, char** argv) {
  workload::App app = workload::App::kMatMul;
  sched::SoftwareArch arch = sched::SoftwareArch::kAdaptive;
  sched::PolicyKind policy = sched::PolicyKind::kStatic;
  int partition = 4;
  net::TopologyKind topology = net::TopologyKind::kMesh;
  auto order = workload::BatchOrder::kInterleaved;
  int quantum_ms = 0;
  std::size_t memory_mb = 0;
  bool csv = false;
  bool show_jobs = false;
  int threads = 1;

  core::ExperimentConfig config;
  obs::Options obs_options;
  cli::Table flags("tmc_cli", {cli::Family::kThreads, cli::Family::kObs,
                              cli::Family::kFault, cli::Family::kSteal});
  flags
      .add({
          cli::choice("--app", app,
                      {{"matmul", workload::App::kMatMul},
                       {"sort", workload::App::kSort}},
                      "application"),
          cli::choice("--arch", arch,
                      {{"fixed", sched::SoftwareArch::kFixed},
                       {"adaptive", sched::SoftwareArch::kAdaptive},
                       {"stealing", sched::SoftwareArch::kStealing}},
                      "software architecture"),
          cli::choice("--policy", policy,
                      {{"static", sched::PolicyKind::kStatic},
                       {"ts", sched::PolicyKind::kTimeSharing},
                       {"hybrid", sched::PolicyKind::kHybrid},
                       {"adaptive", sched::PolicyKind::kAdaptiveStatic}},
                      "processor scheduling policy"),
          cli::integer("--partition", "N", partition,
                       "partition size (default 4)"),
          cli::choice("--topology", topology,
                      {{"linear", net::TopologyKind::kLinear},
                       {"ring", net::TopologyKind::kRing},
                       {"mesh", net::TopologyKind::kMesh},
                       {"hypercube", net::TopologyKind::kHypercube},
                       {"torus", net::TopologyKind::kTorus},
                       {"tree", net::TopologyKind::kTree}},
                      "partition topology"),
          cli::integer("--quantum", "MS", quantum_ms,
                       "basic time-sharing quantum, ms (default 50)"),
          cli::integer("--memory", "MB", memory_mb, "memory per node, MB",
                       std::size_t{0},
                       std::numeric_limits<std::size_t>::max() >> 20),
          cli::integer("--packet", "BYTES",
                       config.machine.network.packet_bytes,
                       "packet size (0 = whole messages)"),
          cli::toggle("--wormhole", config.machine.wormhole,
                      "wormhole instead of store-and-forward switching"),
          cli::toggle("--rotate-placement",
                      config.machine.partition_sched.rotate_placement,
                      "rotate job placement across partitions"),
          cli::toggle("--no-gang", config.machine.policy.gang_scheduling,
                      "disable gang scheduling", false),
          cli::integer("--set-size", "N", config.machine.policy.set_size,
                       "time-sharing set size"),
          cli::choice("--order", order,
                      {{"interleaved", workload::BatchOrder::kInterleaved},
                       {"sjf", workload::BatchOrder::kSmallestFirst},
                       {"ljf", workload::BatchOrder::kLargestFirst}},
                      "run one batch in this order"),
          cli::toggle("--csv", csv, "also emit the table as CSV"),
          cli::toggle("--jobs", show_jobs, "print the per-job table"),
          cli::threads(threads),
      })
      .add(obs::cli_flags(obs_options))
      .add(fault::cli_flags(config.machine.faults))
      .add(sched::stealing::cli_flags(config.machine.stealing))
      .parse_or_exit(argc, argv);
  if (flags.was_set("--quantum")) {
    config.machine.policy.basic_quantum =
        sim::SimTime::milliseconds(quantum_ms);
  }
  if (flags.was_set("--memory")) {
    config.machine.memory_per_node = memory_mb << 20;
  }

  if (flags.any_set(cli::Family::kSteal) &&
      arch != sched::SoftwareArch::kStealing) {
    std::cerr << "tmc_cli: --steal-* flags require --arch stealing\n";
    return 2;
  }
  if (arch == sched::SoftwareArch::kStealing &&
      !flags.was_set("--steal-rate")) {
    config.machine.stealing.steal_rate = 10000.0;
  }

  // Fill in the workload/policy selection on top of the tuned knobs.
  {
    auto base = core::figure_point(app, arch, policy, partition, topology);
    config.batch = base.batch;
    config.name = base.name;
    config.machine.topology = topology;
    config.machine.policy.kind = policy;
    config.machine.policy.partition_size = partition;
  }

  std::optional<obs::Hub> hub;
  if (obs_options.any()) {
    hub.emplace(obs_options);
    config.machine.obs = &*hub;
  }

  if (flags.was_set("--order")) {
    const auto run = core::run_batch(config, order);
    std::cout << config.name << " order=" << workload::to_string(order)
              << "\nmean response: " << core::fmt_seconds(run.mean_response_s())
              << " s (small " << core::fmt_seconds(run.response_small.mean())
              << ", large " << core::fmt_seconds(run.response_large.mean())
              << "), makespan " << core::fmt_seconds(run.makespan_s) << " s\n";
    if (show_jobs) {
      core::Table table({"job", "class", "wait (s)", "response (s)"});
      for (const auto& job : run.jobs) {
        table.add_row({std::to_string(job.id), job.large ? "large" : "small",
                       core::fmt_seconds(job.wait_s),
                       core::fmt_seconds(job.response_s)});
      }
      table.print(std::cout);
    }
    return hub && !hub->write_outputs(std::cerr) ? 1 : 0;
  }

  core::SweepRunner runner(threads);
  const auto result = core::run_experiment(config, &runner);
  core::Table table({"experiment", "MRT (s)", "small (s)", "large (s)",
                     "cpu util", "peak mem (KB)", "mem blocked"});
  const auto& run = result.primary;
  table.add_row({config.name, core::fmt_seconds(result.mean_response_s),
                 core::fmt_seconds(run.response_small.mean()),
                 core::fmt_seconds(run.response_large.mean()),
                 core::fmt_ratio(run.machine.avg_cpu_utilization),
                 std::to_string(run.machine.peak_node_memory / 1024),
                 std::to_string(run.machine.mem_blocked_requests)});
  table.print(std::cout);
  if (csv) table.csv(std::cout);
  if (show_jobs) {
    core::Table jobs({"job", "class", "wait (s)", "response (s)"});
    for (const auto& job : run.jobs) {
      jobs.add_row({std::to_string(job.id), job.large ? "large" : "small",
                    core::fmt_seconds(job.wait_s),
                    core::fmt_seconds(job.response_s)});
    }
    jobs.print(std::cout);
  }
  return hub && !hub->write_outputs(std::cerr) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "tmc_cli: " << e.what() << "\n";
    return 2;
  } catch (const std::runtime_error& e) {
    std::cerr << "tmc_cli: " << e.what() << "\n";
    return 3;
  }
}
