// Observability demo: watch the machine run two small jobs two ways.
//
// 1. Metrics registry -- every instrument family (kernel self-profile,
//    per-node CPU/memory, links, partitions, comm) dumped as JSON.
// 2. Timeline -- per-node CPU spans, process exits, memory blocking,
//    message sends and parks, and sampled queue depths, exported as Chrome
//    trace_event JSON. Open trace_demo_timeline.json in Perfetto
//    (ui.perfetto.dev) or chrome://tracing to browse the run visually.

#include <iostream>

#include "core/machine.h"
#include "obs/hub.h"
#include "workload/matmul.h"

int main() {
  using namespace tmc;

  obs::Options obs_options;
  obs_options.metrics = true;
  obs_options.metrics_path = "trace_demo_metrics.json";
  obs_options.timeline_path = "trace_demo_timeline.json";
  obs_options.sample_interval = sim::SimTime::milliseconds(5);
  obs::Hub hub(obs_options);

  core::MachineConfig cfg;
  cfg.processors = 4;
  cfg.topology = net::TopologyKind::kRing;
  cfg.policy.kind = sched::PolicyKind::kTimeSharing;
  cfg.policy.basic_quantum = sim::SimTime::milliseconds(20);
  cfg.obs = &hub;
  core::Multicomputer machine(cfg);

  workload::MatMulParams mm;
  mm.n = 24;
  mm.arch = sched::SoftwareArch::kAdaptive;
  sched::Job a(1, workload::make_matmul_job(mm, false));
  sched::Job b(2, workload::make_matmul_job(mm, false));
  machine.submit(a);
  machine.submit(b);
  machine.run_to_completion();

  std::cout << "job 1 response: " << a.response_time().to_seconds()
            << " s, job 2 response: " << b.response_time().to_seconds()
            << " s, " << hub.timeline()->records().size()
            << " timeline records\n";

  // A few headline numbers straight from the registry, then the full dumps.
  for (const auto& view : hub.registry().snapshot()) {
    if (view.name == "kernel.events_fired" ||
        view.name == "node0.cpu.utilization" ||
        view.name == "comm.sends") {
      std::cout << view.name << " = " << view.value << "\n";
    }
  }
  if (!hub.write_outputs(std::cerr)) return 1;
  std::cout << "\nwrote " << obs_options.metrics_path << " and "
            << obs_options.timeline_path
            << " (load the timeline in ui.perfetto.dev)\n";
  return 0;
}
