// Ablation A11: packetizing the store-and-forward transport.
//
// The paper's mailbox package forwards whole messages, so a B-matrix parcel
// occupies each hop for its full transfer time and each intermediate node
// must buffer all of it. Splitting messages into packets that pipeline
// across hops (virtual-cut-through style, still buffered per hop) is the
// cheap software improvement between the paper's transport and the wormhole
// hardware of A2. This bench sweeps the packet size on the
// communication-heavy matmul batch.
#include <iostream>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "core/sweep_runner.h"
#include "figure_common.h"

namespace {

using namespace tmc;

double run_point(sched::PolicyKind kind, net::TopologyKind topo,
                 std::size_t packet_bytes, bench::ObsSession& obs,
                 bool representative) {
  auto config = core::figure_point(workload::App::kMatMul,
                                   sched::SoftwareArch::kAdaptive, kind, 16,
                                   topo);
  config.machine.network.packet_bytes = packet_bytes;
  obs.attach(config.machine, representative);
  return core::run_experiment(config).mean_response_s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tmc;
  const auto options =
      bench::parse_bench_options(argc, argv, bench::kAblationFamilies);
  bench::ObsSession obs(options.obs);
  std::cout << "Ablation A11: store-and-forward packet-size sweep\n"
               "(matmul batch, adaptive architecture, one 16-node "
               "partition; 0 = whole messages)\n";

  const std::vector<std::size_t> packets = {0, 1024, 4096, 16384};
  // Column order within each row: static 16L, TS 16L, static 16M, TS 16M.
  struct Cell {
    sched::PolicyKind kind;
    net::TopologyKind topo;
  };
  constexpr Cell kCells[] = {
      {sched::PolicyKind::kStatic, net::TopologyKind::kLinear},
      {sched::PolicyKind::kTimeSharing, net::TopologyKind::kLinear},
      {sched::PolicyKind::kStatic, net::TopologyKind::kMesh},
      {sched::PolicyKind::kTimeSharing, net::TopologyKind::kMesh}};

  core::SweepRunner runner(options.threads);
  std::size_t dots = 0;
  const auto mrts = runner.map(
      packets.size() * 4,
      [&](std::size_t i) {
        const auto& cell = kCells[i % 4];
        // The observed run is the TS 16L cell at the smallest real packet
        // size (the configuration the ablation is about).
        return run_point(cell.kind, cell.topo, packets[i / 4], obs,
                         /*representative=*/i == 4 + 1);
      },
      [&](std::size_t done, std::size_t) {
        for (; dots < done; ++dots) std::cout << "." << std::flush;
      });

  core::Table table({"packet (B)", "static 16L (s)", "TS 16L (s)",
                     "static 16M (s)", "TS 16M (s)"});
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const std::size_t pkt = packets[i];
    table.add_row({pkt == 0 ? "whole" : std::to_string(pkt),
                   core::fmt_seconds(mrts[i * 4]),
                   core::fmt_seconds(mrts[i * 4 + 1]),
                   core::fmt_seconds(mrts[i * 4 + 2]),
                   core::fmt_seconds(mrts[i * 4 + 3])});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nExpected shape: packetisation helps most where hop counts "
               "are long (16L) by\npipelining transfers and shrinking "
               "per-hop buffers -- a software-only step\ntoward the wormhole "
               "numbers of bench A2.\n";
  return obs.flush(std::cerr);
}
