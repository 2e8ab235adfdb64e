// Wormhole-engine microbenchmarks (google-benchmark).
//
// The wormhole transport sits on the event hot path of every
// communication-heavy experiment (bench A2 and the paper's section-5.2
// projection). These benches measure it in isolation -- raw send->deliver
// throughput on the paper's topologies -- and end-to-end as the full A2
// wormhole figure point, reporting simulator events per second so the CI
// perf gate can compare runs against BENCH_kernel.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/experiment.h"
#include "mem/mmu.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/simulation.h"

namespace {

using namespace tmc;

/// A tiny harness: one simulation, one wormhole network over `topo`, ample
/// memory everywhere, deliveries released on arrival.
struct WormholeRig {
  explicit WormholeRig(net::Topology t) : topo(std::move(t)) {
    params.header_bytes = 16;
    for (int i = 0; i < topo.node_count(); ++i) {
      mmus.push_back(std::make_unique<mem::Mmu>(sim, 64 << 20));
      mmu_ptrs.push_back(mmus.back().get());
    }
    net = std::make_unique<net::WormholeNetwork>(sim, topo, mmu_ptrs, params);
    net->set_delivery_handler(
        [](const net::Message&, mem::Block buffer) { buffer.release(); });
  }

  void send(net::NodeId src, net::NodeId dst, std::size_t bytes,
            std::uint64_t id) {
    net::Message msg;
    msg.id = id;
    msg.src_node = src;
    msg.dst_node = dst;
    msg.bytes = bytes;
    auto block = mmus[static_cast<std::size_t>(src)]->try_alloc(bytes);
    net->send(msg, std::move(*block));
  }

  sim::Simulation sim;
  net::Topology topo;
  net::NetworkParams params;
  std::vector<std::unique_ptr<mem::Mmu>> mmus;
  std::vector<mem::Mmu*> mmu_ptrs;
  std::unique_ptr<net::WormholeNetwork> net;
};

/// All-to-one fan-in on a 16-node topology: the matmul result-gather
/// pattern, and the worst case for path-occupancy bookkeeping.
void wormhole_fan_in(benchmark::State& state, net::Topology topo) {
  WormholeRig rig(std::move(topo));
  const int n = rig.topo.node_count();
  std::uint64_t id = 1;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    for (int src = 1; src < n; ++src) {
      rig.send(src, 0, 512, id++);
    }
    rig.sim.run();
    messages += static_cast<std::uint64_t>(n - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(rig.sim.fired_events()),
      benchmark::Counter::kIsRate);
}

void BM_WormholeFanInRing16(benchmark::State& state) {
  wormhole_fan_in(state, net::Topology::ring(16));
}
BENCHMARK(BM_WormholeFanInRing16);

void BM_WormholeFanInMesh16(benchmark::State& state) {
  wormhole_fan_in(state, net::Topology::mesh(16));
}
BENCHMARK(BM_WormholeFanInMesh16);

void BM_WormholeFanInHypercube16(benchmark::State& state) {
  wormhole_fan_in(state, net::Topology::hypercube(16));
}
BENCHMARK(BM_WormholeFanInHypercube16);

/// One-to-all broadcast fan-out from node 0 (the matmul work-scatter).
void BM_WormholeBroadcastLinear16(benchmark::State& state) {
  WormholeRig rig(net::Topology::linear(16));
  const int n = rig.topo.node_count();
  std::uint64_t id = 1;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    for (int dst = 1; dst < n; ++dst) {
      rig.send(0, dst, 2048, id++);
    }
    rig.sim.run();
    messages += static_cast<std::uint64_t>(n - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
}
BENCHMARK(BM_WormholeBroadcastLinear16);

/// The full A2 wormhole figure point (matmul batch, fixed architecture,
/// pure time-sharing on one 16-node partition). Items processed = simulator
/// events fired plus silent quantum steps (the events of a kernel that fires
/// one per quantum), so items_per_second is the events/sec number tracked in
/// BENCH_kernel.json and enforced by the CI perf gate.
void a2_wormhole_point(benchmark::State& state, net::TopologyKind topology) {
  auto config =
      core::figure_point(workload::App::kMatMul, sched::SoftwareArch::kFixed,
                         sched::PolicyKind::kTimeSharing, 16, topology);
  config.machine.wormhole = true;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto run =
        core::run_batch(config, workload::BatchOrder::kInterleaved);
    benchmark::DoNotOptimize(run.mean_response_s());
    events += run.machine.events + run.machine.quantum_steps;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

void BM_A2WormholePointLinear(benchmark::State& state) {
  a2_wormhole_point(state, net::TopologyKind::kLinear);
}
BENCHMARK(BM_A2WormholePointLinear)->Unit(benchmark::kMillisecond);

void BM_A2WormholePointMesh(benchmark::State& state) {
  a2_wormhole_point(state, net::TopologyKind::kMesh);
}
BENCHMARK(BM_A2WormholePointMesh)->Unit(benchmark::kMillisecond);

}  // namespace
