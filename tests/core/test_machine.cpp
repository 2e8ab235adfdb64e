#include "core/machine.h"

#include <gtest/gtest.h>

#include "core/experiment.h"

namespace tmc::core {
namespace {

using sim::SimTime;

TEST(Machine, DefaultConfigBuildsSixteenNodes) {
  Multicomputer machine{MachineConfig{}};
  EXPECT_EQ(machine.topology().node_count(), 16);
  EXPECT_EQ(machine.partition_count(), 1);
  EXPECT_EQ(machine.mmu(0).capacity(), std::size_t{4} << 20);
}

TEST(Machine, PartitioningCreatesOneSchedulerPerPartition) {
  MachineConfig cfg;
  cfg.policy.kind = sched::PolicyKind::kStatic;
  cfg.policy.partition_size = 4;
  Multicomputer machine(cfg);
  EXPECT_EQ(machine.partition_count(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(machine.partition_scheduler(i).partition().size(), 4);
  }
}

TEST(Machine, TimeSharingForcesOnePartition) {
  MachineConfig cfg;
  cfg.policy.kind = sched::PolicyKind::kTimeSharing;
  cfg.policy.partition_size = 4;  // ignored for pure TS
  Multicomputer machine(cfg);
  EXPECT_EQ(machine.partition_count(), 1);
  EXPECT_EQ(machine.config().policy.partition_size, 16);
}

TEST(Machine, TopologyIsTiledPerPartition) {
  MachineConfig cfg;
  cfg.topology = net::TopologyKind::kRing;
  cfg.policy.kind = sched::PolicyKind::kHybrid;
  cfg.policy.partition_size = 8;
  Multicomputer machine(cfg);
  // Two disjoint 8-rings.
  EXPECT_EQ(machine.topology().link_count(),
            2 * net::Topology::ring(8).link_count());
}

TEST(Machine, InvalidPartitionSizeThrows) {
  MachineConfig cfg;
  cfg.policy.partition_size = 3;
  EXPECT_THROW(Multicomputer{cfg}, std::invalid_argument);
  cfg.policy.partition_size = 0;
  EXPECT_THROW(Multicomputer{cfg}, std::invalid_argument);
}

TEST(Machine, LabelMatchesPaperNotation) {
  MachineConfig cfg;
  cfg.topology = net::TopologyKind::kLinear;
  cfg.policy.partition_size = 8;
  EXPECT_EQ(cfg.label(), "8L");
}

TEST(Machine, IdleMachineHasCleanStats) {
  Multicomputer machine{MachineConfig{}};
  const auto stats = machine.stats();
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_EQ(stats.context_switches, 0u);
  EXPECT_EQ(stats.peak_node_memory, 0u);
  EXPECT_DOUBLE_EQ(stats.avg_cpu_utilization, 0.0);
}

TEST(Machine, RunToCompletionThrowsOnStuckJob) {
  Multicomputer machine{MachineConfig{}};
  sched::JobSpec spec;
  spec.builder = [](const sched::Job&, int) {
    std::vector<node::Program> programs(1);
    programs[0].receive(42).exit();  // nobody will ever send tag 42
    return programs;
  };
  sched::Job job(1, std::move(spec));
  machine.submit(job);
  EXPECT_THROW(machine.run_to_completion(), std::runtime_error);
}

TEST(Machine, WormholeConfigUsesWormholeTransport) {
  MachineConfig cfg;
  cfg.wormhole = true;
  Multicomputer machine(cfg);
  EXPECT_NE(dynamic_cast<net::WormholeNetwork*>(&machine.network()), nullptr);
  MachineConfig sf;
  Multicomputer machine2(sf);
  EXPECT_NE(dynamic_cast<net::StoreForwardNetwork*>(&machine2.network()),
            nullptr);
}

TEST(Machine, WormholeRunReportsLinkUtilization) {
  // Both transports reserve the links the Network base owns, so a wormhole
  // run reports its busiest link just as a store-and-forward run does.
  auto config = figure_point(workload::App::kMatMul,
                             sched::SoftwareArch::kFixed,
                             sched::PolicyKind::kStatic, 4,
                             net::TopologyKind::kMesh);
  config.machine.wormhole = true;
  config.batch.small_size = 12;
  config.batch.large_size = 20;
  const auto stats =
      run_batch(config, workload::BatchOrder::kInterleaved).machine;
  EXPECT_GT(stats.messages, 0u);
  EXPECT_GT(stats.max_link_utilization, 0.0);
  EXPECT_LE(stats.max_link_utilization, 1.0);
}

TEST(Machine, CustomProcessorCount) {
  MachineConfig cfg;
  cfg.processors = 8;
  cfg.policy.partition_size = 2;
  Multicomputer machine(cfg);
  EXPECT_EQ(machine.topology().node_count(), 8);
  EXPECT_EQ(machine.partition_count(), 4);
}

/// A figure point's kernel and CPU counts: every quantum end between two
/// processes fires its own event.
struct RotationPoint {
  workload::App app;
  sched::PolicyKind policy;
  int partition;
  net::TopologyKind topology;
  std::uint64_t scheduled;  // scheduled_events
  std::uint64_t eager;      // events + quantum_steps
  std::uint64_t switches;
  std::uint64_t expiries;
  std::uint64_t events;  // fired events
};

TEST(Machine, RotationPointsKeepEveryCount) {
  // `tmc_cli --arch fixed --order interleaved` at points where a CPU
  // rotates compute-bound processes. Only a lone process's quantum ends
  // and the ends of switches into a pure CPU charge are silent steps, so
  // each count, fired events included, is pinned exactly. The p=16 TS
  // point has no quantum expiry at all (its quantum outlasts every burst).
  const RotationPoint points[] = {
      {workload::App::kSort, sched::PolicyKind::kStatic, 1,
       net::TopologyKind::kLinear, 44'424, 44'424, 20'448, 19'080, 25'144},
      {workload::App::kMatMul, sched::PolicyKind::kHybrid, 2,
       net::TopologyKind::kMesh, 13'108, 12'698, 4'276, 2'718, 9'396},
      {workload::App::kSort, sched::PolicyKind::kTimeSharing, 16,
       net::TopologyKind::kMesh, 11'758, 10'929, 1'192, 0, 10'123},
  };
  for (const RotationPoint& point : points) {
    const ExperimentConfig config =
        figure_point(point.app, sched::SoftwareArch::kFixed, point.policy,
                     point.partition, point.topology);
    SCOPED_TRACE(config.name);
    const MachineStats s =
        run_batch(config, workload::BatchOrder::kInterleaved).machine;
    EXPECT_EQ(s.scheduled_events, point.scheduled);
    EXPECT_EQ(s.events + s.quantum_steps, point.eager);
    EXPECT_EQ(s.context_switches, point.switches);
    EXPECT_EQ(s.quantum_expiries, point.expiries);
    EXPECT_EQ(s.events, point.events);
  }
}

}  // namespace
}  // namespace tmc::core
