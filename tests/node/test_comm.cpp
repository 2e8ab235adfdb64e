#include "node/comm.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace tmc::node {
namespace {

using sim::SimTime;

/// Full two-node stack: linear wiring, store-and-forward transport,
/// mailbox communication system.
class CommTest : public ::testing::Test {
 protected:
  CommTest() : topo(net::Topology::linear(2)) {
    for (int i = 0; i < 2; ++i) {
      mmus.push_back(std::make_unique<mem::Mmu>(sim, 1 << 20));
    }
    for (int i = 0; i < 2; ++i) {
      cpus.push_back(
          std::make_unique<Transputer>(sim, i, *mmus[static_cast<std::size_t>(i)]));
    }
    network = std::make_unique<net::StoreForwardNetwork>(
        sim, topo, std::vector<mem::Mmu*>{mmus[0].get(), mmus[1].get()});
    comm = std::make_unique<CommSystem>(
        sim, *network,
        std::vector<Transputer*>{cpus[0].get(), cpus[1].get()});
    // spawn() registers job 0's endpoints: ranks below 8.
    comm->open_job(0, 8);
  }

  std::unique_ptr<Process> spawn(net::EndpointId id, net::NodeId node,
                                 Program prog) {
    auto p = std::make_unique<Process>(id, 1, std::move(prog));
    p->bind_to_node(node);
    comm->register_process(*p);
    cpus[static_cast<std::size_t>(node)]->make_ready(*p);
    return p;
  }

  sim::Simulation sim;
  net::Topology topo;
  std::vector<std::unique_ptr<mem::Mmu>> mmus;
  std::vector<std::unique_ptr<Transputer>> cpus;
  std::unique_ptr<net::StoreForwardNetwork> network;
  std::unique_ptr<CommSystem> comm;
};

TEST_F(CommTest, RemoteSendReachesReceiver) {
  Program sender, receiver;
  sender.send(2, 5, 1000).exit();
  receiver.receive(5).exit();
  auto ps = spawn(1, 0, std::move(sender));
  auto pr = spawn(2, 1, std::move(receiver));
  sim.run();
  EXPECT_TRUE(ps->done());
  EXPECT_TRUE(pr->done());
  EXPECT_EQ(comm->sends(), 1u);
  EXPECT_EQ(comm->deliveries(), 1u);
  EXPECT_EQ(comm->self_sends(), 0u);
  EXPECT_EQ(network->messages_delivered(), 1u);
}

TEST_F(CommTest, SelfSendUsesSameBufferedPath) {
  Program sender, receiver;
  sender.send(2, 5, 1000).exit();
  receiver.receive(5).exit();
  auto ps = spawn(1, 0, std::move(sender));
  auto pr = spawn(2, 0, std::move(receiver));  // same node
  sim.run();
  EXPECT_TRUE(ps->done());
  EXPECT_TRUE(pr->done());
  EXPECT_EQ(comm->self_sends(), 1u);
  EXPECT_EQ(network->total_hops(), 0u);  // no link was used
}

TEST_F(CommTest, DeliveryChargesDaemonCpuAtDestination) {
  Program sender, receiver;
  sender.send(2, 5, 100).exit();
  receiver.receive(5).exit();
  auto ps = spawn(1, 0, std::move(sender));
  auto pr = spawn(2, 1, std::move(receiver));
  sim.run();
  // The mailbox-deposit charge ran in node 1's comm-daemon domain.
  EXPECT_GE(cpus[1]->service_items(), 1u);
  EXPECT_GT(cpus[1]->service_time(), sim::SimTime::zero());
}

TEST_F(CommTest, SendToUnregisteredEndpointThrows) {
  Program sender;
  sender.send(99, 1, 10).exit();
  auto ps = spawn(1, 0, std::move(sender));
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST_F(CommTest, UnregisterRemovesEndpoint) {
  Program idle;
  idle.exit();
  auto p = spawn(7, 0, std::move(idle));
  EXPECT_EQ(comm->find(7), p.get());
  comm->unregister_process(7);
  EXPECT_EQ(comm->find(7), nullptr);
}

TEST_F(CommTest, DuplicateRegistrationThrows) {
  Program idle;
  idle.exit();
  auto p = spawn(7, 0, std::move(idle));
  Process clone(7, 2, Program{}.exit());
  clone.bind_to_node(1);
  EXPECT_THROW(comm->register_process(clone), std::logic_error);
}

TEST_F(CommTest, MessagesBetweenPairFifoPerTag) {
  // Two messages with the same tag must be received in send order.
  Program sender, receiver;
  sender.send(2, 5, 100).send(2, 5, 200).exit();
  receiver.receive(5).receive(5).exit();
  auto ps = spawn(1, 0, std::move(sender));
  auto pr = spawn(2, 1, std::move(receiver));
  sim.run();
  EXPECT_TRUE(pr->done());
  EXPECT_EQ(comm->deliveries(), 2u);
}

TEST_F(CommTest, RequestReplyRoundTrip) {
  Program client, server;
  client.send(2, 1, 100).receive(2).exit();
  server.receive(1).compute(SimTime::milliseconds(1)).send(1, 2, 400).exit();
  auto pc = spawn(1, 0, std::move(client));
  auto psrv = spawn(2, 1, std::move(server));
  sim.run();
  EXPECT_TRUE(pc->done());
  EXPECT_TRUE(psrv->done());
  EXPECT_EQ(comm->sends(), 2u);
  // All buffers returned on both nodes.
  EXPECT_EQ(mmus[0]->bytes_used(), 0u);
  EXPECT_EQ(mmus[1]->bytes_used(), 0u);
}

/// Job `job`'s endpoint at `rank`.
net::EndpointId endpoint(JobId job, std::uint64_t rank) {
  return (net::EndpointId{job} << net::kEndpointRankBits) | rank;
}

TEST_F(CommTest, RegistryWindowHoldsEveryRank) {
  // A job's window is opened once at its final size (40 ranks take a
  // 64-slot window); every endpoint resolves, and unregistering one
  // removes exactly that endpoint.
  constexpr JobId kJob = 3;
  const std::size_t arena = comm->arena_slots();
  comm->open_job(kJob, 40);
  EXPECT_EQ(comm->arena_slots(), arena + 64);
  std::vector<std::unique_ptr<Process>> procs;
  for (std::uint64_t rank = 0; rank < 40; ++rank) {
    auto p = std::make_unique<Process>(endpoint(kJob, rank), kJob,
                                       Program{}.exit());
    p->bind_to_node(static_cast<net::NodeId>(rank % 2));
    comm->register_process(*p);
    procs.push_back(std::move(p));
  }
  for (std::uint64_t rank = 0; rank < 40; ++rank) {
    EXPECT_EQ(comm->find(endpoint(kJob, rank)), procs[rank].get());
  }
  comm->unregister_process(endpoint(kJob, 7));
  EXPECT_EQ(comm->find(endpoint(kJob, 7)), nullptr);
  EXPECT_EQ(comm->find(endpoint(kJob, 6)), procs[6].get());
  EXPECT_EQ(comm->find(endpoint(kJob, 8)), procs[8].get());
  // A rank outside the job's window cannot register.
  Process outside(endpoint(kJob, 64), kJob, Program{}.exit());
  outside.bind_to_node(0);
  EXPECT_THROW(comm->register_process(outside), std::logic_error);
}

TEST_F(CommTest, RegistryKeepsJobsIndependent) {
  auto make = [&](JobId job, std::uint64_t rank) {
    auto p = std::make_unique<Process>(endpoint(job, rank), job,
                                       Program{}.exit());
    p->bind_to_node(0);
    comm->register_process(*p);
    return p;
  };
  comm->open_job(1, 10);
  comm->open_job(2, 1);
  auto a0 = make(1, 0);
  auto b0 = make(2, 0);
  auto a9 = make(1, 9);
  EXPECT_EQ(comm->find(endpoint(2, 0)), b0.get());
  EXPECT_EQ(comm->find(endpoint(1, 0)), a0.get());
  EXPECT_EQ(comm->find(endpoint(1, 9)), a9.get());
  // Unknown jobs and out-of-window ranks resolve to null, not garbage.
  EXPECT_EQ(comm->find(endpoint(5, 0)), nullptr);
  EXPECT_EQ(comm->find(endpoint(1, 100)), nullptr);
  EXPECT_EQ(comm->open_windows(), 3u);  // jobs 0, 1 and 2
}

/// Never crashes a node, downs a link or drops a message: arms the comm
/// system's fault mode (incarnations, stale discards) and nothing else.
class QuietFaultPlane : public net::FaultPlane {
 public:
  bool node_alive(net::NodeId) const override { return true; }
  bool link_usable(net::LinkId) const override { return true; }
  bool should_drop(const net::Message&) override { return false; }
};

TEST_F(CommTest, TornDownJobsWindowIsReusedWithoutAliasing) {
  QuietFaultPlane plane;
  comm->enable_faults(&plane, 0, SimTime::milliseconds(1), nullptr, nullptr);
  std::vector<std::unique_ptr<Process>> procs;
  const auto start = [&](JobId job, std::uint64_t rank, Program prog) {
    procs.push_back(
        std::make_unique<Process>(endpoint(job, rank), job, std::move(prog)));
    Process& p = *procs.back();
    p.bind_to_node(static_cast<net::NodeId>(rank));
    comm->register_process(p);
    cpus[rank]->make_ready(p);
    return &p;
  };
  // Job 1: rank 0 sends 64 KB to rank 1, which is busy computing.
  const std::size_t arena = comm->arena_slots();
  comm->open_job(1, 2);
  Program sender, receiver;
  sender.send(endpoint(1, 1), 5, 64 * 1024).exit();
  receiver.compute(SimTime::seconds(1)).receive(5).exit();
  Process* old_sender = start(1, 0, std::move(sender));
  Process* old_receiver = start(1, 1, std::move(receiver));
  EXPECT_EQ(comm->arena_slots(), arena + 2);
  // Stop once the message is injected, then tear job 1 down the way an
  // abort does: force-exit, unregister, bump the incarnation.
  while (comm->sends() == 0 && sim.step()) {
  }
  ASSERT_EQ(comm->sends(), 1u);
  ASSERT_EQ(network->in_flight(), 1u);
  for (Process* p : {old_sender, old_receiver}) {
    cpus[static_cast<std::size_t>(p->node())]->force_exit(*p);
    comm->unregister_process(p->id());
  }
  comm->abort_job(1);
  EXPECT_EQ(comm->open_windows(), 1u);  // the fixture's job 0 only
  EXPECT_EQ(comm->find(endpoint(1, 1)), nullptr);

  // Job 2 takes job 1's window: the arena does not grow.
  comm->open_job(2, 2);
  Program idle_a, idle_b;
  idle_a.receive(9).exit();
  idle_b.receive(9).exit();
  Process* new0 = start(2, 0, std::move(idle_a));
  Process* new1 = start(2, 1, std::move(idle_b));
  EXPECT_EQ(comm->arena_slots(), arena + 2);
  // Job 1's endpoints stay dead: none aliases job 2's processes.
  EXPECT_EQ(comm->find(endpoint(1, 0)), nullptr);
  EXPECT_EQ(comm->find(endpoint(1, 1)), nullptr);
  EXPECT_EQ(comm->find(endpoint(2, 0)), new0);
  EXPECT_EQ(comm->find(endpoint(2, 1)), new1);

  // The message to job 1's old life dies at delivery, as a stale discard,
  // and reaches no mailbox of job 2.
  sim.run();
  EXPECT_EQ(comm->stale_discards(), 1u);
  EXPECT_EQ(comm->deliveries(), 0u);
  EXPECT_EQ(comm->messages_lost(), 0u);
  EXPECT_TRUE(new0->mailbox().empty());
  EXPECT_TRUE(new1->mailbox().empty());
}

TEST_F(CommTest, ManyMessagesAllArrive) {
  constexpr int kCount = 20;
  Program sender, receiver;
  for (int i = 0; i < kCount; ++i) sender.send(2, 5, 64);
  sender.exit();
  for (int i = 0; i < kCount; ++i) receiver.receive(5);
  receiver.exit();
  auto ps = spawn(1, 0, std::move(sender));
  auto pr = spawn(2, 1, std::move(receiver));
  sim.run();
  EXPECT_TRUE(pr->done());
  EXPECT_EQ(comm->deliveries(), static_cast<std::uint64_t>(kCount));
}

// A gang turn thaws one job: only that job's parked messages are retried.
// The others stay parked without parking again, so the park counter counts
// each frozen message once.
TEST_F(CommTest, ThawingOneJobLeavesOtherJobsParked) {
  obs::Counter parks;
  network->set_metrics(&parks);
  comm->set_job_active(1, false);
  comm->set_job_active(2, false);
  comm->open_job(1, 2);
  comm->open_job(2, 2);
  std::vector<std::unique_ptr<Process>> procs;
  const auto start = [&](JobId job, net::EndpointId rank, Program prog) {
    procs.push_back(
        std::make_unique<Process>(endpoint(job, rank), job, std::move(prog)));
    Process& p = *procs.back();
    p.bind_to_node(static_cast<net::NodeId>(rank));
    comm->register_process(p);
    cpus[rank]->make_ready(p);
  };
  for (const JobId job : {1u, 2u}) {
    Program sender, receiver;
    sender.send(endpoint(job, 1), 5, 100).send(endpoint(job, 1), 5, 100).exit();
    receiver.receive(5).receive(5).exit();
    start(job, 0, std::move(sender));
    start(job, 1, std::move(receiver));
  }
  sim.run();
  ASSERT_EQ(parks.value, 4u);
  ASSERT_EQ(network->parked_messages(), 4u);

  comm->set_job_active(1, true);
  sim.run();
  EXPECT_TRUE(procs[1]->done());   // job 1's receiver got both messages
  EXPECT_FALSE(procs[3]->done());  // job 2's are still parked
  EXPECT_EQ(network->parked_messages(), 2u);
  EXPECT_EQ(parks.value, 4u);
}

}  // namespace
}  // namespace tmc::node
