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

TEST_F(CommTest, RegistryWindowGrowsAcrossRanks) {
  // The registry stores processes in per-job {offset, cap} windows into one
  // flat arena; registering ever-higher ranks forces repeated relocation to
  // the arena tail. Every earlier endpoint must survive each move.
  constexpr net::EndpointId kJob = 3;
  std::vector<std::unique_ptr<Process>> procs;
  for (std::uint64_t rank = 0; rank < 40; ++rank) {
    const net::EndpointId id = (kJob << net::kEndpointRankBits) | rank;
    auto p = std::make_unique<Process>(id, kJob, Program{}.exit());
    p->bind_to_node(static_cast<net::NodeId>(rank % 2));
    comm->register_process(*p);
    procs.push_back(std::move(p));
    for (std::uint64_t r = 0; r <= rank; ++r) {
      const net::EndpointId probe = (kJob << net::kEndpointRankBits) | r;
      ASSERT_EQ(comm->find(probe), procs[r].get()) << "after rank " << rank;
    }
  }
  // The abandoned blocks must not alias live processes: unregistering one
  // endpoint removes exactly that endpoint.
  const net::EndpointId victim = (kJob << net::kEndpointRankBits) | 7;
  comm->unregister_process(victim);
  EXPECT_EQ(comm->find(victim), nullptr);
  EXPECT_EQ(comm->find((kJob << net::kEndpointRankBits) | 6), procs[6].get());
  EXPECT_EQ(comm->find((kJob << net::kEndpointRankBits) | 8), procs[8].get());
}

TEST_F(CommTest, RegistryKeepsJobsIndependent) {
  // Growth of one job's window must not disturb another's entries.
  auto make = [&](net::EndpointId job, std::uint64_t rank) {
    const net::EndpointId id = (job << net::kEndpointRankBits) | rank;
    auto p = std::make_unique<Process>(id, static_cast<JobId>(job),
                                       Program{}.exit());
    p->bind_to_node(0);
    comm->register_process(*p);
    return p;
  };
  auto a0 = make(1, 0);
  auto b0 = make(2, 0);
  auto a9 = make(1, 9);  // grows job 1's window past job 2's block
  EXPECT_EQ(comm->find((net::EndpointId{2} << net::kEndpointRankBits) | 0),
            b0.get());
  EXPECT_EQ(comm->find((net::EndpointId{1} << net::kEndpointRankBits) | 0),
            a0.get());
  EXPECT_EQ(comm->find((net::EndpointId{1} << net::kEndpointRankBits) | 9),
            a9.get());
  // Unknown jobs and out-of-window ranks resolve to null, not garbage.
  EXPECT_EQ(comm->find((net::EndpointId{5} << net::kEndpointRankBits) | 0),
            nullptr);
  EXPECT_EQ(comm->find((net::EndpointId{1} << net::kEndpointRankBits) | 100),
            nullptr);
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
  const auto endpoint = [](JobId job, net::EndpointId rank) {
    return (net::EndpointId{job} << net::kEndpointRankBits) | rank;
  };
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
