#include "net/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/mmu.h"
#include "sim/simulation.h"

namespace tmc::net {
namespace {

using sim::SimTime;

struct Delivery {
  Message msg;
  SimTime at;
};

/// Four nodes in a linear array with small, observable parameters:
/// per_byte = 1 us, per_hop_latency = 10 us, header = 16 bytes.
/// A 100-byte message therefore needs 126 us per hop.
class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : topo(Topology::linear(4)) {
    params.per_byte = SimTime::microseconds(1);
    params.per_hop_latency = SimTime::microseconds(10);
    params.header_bytes = 16;
    for (int i = 0; i < 4; ++i) {
      mmus.push_back(std::make_unique<mem::Mmu>(sim, 10'000));
      mmu_ptrs.push_back(mmus.back().get());
    }
  }

  template <typename Net>
  std::unique_ptr<Net> make_network() {
    auto net = std::make_unique<Net>(sim, topo, mmu_ptrs, params);
    net->set_delivery_handler([this](const Message& msg, mem::Block buffer) {
      deliveries.push_back({msg, sim.now()});
      buffer.release();
    });
    net->set_hop_hook([this](NodeId node, const Message&, std::size_t) {
      hop_nodes.push_back(node);
    });
    return net;
  }

  Message make_msg(NodeId src, NodeId dst, std::size_t bytes) {
    Message msg;
    msg.id = 1;
    msg.src_node = src;
    msg.dst_node = dst;
    msg.tag = 7;
    msg.bytes = bytes;
    return msg;
  }

  mem::Block source_buffer(NodeId src, std::size_t bytes) {
    auto block = mmus[static_cast<std::size_t>(src)]->try_alloc(bytes);
    EXPECT_TRUE(block.has_value());
    return std::move(*block);
  }

  sim::Simulation sim;
  Topology topo;
  NetworkParams params;
  std::vector<std::unique_ptr<mem::Mmu>> mmus;
  std::vector<mem::Mmu*> mmu_ptrs;
  std::vector<Delivery> deliveries;
  std::vector<NodeId> hop_nodes;
};

TEST_F(NetworkTest, SingleHopDeliveryTiming) {
  auto net = make_network<StoreForwardNetwork>();
  net->send(make_msg(0, 1, 100), source_buffer(0, 100));
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].at, SimTime::microseconds(126));
  EXPECT_EQ(deliveries[0].msg.bytes, 100u);
  EXPECT_EQ(net->messages_delivered(), 1u);
  EXPECT_EQ(net->in_flight(), 0u);
}

TEST_F(NetworkTest, MultiHopIsSequentialStoreAndForward) {
  auto net = make_network<StoreForwardNetwork>();
  net->send(make_msg(0, 3, 100), source_buffer(0, 100));
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  // Three hops, each fully buffered before the next: 3 x 126 us.
  EXPECT_EQ(deliveries[0].at, SimTime::microseconds(378));
  EXPECT_EQ(net->total_hops(), 3u);
  // Hop hook fires at every arrival node: 1, 2, 3.
  EXPECT_EQ(hop_nodes, (std::vector<NodeId>{1, 2, 3}));
}

TEST_F(NetworkTest, SelfSendBypassesLinks) {
  auto net = make_network<StoreForwardNetwork>();
  net->send(make_msg(2, 2, 100), source_buffer(2, 100));
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].at, SimTime::zero());
  EXPECT_EQ(net->total_hops(), 0u);
  EXPECT_TRUE(hop_nodes.empty());
}

TEST_F(NetworkTest, BuffersAreReturnedEverywhere) {
  auto net = make_network<StoreForwardNetwork>();
  net->send(make_msg(0, 3, 500), source_buffer(0, 500));
  sim.run();
  for (const auto& mmu : mmus) {
    EXPECT_EQ(mmu->bytes_used(), 0u);
  }
  // Intermediate nodes really buffered the message (store-and-forward).
  EXPECT_EQ(mmus[1]->high_watermark(), 500u + params.header_bytes);
  EXPECT_EQ(mmus[2]->high_watermark(), 500u + params.header_bytes);
}

TEST_F(NetworkTest, LinkContentionSerialisesTransfers) {
  auto net = make_network<StoreForwardNetwork>();
  auto msg_a = make_msg(0, 1, 100);
  auto msg_b = make_msg(0, 1, 100);
  msg_b.id = 2;
  net->send(msg_a, source_buffer(0, 100));
  net->send(msg_b, source_buffer(0, 100));
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].at, SimTime::microseconds(126));
  EXPECT_EQ(deliveries[1].at, SimTime::microseconds(252));
}

TEST_F(NetworkTest, OppositeDirectionsDoNotContend) {
  auto net = make_network<StoreForwardNetwork>();
  auto msg_b = make_msg(1, 0, 100);
  msg_b.id = 2;
  net->send(make_msg(0, 1, 100), source_buffer(0, 100));
  net->send(msg_b, source_buffer(1, 100));
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].at, SimTime::microseconds(126));
  EXPECT_EQ(deliveries[1].at, SimTime::microseconds(126));
}

TEST_F(NetworkTest, MemoryPressureDelaysForwarding) {
  auto net = make_network<StoreForwardNetwork>();
  // Fill node 1 so the first hop's buffer request must wait.
  auto hog = mmus[1]->try_alloc(9'950);
  ASSERT_TRUE(hog.has_value());
  net->send(make_msg(0, 1, 100), source_buffer(0, 100));
  sim.run();
  EXPECT_TRUE(deliveries.empty());  // stuck behind memory pressure
  sim.schedule(SimTime::milliseconds(5), [&] { hog->release(); });
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].at,
            SimTime::milliseconds(5) + SimTime::microseconds(126));
}

TEST_F(NetworkTest, LinkStatsAccumulate) {
  auto net = make_network<StoreForwardNetwork>();
  net->send(make_msg(0, 1, 100), source_buffer(0, 100));
  sim.run();
  const auto link_id = topo.link_between(0, 1);
  ASSERT_TRUE(link_id.has_value());
  EXPECT_EQ(net->link(*link_id).transfers(), 1u);
  EXPECT_EQ(net->link(*link_id).bytes_carried(), 116u);
  EXPECT_GT(net->max_link_utilization(sim.now()), 0.0);
}

TEST_F(NetworkTest, WormholePipelinesAcrossHops) {
  auto net = make_network<WormholeNetwork>();
  net->send(make_msg(0, 3, 100), source_buffer(0, 100));
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  // 3 router hops + one pipelined payload stream: 30 us + 116 us.
  EXPECT_EQ(deliveries[0].at, SimTime::microseconds(146));
}

TEST_F(NetworkTest, WormholeUsesNoIntermediateBuffers) {
  auto net = make_network<WormholeNetwork>();
  net->send(make_msg(0, 3, 500), source_buffer(0, 500));
  sim.run();
  EXPECT_EQ(mmus[1]->high_watermark(), 0u);
  EXPECT_EQ(mmus[2]->high_watermark(), 0u);
  EXPECT_EQ(mmus[3]->high_watermark(), 500u + params.header_bytes);
  for (const auto& mmu : mmus) EXPECT_EQ(mmu->bytes_used(), 0u);
}

TEST_F(NetworkTest, WormholeSelfSendDeliversDirectly) {
  auto net = make_network<WormholeNetwork>();
  net->send(make_msg(1, 1, 64), source_buffer(1, 64));
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].at, SimTime::zero());
}

TEST_F(NetworkTest, WormholeHoldsWholePathAsCircuit) {
  auto net = make_network<WormholeNetwork>();
  auto msg_b = make_msg(1, 2, 100);
  msg_b.id = 2;
  net->send(make_msg(0, 3, 100), source_buffer(0, 100));
  net->send(msg_b, source_buffer(1, 100));
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  // First worm holds links 0-1, 1-2, 2-3 for its whole 146 us; the second
  // message needs 1-2 and must wait for the circuit to clear.
  EXPECT_EQ(deliveries[0].at, SimTime::microseconds(146));
  EXPECT_EQ(deliveries[1].at,
            SimTime::microseconds(146) + SimTime::microseconds(126));
}

TEST_F(NetworkTest, MismatchedMmuCountThrows) {
  std::vector<mem::Mmu*> short_list(mmu_ptrs.begin(), mmu_ptrs.end() - 1);
  EXPECT_THROW(StoreForwardNetwork(sim, topo, short_list, params),
               std::invalid_argument);
  EXPECT_THROW(WormholeNetwork(sim, topo, short_list, params),
               std::invalid_argument);
}

TEST_F(NetworkTest, WormholeRejectsPackets) {
  // A worm always carries the whole message; a packet size would be
  // silently ignored.
  params.packet_bytes = 1024;
  EXPECT_THROW(WormholeNetwork(sim, topo, mmu_ptrs, params),
               std::invalid_argument);
  EXPECT_NO_THROW(StoreForwardNetwork(sim, topo, mmu_ptrs, params));
}

}  // namespace
}  // namespace tmc::net
