// Tests of store-and-forward packet fragmentation (NetworkParams::packet_bytes).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/mmu.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace tmc::net {
namespace {

using sim::SimTime;

/// Linear 4-node wiring; per_byte 1 us, hop latency 10 us, header 16 B.
class FragmentationTest : public ::testing::Test {
 protected:
  FragmentationTest() : topo(Topology::linear(4)) {
    params.per_byte = SimTime::microseconds(1);
    params.per_hop_latency = SimTime::microseconds(10);
    params.header_bytes = 16;
    for (int i = 0; i < 4; ++i) {
      mmus.push_back(std::make_unique<mem::Mmu>(sim, 1 << 20));
      mmu_ptrs.push_back(mmus.back().get());
    }
  }

  std::unique_ptr<StoreForwardNetwork> make_network(std::size_t packet_bytes) {
    params.packet_bytes = packet_bytes;
    auto net = std::make_unique<StoreForwardNetwork>(sim, topo, mmu_ptrs, params);
    net->set_delivery_handler([this](const Message& msg, mem::Block buffer) {
      delivered_bytes.push_back(buffer.size());
      delivered_at.push_back(sim.now());
      last_msg = msg;
      buffer.release();
    });
    return net;
  }

  Message make_msg(NodeId src, NodeId dst, std::size_t bytes) {
    Message msg;
    msg.id = next_id++;
    msg.src_node = src;
    msg.dst_node = dst;
    msg.bytes = bytes;
    return msg;
  }

  mem::Block buffer_at(NodeId node, std::size_t bytes) {
    auto block = mmus[static_cast<std::size_t>(node)]->try_alloc(bytes);
    EXPECT_TRUE(block.has_value());
    return std::move(*block);
  }

  sim::Simulation sim;
  Topology topo;
  NetworkParams params;
  std::vector<std::unique_ptr<mem::Mmu>> mmus;
  std::vector<mem::Mmu*> mmu_ptrs;
  std::vector<std::size_t> delivered_bytes;
  std::vector<SimTime> delivered_at;
  Message last_msg;
  std::uint64_t next_id = 1;
};

TEST_F(FragmentationTest, SmallMessagesAreNotFragmented) {
  auto net = make_network(1024);
  net->send(make_msg(0, 3, 100), buffer_at(0, 100));
  sim.run();
  ASSERT_EQ(delivered_bytes.size(), 1u);
  // Delivered in the per-hop buffer (payload + header), as unfragmented.
  EXPECT_EQ(delivered_bytes[0], 116u);
  EXPECT_EQ(net->messages_delivered(), 1u);
}

TEST_F(FragmentationTest, FragmentedMessageReassemblesOnce) {
  auto net = make_network(1000);
  net->send(make_msg(0, 3, 4000), buffer_at(0, 4000));
  sim.run();
  ASSERT_EQ(delivered_bytes.size(), 1u);  // one delivery, not four
  EXPECT_EQ(delivered_bytes[0], 4016u);   // full message buffer
  EXPECT_EQ(net->messages_delivered(), 1u);
  EXPECT_EQ(net->messages_sent(), 1u);
  for (const auto& mmu : mmus) EXPECT_EQ(mmu->bytes_used(), 0u);
}

TEST_F(FragmentationTest, PipeliningBeatsWholeMessageForwarding) {
  // 4000 B over 3 hops: whole-message = 3 x (10 + 4016) us ~ 12.1 ms;
  // 1000-B packets pipeline: ~ first packet 3 hops + 3 more on the last
  // link ~ 6.1 ms.
  auto whole = make_network(0);
  whole->send(make_msg(0, 3, 4000), buffer_at(0, 4000));
  sim.run();
  const SimTime whole_time = delivered_at.at(0);

  delivered_at.clear();
  auto packet = make_network(1000);
  packet->send(make_msg(0, 3, 4000), buffer_at(0, 4000));
  sim.run();
  const SimTime packet_time = delivered_at.at(0) - whole_time;

  EXPECT_LT(packet_time.ns(), whole_time.ns() * 2 / 3);
}

TEST_F(FragmentationTest, IntermediateNodesHoldOnlyPackets) {
  auto net = make_network(1000);
  net->send(make_msg(0, 3, 8000), buffer_at(0, 8000));
  sim.run();
  // Receive buffers are pre-posted per packet, so the first-hop node can
  // transiently hold all packet buffers (message + per-packet headers) but
  // downstream nodes only see the pipelined few.
  EXPECT_LE(mmus[1]->high_watermark(), 8000u + 8 * 16);
  EXPECT_LT(mmus[2]->high_watermark(), 8000u);
  // The destination did (reassembly buffer).
  EXPECT_GE(mmus[3]->high_watermark(), 8016u);
}

TEST_F(FragmentationTest, UnevenTailPacketCarriesRemainder) {
  auto net = make_network(1000);
  net->send(make_msg(0, 1, 2500), buffer_at(0, 2500));  // 1000+1000+500
  sim.run();
  ASSERT_EQ(delivered_bytes.size(), 1u);
  EXPECT_EQ(delivered_bytes[0], 2516u);
  EXPECT_EQ(net->total_hops(), 3u);  // three packets, one hop each
}

TEST_F(FragmentationTest, SelfSendSkipsFragmentation) {
  auto net = make_network(64);
  net->send(make_msg(2, 2, 4000), buffer_at(2, 4000));
  sim.run();
  ASSERT_EQ(delivered_bytes.size(), 1u);
  EXPECT_EQ(delivered_at[0], SimTime::zero());
  EXPECT_EQ(net->total_hops(), 0u);
}

TEST_F(FragmentationTest, ManyFragmentedMessagesInterleaveCorrectly) {
  auto net = make_network(500);
  for (int i = 0; i < 6; ++i) {
    net->send(make_msg(0, 3, 1600 + static_cast<std::size_t>(i) * 100),
              buffer_at(0, 1600 + static_cast<std::size_t>(i) * 100));
  }
  sim.run();
  EXPECT_EQ(delivered_bytes.size(), 6u);
  EXPECT_EQ(net->messages_delivered(), 6u);
  for (const auto& mmu : mmus) EXPECT_EQ(mmu->bytes_used(), 0u);
}

TEST_F(FragmentationTest, ProgressGateParksIndividualPackets) {
  auto net = make_network(1000);
  bool frozen = false;
  net->set_progress_gate([&frozen](const Message&) { return !frozen; });
  net->send(make_msg(0, 3, 4000), buffer_at(0, 4000));
  // Freeze mid-flight: some packets park, the rest wait.
  sim.schedule(SimTime::milliseconds(2), [&] { frozen = true; });
  sim.run();
  EXPECT_TRUE(delivered_bytes.empty());
  EXPECT_GT(net->parked_messages(), 0u);
  frozen = false;
  net->kick();
  sim.run();
  ASSERT_EQ(delivered_bytes.size(), 1u);
  EXPECT_EQ(delivered_bytes[0], 4016u);
}

TEST_F(FragmentationTest, SourceBufferFreedWhenLastPacketLeavesTheSource) {
  // 4000 B in 1000-B packets over one link: the k-th packet finishes its
  // first hop at k x (10 + 1016) us. The source keeps the whole message
  // buffer until the fourth, and frees it before that hop's hook runs.
  auto net = make_network(1000);
  std::vector<std::size_t> source_used;
  std::vector<SimTime> first_hops;
  net->set_hop_hook([&](NodeId node, const Message&, std::size_t) {
    if (node != 1) return;
    first_hops.push_back(sim.now());
    source_used.push_back(mmus[0]->bytes_used());
  });
  net->send(make_msg(0, 3, 4000), buffer_at(0, 4000));
  EXPECT_EQ(mmus[0]->bytes_used(), 4000u);
  sim.run();
  ASSERT_EQ(first_hops.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(first_hops[k],
              SimTime::microseconds(1026 * static_cast<std::int64_t>(k + 1)));
  }
  EXPECT_EQ(source_used, (std::vector<std::size_t>{4000, 4000, 4000, 0}));
  ASSERT_EQ(delivered_bytes.size(), 1u);
}

TEST_F(FragmentationTest, ParkedPacketsKeepTheSourcePinned) {
  auto net = make_network(1000);
  bool frozen = true;
  net->set_progress_gate([&frozen](const Message&) { return !frozen; });
  net->send(make_msg(0, 3, 2500), buffer_at(0, 2500));
  sim.run();
  EXPECT_EQ(net->parked_messages(), 3u);  // units, not messages
  EXPECT_EQ(mmus[0]->bytes_used(), 2500u);
  frozen = false;
  net->kick();
  sim.run();
  EXPECT_EQ(mmus[0]->bytes_used(), 0u);
  ASSERT_EQ(delivered_bytes.size(), 1u);
}

TEST_F(FragmentationTest, UnstagedPacketizedSendPinsNothing) {
  auto net = make_network(1000);
  std::vector<std::size_t> source_used;
  net->set_hop_hook([&](NodeId, const Message&, std::size_t) {
    source_used.push_back(mmus[0]->bytes_used());
  });
  Message msg = make_msg(0, 3, 4000);
  msg.unstaged = true;
  net->send(msg, mem::Block{});
  sim.run();
  ASSERT_EQ(delivered_bytes.size(), 1u);
  EXPECT_EQ(delivered_bytes[0], 4016u);
  EXPECT_EQ(source_used.size(), 12u);  // four packets, three hops each
  for (const std::size_t used : source_used) EXPECT_EQ(used, 0u);
  EXPECT_EQ(mmus[0]->high_watermark(), 0u);
}

}  // namespace
}  // namespace tmc::net
