// Tests of the network progress gate: messages of descheduled jobs park in
// place, pinning their buffers, until kicked.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <unordered_set>
#include <vector>

#include "mem/mmu.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace tmc::net {
namespace {

using sim::SimTime;

/// Every link up or every link down; nothing dropped.
struct AllLinks final : FaultPlane {
  bool down = false;
  [[nodiscard]] bool node_alive(NodeId /*node*/) const override {
    return true;
  }
  [[nodiscard]] bool link_usable(LinkId /*link*/) const override {
    return !down;
  }
  bool should_drop(const Message& /*msg*/) override { return false; }
};

class ProgressGateTest : public ::testing::Test {
 protected:
  ProgressGateTest() : topo(Topology::linear(4)) {
    for (int i = 0; i < 4; ++i) {
      mmus.push_back(std::make_unique<mem::Mmu>(sim, 1 << 20));
      mmu_ptrs.push_back(mmus.back().get());
    }
    net = std::make_unique<StoreForwardNetwork>(sim, topo, mmu_ptrs);
    net->set_delivery_handler([this](const Message& msg, mem::Block buffer) {
      delivered.push_back(msg.id);
      buffer.release();
    });
    net->set_progress_gate([this](const Message& msg) {
      return !frozen.contains(msg.job);
    });
  }

  Message make_msg(std::uint32_t job, NodeId src, NodeId dst,
                   std::size_t bytes = 100) {
    Message msg;
    msg.id = next_id++;
    msg.job = job;
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
  std::vector<std::unique_ptr<mem::Mmu>> mmus;
  std::vector<mem::Mmu*> mmu_ptrs;
  std::unique_ptr<StoreForwardNetwork> net;
  std::unordered_set<std::uint32_t> frozen;
  std::vector<std::uint64_t> delivered;
  std::uint64_t next_id = 1;
};

TEST_F(ProgressGateTest, FrozenJobParksAtSource) {
  frozen.insert(7);
  net->send(make_msg(7, 0, 3), buffer_at(0, 100));
  sim.run();
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(net->parked_messages(), 1u);
  // The source buffer stays pinned while parked.
  EXPECT_EQ(mmus[0]->bytes_used(), 100u);
}

TEST_F(ProgressGateTest, KickReleasesThawedMessages) {
  frozen.insert(7);
  net->send(make_msg(7, 0, 3), buffer_at(0, 100));
  sim.run();
  frozen.erase(7);
  net->kick();
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
  EXPECT_EQ(net->parked_messages(), 0u);
  for (const auto& mmu : mmus) EXPECT_EQ(mmu->bytes_used(), 0u);
}

TEST_F(ProgressGateTest, KickReparksStillFrozenMessages) {
  frozen.insert(7);
  net->send(make_msg(7, 0, 3), buffer_at(0, 100));
  sim.run();
  net->kick();  // still frozen
  sim.run();
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(net->parked_messages(), 1u);
}

TEST_F(ProgressGateTest, FreezeMidRouteParksAtIntermediateNode) {
  // Freeze while the second hop is in flight (one hop of a 100-byte
  // message takes ~72 us): the message completes that hop, then parks at
  // node 2, pinning its buffer there -- not at the source or destination.
  net->send(make_msg(7, 0, 3), buffer_at(0, 100));
  sim.schedule(SimTime::microseconds(80), [&] { frozen.insert(7); });
  sim.run();
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(net->parked_messages(), 1u);
  EXPECT_EQ(mmus[0]->bytes_used(), 0u);  // source freed after its hop
  EXPECT_GT(mmus[2]->bytes_used(), 0u);  // pinned at the intermediate
  EXPECT_EQ(mmus[3]->bytes_used(), 0u);  // never reached the destination
  frozen.clear();
  net->kick();
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
}

TEST_F(ProgressGateTest, UnrelatedJobsFlowPastFrozenOnes) {
  frozen.insert(7);
  net->send(make_msg(7, 0, 3), buffer_at(0, 100));
  net->send(make_msg(8, 0, 3), buffer_at(0, 100));
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], 2u);  // job 8's message
  EXPECT_EQ(net->parked_messages(), 1u);
}

TEST_F(ProgressGateTest, NoGateMeansFreeFlow) {
  net->set_progress_gate(nullptr);
  frozen.insert(7);  // irrelevant without a gate
  net->send(make_msg(7, 0, 3), buffer_at(0, 100));
  sim.run();
  EXPECT_EQ(delivered.size(), 1u);
}

TEST_F(ProgressGateTest, WormholeGateParksBeforeLaunch) {
  WormholeNetwork worm(sim, topo, mmu_ptrs);
  std::vector<std::uint64_t> worm_delivered;
  worm.set_delivery_handler([&](const Message& msg, mem::Block buffer) {
    worm_delivered.push_back(msg.id);
    buffer.release();
  });
  worm.set_progress_gate(
      [this](const Message& msg) { return !frozen.contains(msg.job); });
  frozen.insert(9);
  worm.send(make_msg(9, 0, 3), buffer_at(0, 100));
  sim.run();
  EXPECT_TRUE(worm_delivered.empty());
  frozen.clear();
  worm.kick();
  sim.run();
  EXPECT_EQ(worm_delivered.size(), 1u);
}

TEST_F(ProgressGateTest, KickSkipsStillFrozenJobsAndKeepsTheOrder) {
  obs::Counter parks;
  net->set_metrics(&parks);
  frozen = {1, 2};
  net->send(make_msg(2, 0, 3), buffer_at(0, 100));  // id 1
  net->send(make_msg(1, 0, 3), buffer_at(0, 100));  // id 2
  net->send(make_msg(2, 0, 3), buffer_at(0, 100));  // id 3
  sim.run();
  ASSERT_EQ(parks.value, 3u);
  frozen.erase(1);
  net->kick();  // job 2's units stay parked without parking again
  EXPECT_EQ(parks.value, 3u);
  EXPECT_EQ(net->parked_messages(), 2u);
  sim.run();
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{2}));
  frozen.clear();
  net->kick();
  sim.run();
  // Job 2's units left in the order they parked.
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{2, 1, 3}));
  EXPECT_EQ(parks.value, 3u);
  EXPECT_EQ(net->parked_messages(), 0u);
}

TEST_F(ProgressGateTest, WormholeKickSkipsStillFrozenJobs) {
  WormholeNetwork worm(sim, topo, mmu_ptrs);
  std::vector<std::uint64_t> worm_delivered;
  worm.set_delivery_handler([&](const Message& msg, mem::Block buffer) {
    worm_delivered.push_back(msg.id);
    buffer.release();
  });
  worm.set_progress_gate(
      [this](const Message& msg) { return !frozen.contains(msg.job); });
  obs::Counter parks;
  worm.set_metrics(&parks);
  frozen = {1, 2};
  worm.send(make_msg(2, 0, 3), buffer_at(0, 100));  // id 1
  worm.send(make_msg(1, 0, 3), buffer_at(0, 100));  // id 2
  worm.send(make_msg(2, 0, 3), buffer_at(0, 100));  // id 3
  sim.run();
  frozen.erase(1);
  worm.kick();
  sim.run();
  EXPECT_EQ(worm_delivered, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(parks.value, 3u);
  EXPECT_EQ(worm.parked_messages(), 2u);
  frozen.clear();
  worm.kick();
  sim.run();
  EXPECT_EQ(worm_delivered, (std::vector<std::uint64_t>{2, 1, 3}));
  EXPECT_EQ(parks.value, 3u);
}

// A kick while the link is still down leaves the unit parked without
// parking it again; the repair's kick moves it.
TEST_F(ProgressGateTest, KickSkipsUnitsBehindADownedLink) {
  WormholeNetwork worm(sim, topo, mmu_ptrs);
  worm.set_delivery_handler([this](const Message& msg, mem::Block buffer) {
    delivered.push_back(msg.id);
    buffer.release();
  });
  AllLinks links;
  links.down = true;
  obs::Counter parks;
  for (Network* engine : std::initializer_list<Network*>{net.get(), &worm}) {
    engine->set_fault_plane(&links);
    engine->set_metrics(&parks);
    engine->send(make_msg(7, 0, 3), buffer_at(0, 100));
  }
  sim.run();
  ASSERT_EQ(parks.value, 2u);
  net->kick();
  worm.kick();
  sim.run();
  EXPECT_EQ(parks.value, 2u);
  EXPECT_EQ(net->parked_messages(), 1u);
  EXPECT_EQ(worm.parked_messages(), 1u);
  links.down = false;
  net->kick();
  worm.kick();
  sim.run();
  EXPECT_EQ(delivered.size(), 2u);
  EXPECT_EQ(parks.value, 2u);
}

}  // namespace
}  // namespace tmc::net
