// Transfer-unit pool tests for both transport engines, built as their own
// binary with a counting global allocator.
//
// Both engines promise *zero heap allocations per hop* once warm: the
// wormhole engine keeps each in-flight message in a worm slot, and the
// store-and-forward engine keeps each transfer unit (whole message or
// packet) in a unit slot, so every callback captures only {this, handle}.
// A claim like that cannot be tested by inspection -- this binary replaces
// global operator new/delete with counting versions and asserts the count
// stays flat across whole simulated transfers. The remaining wormhole tests
// pin the pool mechanics the guarantee rests on: pre-reservation,
// exhaustion regrowth, O(1) tail-flit release, slot reuse, and the no-slot
// cases (parked and self-send messages).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "mem/mmu.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace tmc::net {
namespace {

using sim::SimTime;

/// Heap allocations performed by `fn`.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

class WormholePoolTest : public ::testing::Test {
 protected:
  explicit WormholePoolTest(Topology topo = Topology::linear(4))
      : topo_(std::move(topo)) {
    for (int i = 0; i < topo_.node_count(); ++i) {
      mmus_.push_back(std::make_unique<mem::Mmu>(sim_, std::size_t{4} << 20));
      mmu_ptrs_.push_back(mmus_.back().get());
    }
    net_ = std::make_unique<WormholeNetwork>(sim_, topo_, mmu_ptrs_,
                                             NetworkParams{});
    deliveries_.reserve(1024);
    net_->set_delivery_handler([this](const Message& msg, mem::Block buffer) {
      deliveries_.push_back(msg.id);
      buffer.release();
    });
  }

  void send(NodeId src, NodeId dst, std::size_t bytes, std::uint32_t job = 0) {
    auto payload = mmus_[static_cast<std::size_t>(src)]->try_alloc(1);
    ASSERT_TRUE(payload.has_value());
    Message msg;
    msg.id = next_id_++;
    msg.src_node = src;
    msg.dst_node = dst;
    msg.job = job;
    msg.bytes = bytes;
    net_->send(msg, std::move(*payload));
  }

  /// Full transfers end to end touching every node as source and
  /// destination, to warm every pool on the path (worm slots, event-kernel
  /// slots, MMU grant records, delivery vector).
  void warm_up() {
    const int n = topo_.node_count();
    for (int i = 0; i < 8; ++i) {
      send(0, static_cast<NodeId>(n - 1), 256);
    }
    for (int i = 0; i < n; ++i) {
      send(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n), 64);
    }
    sim_.run();
    ASSERT_EQ(net_->worms_in_flight(), 0u);
  }

  sim::Simulation sim_;
  Topology topo_;
  std::vector<std::unique_ptr<mem::Mmu>> mmus_;
  std::vector<mem::Mmu*> mmu_ptrs_;
  std::unique_ptr<WormholeNetwork> net_;
  std::vector<std::uint64_t> deliveries_;
  std::uint64_t next_id_ = 1;
};

TEST_F(WormholePoolTest, FlitAdvancePathAllocatesNothingOnceWarm) {
  warm_up();
  // Multi-hop transfers, contention included: two messages share links.
  const std::size_t warm = deliveries_.size();
  const std::uint64_t allocs = allocations_during([this] {
    send(0, 3, 512);
    send(1, 3, 512);
    send(0, 2, 128);
    sim_.run();
  });
  EXPECT_EQ(allocs, 0u) << "flit-advance path reached the heap";
  EXPECT_EQ(deliveries_.size(), warm + 3);
  EXPECT_EQ(net_->worms_in_flight(), 0u);
}

TEST_F(WormholePoolTest, SteadyStateTrafficAllocatesNothing) {
  warm_up();
  const std::uint64_t allocs = allocations_during([this] {
    for (int round = 0; round < 50; ++round) {
      send(static_cast<NodeId>(round % 4),
           static_cast<NodeId>((round + 3) % 4), 64 + round);
      sim_.run();
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(net_->worm_pool_growths(), 0u);
}

TEST_F(WormholePoolTest, PoolIsPreReservedPerTopology) {
  // Reservation covers one in-flight message per node, and at least 64,
  // before any traffic: no growth (hence no slot relocation) in normal
  // operation.
  EXPECT_GE(net_->worm_pool_capacity(),
            std::max<std::size_t>(
                64, static_cast<std::size_t>(topo_.node_count())));
  EXPECT_EQ(net_->worm_pool_growths(), 0u);
  EXPECT_EQ(net_->worms_in_flight(), 0u);
}

TEST_F(WormholePoolTest, TailFlitDepartureReleasesTheSlot) {
  send(0, 3, 1000);
  // The slot is taken at launch, before the destination buffer is granted.
  EXPECT_EQ(net_->worms_in_flight(), 1u);
  sim_.run();
  EXPECT_EQ(net_->worms_in_flight(), 0u);
  EXPECT_EQ(net_->peak_worms_in_flight(), 1u);
  EXPECT_EQ(deliveries_.size(), 1u);
}

TEST_F(WormholePoolTest, SequentialTrafficReusesOneSlot) {
  for (int i = 0; i < 40; ++i) {
    send(0, 3, 200);
    sim_.run();  // complete before the next send
  }
  EXPECT_EQ(deliveries_.size(), 40u);
  // Forty messages, one slot: tail-flit release returned it each time.
  EXPECT_EQ(net_->peak_worms_in_flight(), 1u);
  EXPECT_EQ(net_->worm_pool_growths(), 0u);
}

TEST_F(WormholePoolTest, ExhaustionGrowsThePoolAndRecovers) {
  // Far more concurrent transfers than the per-topology reservation: the
  // pool must regrow (observable), stay correct, and drain back to zero.
  const std::size_t reserved = net_->worm_pool_capacity();
  const int burst = static_cast<int>(reserved) * 3;
  for (int i = 0; i < burst; ++i) {
    send(0, 3, 2000);
  }
  EXPECT_GT(net_->peak_worms_in_flight(), reserved);
  EXPECT_GT(net_->worm_pool_growths(), 0u);
  sim_.run();
  EXPECT_EQ(deliveries_.size(), static_cast<std::size_t>(burst));
  EXPECT_EQ(net_->worms_in_flight(), 0u);
  // The grown capacity is retained for the rest of the run.
  EXPECT_GE(net_->worm_pool_capacity(), static_cast<std::size_t>(burst));
}

TEST_F(WormholePoolTest, ParkedMessagesHoldNoSlot) {
  bool active = false;
  net_->set_progress_gate(
      [&active](const Message& msg) { return msg.job != 9 || active; });
  send(0, 3, 300, /*job=*/9);
  send(0, 3, 300, /*job=*/9);
  sim_.run();
  EXPECT_EQ(net_->parked_messages(), 2u);
  EXPECT_EQ(net_->worms_in_flight(), 0u);
  EXPECT_EQ(net_->peak_worms_in_flight(), 0u);
  EXPECT_TRUE(deliveries_.empty());

  active = true;
  net_->kick();
  sim_.run();
  EXPECT_EQ(net_->parked_messages(), 0u);
  EXPECT_EQ(deliveries_.size(), 2u);
  EXPECT_EQ(net_->worms_in_flight(), 0u);
}

TEST_F(WormholePoolTest, KickPathAllocatesNothingOnceWarm) {
  bool active = false;
  net_->set_progress_gate(
      [&active](const Message& msg) { return msg.job != 9 || active; });
  // Warm cycle: park, kick, deliver.
  send(0, 3, 300, 9);
  sim_.run();
  active = true;
  net_->kick();
  sim_.run();
  ASSERT_EQ(deliveries_.size(), 1u);

  active = false;
  const std::uint64_t allocs = allocations_during([this, &active] {
    send(0, 3, 300, 9);
    sim_.run();
    EXPECT_EQ(net_->parked_messages(), 1u);
    active = true;
    net_->kick();
    sim_.run();
  });
  EXPECT_EQ(allocs, 0u) << "park/kick cycle reached the heap";
  EXPECT_EQ(deliveries_.size(), 2u);
}

TEST_F(WormholePoolTest, SelfSendsBypassThePool) {
  warm_up();
  const std::size_t warm = deliveries_.size();
  const std::uint64_t warm_hops = net_->total_hops();
  const std::uint64_t allocs = allocations_during([this] {
    send(2, 2, 100);
    sim_.run();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(deliveries_.size(), warm + 1);
  EXPECT_EQ(net_->total_hops(), warm_hops);  // self-send crossed no link
}

class WormholePoolMeshTest : public WormholePoolTest {
 protected:
  WormholePoolMeshTest() : WormholePoolTest(Topology::mesh(16)) {}
};

TEST_F(WormholePoolMeshTest, ZeroAllocAcrossTopologies) {
  const auto burst = [this] {
    for (int i = 0; i < 16; ++i) {
      send(static_cast<NodeId>(i), static_cast<NodeId>(15 - i), 256);
    }
    sim_.run();
  };
  // Every pool grows on first use to the depth the traffic reaches, so the
  // warm-up includes one burst as deep as the measured one.
  warm_up();
  burst();
  const std::uint64_t allocs = allocations_during(burst);
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(net_->worms_in_flight(), 0u);
}

/// Store-and-forward on an 8-node line: every unit is buffered at each node
/// it crosses, so a hop costs an MMU grant, a link reservation and a
/// link-done event.
class StoreForwardPoolTest : public ::testing::Test {
 protected:
  StoreForwardPoolTest() : topo_(Topology::linear(8)) {
    for (int i = 0; i < topo_.node_count(); ++i) {
      mmus_.push_back(std::make_unique<mem::Mmu>(sim_, std::size_t{4} << 20));
      mmu_ptrs_.push_back(mmus_.back().get());
    }
    deliveries_.reserve(4096);
  }

  void build(std::size_t packet_bytes) {
    NetworkParams params;
    params.packet_bytes = packet_bytes;
    net_ = std::make_unique<StoreForwardNetwork>(sim_, topo_, mmu_ptrs_,
                                                 params);
    net_->set_delivery_handler([this](const Message& msg, mem::Block buffer) {
      deliveries_.push_back(msg.id);
      buffer.release();
    });
    net_->set_progress_gate(
        [this](const Message& msg) { return msg.job != 9 || active_; });
  }

  void send(NodeId src, NodeId dst, std::size_t bytes, std::uint32_t job = 0) {
    auto payload = mmus_[static_cast<std::size_t>(src)]->try_alloc(bytes);
    ASSERT_TRUE(payload.has_value());
    Message msg;
    msg.id = next_id_++;
    msg.src_node = src;
    msg.dst_node = dst;
    msg.job = job;
    msg.bytes = bytes;
    net_->send(msg, std::move(*payload));
  }

  /// End-to-end traffic both ways plus a three-hop shift from every node,
  /// links contended.
  void traffic(std::size_t bytes, std::uint32_t job = 0) {
    for (int i = 0; i < 4; ++i) {
      send(0, 7, bytes, job);
      send(7, 0, bytes, job);
    }
    for (int i = 0; i < 8; ++i) {
      send(static_cast<NodeId>(i), static_cast<NodeId>((i + 3) % 8), bytes,
           job);
    }
  }

  /// Heap allocations per hop while `fn` runs to quiescence.
  template <typename Fn>
  double allocs_per_hop(Fn&& fn) {
    const std::uint64_t hops = net_->total_hops();
    const std::uint64_t allocs = allocations_during([&] {
      fn();
      sim_.run();
    });
    const std::uint64_t crossed = net_->total_hops() - hops;
    EXPECT_GT(crossed, 0u);
    return static_cast<double>(allocs) / static_cast<double>(crossed);
  }

  /// Freezes job 9 twice per cycle -- once before its sends, so units park
  /// at the source, and once mid-route, so they park at intermediate
  /// nodes -- and kicks after each freeze.
  void park_kick_cycle() {
    active_ = false;
    traffic(256, 9);
    sim_.run();
    EXPECT_GT(net_->parked_messages(), 0u);
    active_ = true;
    net_->kick();
    traffic(200, 9);
    sim_.schedule(SimTime::microseconds(400), [this] { active_ = false; });
    sim_.run();
    EXPECT_GT(net_->parked_messages(), 0u);
    active_ = true;
    net_->kick();
  }

  sim::Simulation sim_;
  Topology topo_;
  std::vector<std::unique_ptr<mem::Mmu>> mmus_;
  std::vector<mem::Mmu*> mmu_ptrs_;
  std::unique_ptr<StoreForwardNetwork> net_;
  std::vector<std::uint64_t> deliveries_;
  bool active_ = true;
  std::uint64_t next_id_ = 1;
};

TEST_F(StoreForwardPoolTest, WholeMessageHopsAllocateNothingOnceWarm) {
  build(0);
  allocs_per_hop([this] { traffic(256); });  // warm-up
  const std::size_t warm = deliveries_.size();
  EXPECT_EQ(allocs_per_hop([this] { traffic(256); }), 0.0)
      << "whole-message hops reached the heap";
  EXPECT_EQ(deliveries_.size(), 2 * warm);
}

TEST_F(StoreForwardPoolTest, PacketHopsAllocateNothingOnceWarm) {
  // 256 B is four full 64-B packets; 200 B leaves an 8-B tail packet.
  build(64);
  const auto both = [this] {
    traffic(256);
    traffic(200);
  };
  allocs_per_hop(both);  // warm-up
  const std::size_t warm = deliveries_.size();
  EXPECT_EQ(allocs_per_hop(both), 0.0) << "packet hops reached the heap";
  EXPECT_EQ(deliveries_.size(), 2 * warm);
}

TEST_F(StoreForwardPoolTest, ParkKickCycleAllocatesNothingOnceWarm) {
  build(64);
  allocs_per_hop([this] { park_kick_cycle(); });  // warm-up
  const std::size_t warm = deliveries_.size();
  EXPECT_EQ(allocs_per_hop([this] { park_kick_cycle(); }), 0.0)
      << "park/kick cycle reached the heap";
  EXPECT_EQ(deliveries_.size(), 2 * warm);
  EXPECT_EQ(net_->parked_messages(), 0u);
}

}  // namespace
}  // namespace tmc::net
