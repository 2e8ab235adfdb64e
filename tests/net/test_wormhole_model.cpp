// Differential model check of the pooled wormhole engine.
//
// WormholeNetwork keeps in-flight state in a generation-tagged slot pool and
// walks precomputed link paths -- all machinery in service of a simple
// contract: circuit-style occupancy of every link on the (deterministic)
// route for the pipelined transfer duration, destination-only buffering,
// FIFO links. The reference model here implements that contract the naive
// way -- one heap-allocated record per in-flight message, paths rebuilt
// hop-by-hop from the routing table, links in a std::map -- and both engines
// are driven through identical scripted workloads on identical (separate)
// simulations. Delivery times, delivery order, per-link statistics and
// aggregate counters must match exactly.
#include "net/network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "mem/mmu.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace tmc::net {
namespace {

using sim::SimTime;

/// Allocation-per-message wormhole with the same observable semantics as
/// WormholeNetwork: the executable specification the pooled engine is
/// checked against.
class ReferenceWormhole {
 public:
  using DeliveryHandler = std::function<void(const Message&, mem::Block)>;
  using ProgressGate = std::function<bool(const Message&)>;

  ReferenceWormhole(sim::Simulation& sim, const Topology& topo,
                    std::vector<mem::Mmu*> mmus, NetworkParams params)
      : sim_(sim),
        topo_(topo),
        routing_(topo),
        mmus_(std::move(mmus)),
        params_(params) {}

  void set_delivery_handler(DeliveryHandler handler) {
    deliver_ = std::move(handler);
  }
  void set_progress_gate(ProgressGate gate) { gate_ = std::move(gate); }

  void send(Message msg, mem::Block payload) {
    ++messages_;
    payload_bytes_ += msg.bytes;
    launch(msg, std::move(payload));
  }

  void kick() {
    std::vector<Pending> retry;
    retry.swap(parked_);
    for (auto& p : retry) launch(p.msg, std::move(p.payload));
  }

  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return payload_bytes_; }
  [[nodiscard]] std::uint64_t total_hops() const { return hops_; }
  [[nodiscard]] std::size_t parked_messages() const { return parked_.size(); }

  /// Per-link transfer counts and bytes in LinkId order, for comparison
  /// against the production engine's links.
  [[nodiscard]] std::map<LinkId, std::pair<std::uint64_t, std::uint64_t>>
  link_stats() const {
    std::map<LinkId, std::pair<std::uint64_t, std::uint64_t>> out;
    for (const auto& [id, link] : links_) {
      out[id] = {link.transfers(), link.bytes_carried()};
    }
    return out;
  }

 private:
  struct Pending {
    Message msg;
    mem::Block payload;
  };
  struct Flight {
    Message msg;
    mem::Block src;
    mem::Block dst;
  };

  std::vector<LinkId> walk_path(NodeId src, NodeId dst) {
    std::vector<LinkId> path;
    NodeId cur = src;
    while (cur != dst) {
      const NodeId nxt = routing_.next_hop(cur, dst);
      const auto lid = topo_.link_between(cur, nxt);
      EXPECT_TRUE(lid.has_value());
      path.push_back(*lid);
      cur = nxt;
    }
    return path;
  }

  void launch(Message msg, mem::Block payload) {
    if (msg.src_node == msg.dst_node) {
      ++delivered_;
      deliver_(msg, std::move(payload));
      return;
    }
    if (gate_ && !gate_(msg)) {
      parked_.push_back(Pending{msg, std::move(payload)});
      return;
    }
    auto flight = std::make_shared<Flight>();
    flight->msg = msg;
    flight->src = std::move(payload);
    mmus_[static_cast<std::size_t>(msg.dst_node)]->request(
        msg.bytes + params_.header_bytes,
        [this, flight](mem::Block dst_buf) {
          flight->dst = std::move(dst_buf);
          transmit(flight);
        });
  }

  void transmit(const std::shared_ptr<Flight>& flight) {
    const Message& msg = flight->msg;
    const std::vector<LinkId> path = walk_path(msg.src_node, msg.dst_node);
    SimTime start = sim_.now();
    for (const LinkId id : path) {
      start = std::max(start, links_[id].busy_until());
    }
    const auto unit = msg.bytes + params_.header_bytes;
    const SimTime duration =
        params_.per_hop_latency * static_cast<std::int64_t>(path.size()) +
        params_.per_byte * static_cast<std::int64_t>(unit);
    for (const LinkId id : path) {
      links_[id].reserve(start, duration, unit);
    }
    hops_ += path.size();
    sim_.schedule_at(start + duration, [this, flight] {
      ++delivered_;
      flight->src.release();
      deliver_(flight->msg, std::move(flight->dst));
    });
  }

  sim::Simulation& sim_;
  const Topology& topo_;
  RoutingTable routing_;
  std::vector<mem::Mmu*> mmus_;
  NetworkParams params_;
  std::map<LinkId, Link> links_;
  std::vector<Pending> parked_;
  DeliveryHandler deliver_;
  ProgressGate gate_;
  std::uint64_t messages_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t hops_ = 0;
};

struct SendSpec {
  SimTime at;
  NodeId src;
  NodeId dst;
  std::size_t bytes;
  std::uint32_t job = 0;
};

struct DeliveryRecord {
  std::int64_t at_ns;
  std::uint64_t msg_id;
  NodeId dst;
  std::size_t bytes;
  bool operator==(const DeliveryRecord&) const = default;
};

/// Runs one engine (production or reference) against a script on a fresh
/// simulation with per-node MMUs, returning the delivery log.
template <typename Net>
struct EngineRun {
  explicit EngineRun(const Topology& topo, NetworkParams params,
                     std::size_t node_memory)
      : topo_(topo), params_(params) {
    for (int i = 0; i < topo_.node_count(); ++i) {
      mmus_.push_back(std::make_unique<mem::Mmu>(sim_, node_memory));
      mmu_ptrs_.push_back(mmus_.back().get());
    }
    net_ = std::make_unique<Net>(sim_, topo_, mmu_ptrs_, params_);
    net_->set_delivery_handler([this](const Message& msg, mem::Block buffer) {
      log_.push_back(
          DeliveryRecord{sim_.now().ns(), msg.id, msg.dst_node, msg.bytes});
      buffer.release();
    });
  }

  void play(const std::vector<SendSpec>& script) {
    std::uint64_t next_id = 1;
    for (const SendSpec& spec : script) {
      sim_.schedule_at(spec.at, [this, spec, id = next_id++] {
        auto payload = mmus_[static_cast<std::size_t>(spec.src)]->try_alloc(1);
        ASSERT_TRUE(payload.has_value());
        Message msg;
        msg.id = id;
        msg.src_node = spec.src;
        msg.dst_node = spec.dst;
        msg.job = spec.job;
        msg.bytes = spec.bytes;
        net_->send(msg, std::move(*payload));
      });
    }
    sim_.run();
  }

  sim::Simulation sim_;
  const Topology& topo_;
  NetworkParams params_;
  std::vector<std::unique_ptr<mem::Mmu>> mmus_;
  std::vector<mem::Mmu*> mmu_ptrs_;
  std::unique_ptr<Net> net_;
  std::vector<DeliveryRecord> log_;
};

std::vector<SendSpec> random_script(const Topology& topo, std::uint64_t seed,
                                    int count) {
  std::mt19937_64 rng(seed);
  const int n = topo.node_count();
  std::uniform_int_distribution<int> node(0, n - 1);
  std::uniform_int_distribution<std::size_t> size(1, 2000);
  std::uniform_int_distribution<std::int64_t> when(0, 5'000'000);
  std::vector<SendSpec> script;
  for (int i = 0; i < count; ++i) {
    SendSpec spec;
    spec.at = SimTime::nanoseconds(when(rng));
    spec.src = static_cast<NodeId>(node(rng));
    spec.dst = static_cast<NodeId>(node(rng));  // may equal src: self-send
    spec.bytes = size(rng);
    script.push_back(spec);
  }
  return script;
}

void expect_equivalent(const Topology& topo, const std::vector<SendSpec>& script,
                       std::size_t node_memory = std::size_t{1} << 20) {
  NetworkParams params;  // production defaults: realistic T805 timings
  EngineRun<WormholeNetwork> pooled(topo, params, node_memory);
  EngineRun<ReferenceWormhole> reference(topo, params, node_memory);
  pooled.play(script);
  reference.play(script);

  EXPECT_EQ(pooled.log_, reference.log_);
  EXPECT_EQ(pooled.net_->messages_sent(), reference.net_->messages_sent());
  EXPECT_EQ(pooled.net_->messages_delivered(),
            reference.net_->messages_delivered());
  EXPECT_EQ(pooled.net_->bytes_sent(), reference.net_->bytes_sent());
  EXPECT_EQ(pooled.net_->total_hops(), reference.net_->total_hops());
  // Every message released its slot when its tail flit left the path.
  EXPECT_EQ(pooled.net_->worms_in_flight(), 0u);
  // Link-level agreement: same transfers and bytes on every physical link.
  for (const auto& [id, stats] : reference.net_->link_stats()) {
    const Link& link = pooled.net_->link(id);
    EXPECT_EQ(link.transfers(), stats.first) << "link " << id;
    EXPECT_EQ(link.bytes_carried(), stats.second) << "link " << id;
  }
}

TEST(WormholeModel, RandomTrafficOnRing) {
  const Topology topo = Topology::ring(8);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_equivalent(topo, random_script(topo, seed, 80));
  }
}

TEST(WormholeModel, RandomTrafficOnMesh) {
  const Topology topo = Topology::mesh(16);
  for (std::uint64_t seed = 10; seed <= 17; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_equivalent(topo, random_script(topo, seed, 80));
  }
}

TEST(WormholeModel, RandomTrafficOnHypercube) {
  const Topology topo = Topology::hypercube(8);
  for (std::uint64_t seed = 20; seed <= 27; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_equivalent(topo, random_script(topo, seed, 80));
  }
}

TEST(WormholeModel, FanInContention) {
  // Every node floods node 0 at the same instant: the final links serialise
  // and the FIFO service order decides delivery times. Both engines must
  // produce the identical schedule.
  const Topology topo = Topology::linear(8);
  std::vector<SendSpec> script;
  for (int round = 0; round < 5; ++round) {
    for (int src = 1; src < 8; ++src) {
      script.push_back(SendSpec{SimTime::microseconds(round * 50),
                                static_cast<NodeId>(src), 0, 500});
    }
  }
  expect_equivalent(topo, script);
}

TEST(WormholeModel, MemoryPressureBlocksIdentically) {
  // Node memory fits only a couple of destination buffers, so transfers
  // queue in the destination MMU; grant order (FIFO) must drive both
  // engines to the same serialisation.
  const Topology topo = Topology::ring(8);
  std::vector<SendSpec> script;
  for (int i = 0; i < 30; ++i) {
    script.push_back(SendSpec{SimTime::microseconds(i % 3),
                              static_cast<NodeId>(1 + (i % 7)), 0, 1500});
  }
  expect_equivalent(topo, script, /*node_memory=*/5'000);
}

TEST(WormholeModel, ProgressGateParksAndKickResumes) {
  // Job 7's traffic is frozen mid-run and thawed later; both engines must
  // park the same messages (holding no worm slot) and deliver the same
  // final schedule after the kick.
  const Topology topo = Topology::linear(4);
  NetworkParams params;
  EngineRun<WormholeNetwork> pooled(topo, params, std::size_t{1} << 20);
  EngineRun<ReferenceWormhole> reference(topo, params, std::size_t{1} << 20);

  auto drive = [](auto& run) {
    auto active = std::make_shared<bool>(false);
    run.net_->set_progress_gate([active](const Message& msg) {
      return msg.job != 7 || *active;
    });
    std::vector<SendSpec> script;
    for (int i = 0; i < 6; ++i) {
      SendSpec spec{SimTime::microseconds(10 * i), 0, 3, 200, 7};
      script.push_back(spec);
    }
    // Thaw at t = 200us.
    run.sim_.schedule_at(SimTime::microseconds(200), [&run, active] {
      *active = true;
      run.net_->kick();
    });
    run.play(script);
  };
  drive(pooled);
  drive(reference);

  EXPECT_EQ(pooled.log_, reference.log_);
  EXPECT_EQ(pooled.log_.size(), 6u);
  EXPECT_EQ(pooled.net_->parked_messages(), 0u);
  EXPECT_EQ(reference.net_->parked_messages(), 0u);
  // No delivery can predate the thaw.
  for (const auto& d : pooled.log_) {
    EXPECT_GE(d.at_ns, SimTime::microseconds(200).ns());
  }
}

TEST(WormholeModel, SelfSendsBypassTheNetwork) {
  const Topology topo = Topology::mesh(16);
  std::vector<SendSpec> script;
  for (int i = 0; i < 12; ++i) {
    script.push_back(SendSpec{SimTime::microseconds(i),
                              static_cast<NodeId>(i % 16),
                              static_cast<NodeId>(i % 16), 64});
  }
  NetworkParams params;
  EngineRun<WormholeNetwork> pooled(topo, params, std::size_t{1} << 20);
  pooled.play(script);
  EXPECT_EQ(pooled.log_.size(), 12u);
  EXPECT_EQ(pooled.net_->total_hops(), 0u);
  EXPECT_EQ(pooled.net_->peak_worms_in_flight(), 0u);  // no slot ever taken
  // Self-sends deliver at the send instant: the buffered path costs CPU
  // (charged by the node layer), not network time.
  for (std::size_t i = 0; i < pooled.log_.size(); ++i) {
    EXPECT_EQ(pooled.log_[i].at_ns,
              SimTime::microseconds(static_cast<std::int64_t>(i)).ns());
  }
}

TEST(WormholeModel, LinkPathsMatchHopByHopWalk) {
  // The precomputed link paths the engine transmits over must equal the
  // next_hop walk the reference performs, pair by pair.
  for (const auto& topo :
       {Topology::linear(8), Topology::ring(8), Topology::mesh(16),
        Topology::hypercube(8), Topology::tiled(TopologyKind::kMesh, 4, 2)}) {
    RoutingTable routing(topo);
    const int n = topo.node_count();
    const int tile = topo.tile_size();
    for (NodeId src = 0; src < n; ++src) {
      for (NodeId dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        if (src / tile != dst / tile) {
          // Different tiles of a tiled forest: unreachable by construction,
          // so there is no precomputed path (distance() asserts on these).
          EXPECT_TRUE(routing.link_path(src, dst).empty());
          continue;
        }
        std::vector<LinkId> walked;
        NodeId cur = src;
        while (cur != dst) {
          const NodeId nxt = routing.next_hop(cur, dst);
          walked.push_back(*topo.link_between(cur, nxt));
          cur = nxt;
        }
        const std::span<const LinkId> precomputed = routing.link_path(src, dst);
        ASSERT_EQ(precomputed.size(), walked.size());
        for (std::size_t i = 0; i < walked.size(); ++i) {
          EXPECT_EQ(precomputed[i], walked[i]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace tmc::net
