// Differential model check of the pooled store-and-forward engine.
//
// StoreForwardNetwork keeps each transfer unit (whole message or packet) in
// a slot pool and hands its callbacks only a handle. The reference below is
// the engine that design replaced: every hop captures the unit's state in
// its MMU-grant and link-done closures, parked units are copied records,
// packets pin the source buffer through a shared_ptr and reassembly state
// sits in a hash map keyed by message id. It is the executable
// specification. Both engines are driven through identical seeded scripts
// -- sends (staged and unstaged, some from the delivery handler), gate
// freezes and thaws, link failures and repairs, tight and ample memory --
// on separate simulations, and everything observable must match: the
// delivery, hop and loss logs, per-link and per-MMU statistics, parked
// counts along the way, and the event kernel's scheduled and fired counts.
#include "net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/mmu.h"
#include "net/topology.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace tmc::net {
namespace {

using sim::SimTime;

/// Closure-per-hop store-and-forward engine with the same observable
/// semantics as StoreForwardNetwork.
class ReferenceStoreForward final : public Network {
 public:
  ReferenceStoreForward(sim::Simulation& sim, const Topology& topo,
                        std::vector<mem::Mmu*> mmus, NetworkParams params)
      : Network(sim, topo, std::move(mmus), params) {}

  void send(Message msg, mem::Block payload) override {
    if (!admit(msg, payload)) return;
    const std::size_t pkt = params_.packet_bytes;
    if (msg.src_node == msg.dst_node || pkt == 0 || msg.bytes <= pkt) {
      forward(msg, msg.src_node, std::move(payload), msg.bytes, nullptr);
      return;
    }
    const int packets = static_cast<int>((msg.bytes + pkt - 1) / pkt);
    Reassembly& reassembly = reassembly_[msg.id];
    reassembly.msg = msg;
    reassembly.packets_remaining = packets;
    auto hold = std::make_shared<mem::Block>(std::move(payload));
    std::size_t remaining = msg.bytes;
    for (int i = 0; i < packets; ++i) {
      const std::size_t fragment = std::min(pkt, remaining);
      remaining -= fragment;
      forward(msg, msg.src_node, mem::Block{}, fragment, hold);
    }
  }

  void kick() override {
    std::vector<Parked> retry;
    retry.swap(parked_);
    for (auto& p : retry) {
      forward(p.msg, p.at, std::move(p.held), p.fragment_bytes,
              std::move(p.source_hold));
    }
  }

  [[nodiscard]] std::size_t parked_messages() const override {
    return parked_.size();
  }

 private:
  struct Parked {
    Message msg;
    NodeId at;
    mem::Block held;
    std::size_t fragment_bytes;
    std::shared_ptr<mem::Block> source_hold;
  };
  struct Reassembly {
    Message msg;
    int packets_remaining = 0;
    bool alloc_requested = false;
    std::optional<mem::Block> buffer;
    std::vector<mem::Block> fragments;
  };

  void forward(Message msg, NodeId at, mem::Block held,
               std::size_t fragment_bytes,
               std::shared_ptr<mem::Block> source_hold) {
    if (at == msg.dst_node) {
      if (fragment_bytes == msg.bytes) {
        ++delivered_;
        deliver_(msg, std::move(held));
      } else {
        arrive_fragment(msg, std::move(held));
      }
      return;
    }
    if (!may_progress(msg)) {
      record_park(sim_.now(), msg);
      parked_.push_back(Parked{msg, at, std::move(held), fragment_bytes,
                               std::move(source_hold)});
      return;
    }
    const Topology::Neighbor hop = routing_.next_hop_link(at, msg.dst_node);
    const NodeId next = hop.node;
    if (fault_ != nullptr && !fault_->link_usable(hop.link)) {
      record_park(sim_.now(), msg);
      parked_.push_back(Parked{msg, at, std::move(held), fragment_bytes,
                               std::move(source_hold)});
      return;
    }
    mmus_[static_cast<std::size_t>(next)]->request(
        fragment_bytes + params_.header_bytes,
        [this, msg, next, fragment_bytes, link_id = hop.link,
         held = std::move(held),
         source_hold = std::move(source_hold)](mem::Block next_buf) mutable {
          Link& link = links_[static_cast<std::size_t>(link_id)];
          const SimTime xfer =
              params_.per_hop_latency +
              params_.per_byte * static_cast<std::int64_t>(
                                     fragment_bytes + params_.header_bytes);
          const SimTime done = link.reserve(
              sim_.now(), xfer, fragment_bytes + params_.header_bytes);
          record_transfer(link_id, done - xfer, xfer, msg);
          sim_.schedule_at(
              done, [this, msg, next, fragment_bytes, held = std::move(held),
                     source_hold = std::move(source_hold),
                     next_buf = std::move(next_buf)]() mutable {
                ++hops_;
                held.release();
                source_hold.reset();
                if (hop_hook_) hop_hook_(next, msg, fragment_bytes);
                forward(msg, next, std::move(next_buf), fragment_bytes,
                        nullptr);
              });
        });
  }

  void arrive_fragment(const Message& msg, mem::Block held) {
    Reassembly& reassembly = reassembly_.at(msg.id);
    if (!reassembly.alloc_requested) {
      reassembly.alloc_requested = true;
      mmus_[static_cast<std::size_t>(msg.dst_node)]->request(
          msg.bytes + params_.header_bytes,
          [this, id = msg.id](mem::Block big) {
            const auto entry = reassembly_.find(id);
            if (entry == reassembly_.end()) return;
            entry->second.buffer = std::move(big);
            entry->second.fragments.clear();
            try_finish_reassembly(id);
          });
    }
    if (reassembly.buffer.has_value()) {
      held.release();
    } else {
      reassembly.fragments.push_back(std::move(held));
    }
    --reassembly.packets_remaining;
    try_finish_reassembly(msg.id);
  }

  void try_finish_reassembly(std::uint64_t id) {
    const auto it = reassembly_.find(id);
    if (it == reassembly_.end()) return;
    Reassembly& reassembly = it->second;
    if (reassembly.packets_remaining > 0 || !reassembly.buffer.has_value()) {
      return;
    }
    const Message msg = reassembly.msg;
    mem::Block buffer = std::move(*reassembly.buffer);
    reassembly_.erase(it);
    ++delivered_;
    deliver_(msg, std::move(buffer));
  }

  std::vector<Parked> parked_;
  std::unordered_map<std::uint64_t, Reassembly> reassembly_;
};

/// Links go down and come back on script; nodes never die. Drops are a
/// pure function of the message id, so both engines lose the same ones.
class ScriptedFaults final : public FaultPlane {
 public:
  explicit ScriptedFaults(int links)
      : down_(static_cast<std::size_t>(links), 0) {}
  [[nodiscard]] bool node_alive(NodeId) const override { return true; }
  [[nodiscard]] bool link_usable(LinkId link) const override {
    return down_[static_cast<std::size_t>(link)] == 0;
  }
  bool should_drop(const Message& msg) override {
    return msg.job != 0 && msg.id % 23 == 0;
  }
  void set_down(LinkId link, bool down) {
    down_[static_cast<std::size_t>(link)] = down ? 1 : 0;
  }

 private:
  std::vector<char> down_;
};

enum class Action { kSend, kFreeze, kThaw, kLinkDown, kLinkUp };

struct Step {
  SimTime at;
  Action action = Action::kSend;
  NodeId src = 0;
  NodeId dst = 0;
  std::size_t bytes = 0;
  std::uint32_t job = 0;  // kSend, kFreeze, kThaw
  LinkId link = 0;        // kLinkDown, kLinkUp
};

struct Scenario {
  Topology topo;
  std::size_t packet_bytes = 0;
  std::size_t node_memory = std::size_t{1} << 20;
  bool faults = false;
  std::vector<Step> script;
};

struct Record {
  std::int64_t at_ns;
  std::uint64_t msg_id;
  NodeId node;
  std::size_t bytes;
  /// Bytes in use over all MMUs, so the log also pins when each buffer
  /// is released relative to the hook or handler that wrote the record.
  std::size_t memory;
  bool operator==(const Record&) const = default;
};

constexpr std::uint32_t kJobs = 3;

/// One engine on a fresh simulation with per-node MMUs, playing a script.
/// Every delivery holds its buffer for a while (memory pressure), and every
/// fifth one replies from the delivery handler.
template <typename Net>
class EngineRun {
 public:
  explicit EngineRun(const Scenario& scenario)
      : faults_(scenario.topo.link_count()) {
    const Topology& topo = scenario.topo;
    for (int i = 0; i < topo.node_count(); ++i) {
      mmus_.push_back(std::make_unique<mem::Mmu>(sim_, scenario.node_memory));
      mmu_ptrs_.push_back(mmus_.back().get());
    }
    NetworkParams params;
    params.packet_bytes = scenario.packet_bytes;
    net_ = std::make_unique<Net>(sim_, topo, mmu_ptrs_, params);
    if (scenario.faults) net_->set_fault_plane(&faults_);
    net_->set_progress_gate(
        [this](const Message& msg) { return frozen_[msg.job] == 0; });
    net_->set_hop_hook(
        [this](NodeId node, const Message& msg, std::size_t bytes) {
          hops_.push_back(
              Record{sim_.now().ns(), msg.id, node, bytes, memory_in_use()});
        });
    net_->set_loss_hook(
        [this](const Message& msg) { lost_.push_back(msg.id); });
    net_->set_delivery_handler([this](const Message& msg, mem::Block buffer) {
      log_.push_back(Record{sim_.now().ns(), msg.id, msg.dst_node,
                            buffer.size(), memory_in_use()});
      sim_.schedule(SimTime::microseconds(40),
                    [held = std::move(buffer)]() mutable { held.release(); });
      if (msg.id % 5 == 0) {
        inject(msg.dst_node, msg.src_node, msg.bytes / 2 + 1, msg.job);
      }
    });
  }

  EngineRun(const EngineRun&) = delete;
  EngineRun& operator=(const EngineRun&) = delete;

  ~EngineRun() {
    // A run may end wedged with units in flight: drain what still owns
    // Blocks to a fixed point before the network and MMUs go away.
    bool again = true;
    while (again) {
      again = sim_.discard_pending() > 0;
      for (auto& mmu : mmus_) again = mmu->discard_pending() > 0 || again;
    }
  }

  void play(const std::vector<Step>& script) {
    for (const Step& step : script) {
      sim_.schedule_at(step.at, [this, step] { apply(step); });
    }
    sim_.run();
    parked_trace_.push_back(net_->parked_messages());
  }

  sim::Simulation sim_;
  std::vector<std::unique_ptr<mem::Mmu>> mmus_;
  std::vector<mem::Mmu*> mmu_ptrs_;
  ScriptedFaults faults_;
  std::unique_ptr<Net> net_;
  std::vector<char> frozen_ = std::vector<char>(kJobs + 1, 0);
  std::vector<Record> log_;
  std::vector<Record> hops_;
  std::vector<std::uint64_t> lost_;
  std::vector<std::size_t> parked_trace_;
  std::uint64_t next_id_ = 1;

 private:
  [[nodiscard]] std::size_t memory_in_use() const {
    std::size_t used = 0;
    for (const auto& mmu : mmus_) used += mmu->bytes_used();
    return used;
  }

  void apply(const Step& step) {
    switch (step.action) {
      case Action::kSend:
        inject(step.src, step.dst, step.bytes, step.job);
        break;
      case Action::kFreeze:
        frozen_[step.job] = 1;
        break;
      case Action::kThaw:
        frozen_[step.job] = 0;
        net_->kick();
        break;
      case Action::kLinkDown:
        faults_.set_down(step.link, true);
        break;
      case Action::kLinkUp:
        faults_.set_down(step.link, false);
        net_->kick();
        break;
    }
    parked_trace_.push_back(net_->parked_messages());
  }

  /// Stages the payload at the source when it fits; otherwise (and for
  /// every seventh message) the send rides unstaged.
  void inject(NodeId src, NodeId dst, std::size_t bytes, std::uint32_t job) {
    Message msg;
    msg.id = next_id_++;
    msg.src_node = src;
    msg.dst_node = dst;
    msg.job = job;
    msg.bytes = bytes;
    std::optional<mem::Block> payload;
    if (msg.id % 7 != 0) {
      payload = mmus_[static_cast<std::size_t>(src)]->try_alloc(bytes);
    }
    msg.unstaged = !payload.has_value();
    net_->send(msg, payload ? std::move(*payload) : mem::Block{});
  }
};

std::vector<Step> random_script(const Topology& topo, std::uint64_t seed,
                                int count, bool faults) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> node(0, topo.node_count() - 1);
  std::uniform_int_distribution<int> link(0, topo.link_count() - 1);
  std::uniform_int_distribution<std::size_t> size(1, 1500);
  std::uniform_int_distribution<std::uint32_t> job(0, kJobs);
  std::uniform_int_distribution<std::int64_t> when(0, 4'000'000);
  std::uniform_int_distribution<std::int64_t> outage(50'000, 800'000);
  std::uniform_int_distribution<int> kind(0, 9);
  std::vector<Step> script;
  for (int i = 0; i < count; ++i) {
    Step step;
    step.at = SimTime::nanoseconds(when(rng));
    const int k = kind(rng);
    if (k == 0) {
      // A gang turn ends and a later one begins.
      step.action = Action::kFreeze;
      step.job = 1 + job(rng) % kJobs;
      Step thaw = step;
      thaw.action = Action::kThaw;
      thaw.at = step.at + SimTime::nanoseconds(outage(rng));
      script.push_back(step);
      script.push_back(thaw);
    } else if (k == 1 && faults) {
      step.action = Action::kLinkDown;
      step.link = static_cast<LinkId>(link(rng));
      Step repair = step;
      repair.action = Action::kLinkUp;
      repair.at = step.at + SimTime::nanoseconds(outage(rng));
      script.push_back(step);
      script.push_back(repair);
    } else {
      step.src = static_cast<NodeId>(node(rng));
      step.dst = static_cast<NodeId>(node(rng));  // may equal src
      step.bytes = size(rng);
      step.job = job(rng);
      script.push_back(step);
    }
  }
  return script;
}

void expect_equivalent(const Scenario& scenario) {
  EngineRun<StoreForwardNetwork> pooled(scenario);
  EngineRun<ReferenceStoreForward> reference(scenario);
  pooled.play(scenario.script);
  reference.play(scenario.script);

  EXPECT_EQ(pooled.log_, reference.log_);
  EXPECT_EQ(pooled.hops_, reference.hops_);
  EXPECT_EQ(pooled.lost_, reference.lost_);
  EXPECT_EQ(pooled.parked_trace_, reference.parked_trace_);
  EXPECT_EQ(pooled.net_->messages_sent(), reference.net_->messages_sent());
  EXPECT_EQ(pooled.net_->messages_delivered(),
            reference.net_->messages_delivered());
  EXPECT_EQ(pooled.net_->bytes_sent(), reference.net_->bytes_sent());
  EXPECT_EQ(pooled.net_->total_hops(), reference.net_->total_hops());
  EXPECT_EQ(pooled.sim_.scheduled_events(), reference.sim_.scheduled_events());
  EXPECT_EQ(pooled.sim_.fired_events(), reference.sim_.fired_events());
  EXPECT_EQ(pooled.sim_.now(), reference.sim_.now());
  for (int id = 0; id < scenario.topo.link_count(); ++id) {
    const Link& a = pooled.net_->link(id);
    const Link& b = reference.net_->link(id);
    EXPECT_EQ(a.transfers(), b.transfers()) << "link " << id;
    EXPECT_EQ(a.bytes_carried(), b.bytes_carried()) << "link " << id;
    EXPECT_EQ(a.busy_until(), b.busy_until()) << "link " << id;
    EXPECT_EQ(a.queueing_time(), b.queueing_time()) << "link " << id;
  }
  for (std::size_t i = 0; i < pooled.mmus_.size(); ++i) {
    const mem::Mmu& a = *pooled.mmus_[i];
    const mem::Mmu& b = *reference.mmus_[i];
    EXPECT_EQ(a.high_watermark(), b.high_watermark()) << "mmu " << i;
    EXPECT_EQ(a.blocked_count(), b.blocked_count()) << "mmu " << i;
    EXPECT_EQ(a.alloc_count(), b.alloc_count()) << "mmu " << i;
    EXPECT_EQ(a.bytes_used(), b.bytes_used()) << "mmu " << i;
    EXPECT_EQ(a.pending_requests(), b.pending_requests()) << "mmu " << i;
  }
}

/// Every topology x packet size x memory budget x fault setting, a few
/// seeds each.
void sweep(const Topology& topo, std::uint64_t first_seed) {
  std::uint64_t seed = first_seed;
  for (const std::size_t packet : {std::size_t{0}, std::size_t{64},
                                   std::size_t{500}}) {
    for (const std::size_t memory :
         {std::size_t{1} << 20, std::size_t{6'000}}) {
      for (const bool faults : {false, true}) {
        for (int rep = 0; rep < 2; ++rep, ++seed) {
          SCOPED_TRACE("packet " + std::to_string(packet) + " memory " +
                       std::to_string(memory) + " faults " +
                       std::to_string(faults) + " seed " +
                       std::to_string(seed));
          Scenario scenario{topo, packet, memory, faults,
                            random_script(topo, seed, 60, faults)};
          expect_equivalent(scenario);
        }
      }
    }
  }
}

TEST(StoreForwardModel, Linear) { sweep(Topology::linear(8), 100); }
TEST(StoreForwardModel, Ring) { sweep(Topology::ring(8), 200); }
TEST(StoreForwardModel, Mesh) { sweep(Topology::mesh(16), 300); }
TEST(StoreForwardModel, Hypercube) { sweep(Topology::hypercube(8), 400); }

TEST(StoreForwardModel, FanInUnderMemoryPressure) {
  // Every node floods node 0 at once through a memory budget that fits a
  // few buffers: MMU queues, not links, decide the order.
  for (const std::size_t packet : {std::size_t{0}, std::size_t{64},
                                   std::size_t{500}}) {
    SCOPED_TRACE("packet " + std::to_string(packet));
    Scenario scenario{Topology::linear(8), packet, 4'000, false, {}};
    for (int round = 0; round < 4; ++round) {
      for (int src = 1; src < 8; ++src) {
        Step step;
        step.at = SimTime::microseconds(round * 30);
        step.src = static_cast<NodeId>(src);
        step.dst = 0;
        step.bytes = 700 + static_cast<std::size_t>(src);
        step.job = 1;
        scenario.script.push_back(step);
      }
    }
    expect_equivalent(scenario);
  }
}

}  // namespace
}  // namespace tmc::net
