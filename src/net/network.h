// tmcsim -- message transport engines.
//
// Two engines share one interface:
//
//  * StoreForwardNetwork -- the paper's transport. A message crosses one
//    link at a time; before each hop the full message must be buffered at
//    the receiving node, so a mailbox buffer is requested from that node's
//    MMU (blocking under memory pressure) and a per-hop software cost is
//    charged to that node's CPU via the hop hook. This couples network load
//    to memory contention exactly as in the paper.
//
//  * WormholeNetwork -- the extension the paper suggests in section 5.2:
//    wormhole routing eliminates intermediate buffering. We approximate a
//    single-virtual-channel wormhole as circuit-style occupancy of every
//    link on the path for the (pipelined) transfer duration, with a buffer
//    allocated only at the destination.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "mem/mmu.h"
#include "net/link.h"
#include "net/message.h"
#include "net/router.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "sim/simulation.h"
#include "sim/slot_pool.h"

namespace tmc::net {

/// Timing and framing parameters of the transport.
struct NetworkParams {
  /// Transfer time per payload byte. T805 links run at 20 Mbit/s with an
  /// effective unidirectional payload rate of ~1.74 MB/s => ~575 ns/byte.
  sim::SimTime per_byte = sim::SimTime::nanoseconds(575);
  /// Fixed per-hop latency (link startup + switch transit).
  sim::SimTime per_hop_latency = sim::SimTime::microseconds(5);
  /// Protocol header added to every message buffer.
  std::size_t header_bytes = 16;
  /// Store-and-forward fragmentation: 0 forwards whole messages (the
  /// paper's mailbox package); > 0 splits payloads into packets of this
  /// size that pipeline across hops independently and reassemble at the
  /// destination (bench A11's virtual-cut-through middle ground).
  std::size_t packet_bytes = 0;
};

/// Failure state of the machine as the transport sees it. Implemented by
/// fault::FaultManager; null on every fault-free run, so each query site is
/// one untaken branch. should_drop() may consume seeded randomness (it is
/// called at most once per injected message, at the source).
class FaultPlane {
 public:
  virtual ~FaultPlane() = default;
  [[nodiscard]] virtual bool node_alive(NodeId node) const = 0;
  /// False while the link (or either endpoint node) is down; traffic parks
  /// and is re-kicked on repair.
  [[nodiscard]] virtual bool link_usable(LinkId link) const = 0;
  /// True if this freshly injected message should be lost.
  virtual bool should_drop(const Message& msg) = 0;
};

/// Common interface and state of the transport engines: the machine's
/// wiring, its router, one MMU per node and one Link per directed edge.
class Network {
 public:
  /// Invoked at the destination node with the message and the buffer that
  /// holds it; the receiver owns the buffer (frees it on consumption).
  using DeliveryHandler =
      std::function<void(const Message&, mem::Block buffer)>;
  /// Invoked at every node a transfer unit (whole message or packet)
  /// arrives at -- intermediate hops and the destination; the node layer
  /// charges CPU time for buffer management. `bytes` is the payload of the
  /// unit that just crossed the link (a fragment for packetised messages).
  using HopHook =
      std::function<void(NodeId node, const Message&, std::size_t bytes)>;

  virtual ~Network() = default;

  /// Gate consulted before each hop begins: a false return parks the
  /// message where it is (its buffer stays held at that node) until kick()
  /// re-enables it. Used by gang scheduling to freeze suspended jobs'
  /// communication -- on the paper's system the mailbox daemons of a
  /// descheduled job stop running, and its partially-forwarded messages
  /// keep occupying intermediate-node memory.
  using ProgressGate = std::function<bool(const Message&)>;

  void set_delivery_handler(DeliveryHandler handler) {
    deliver_ = std::move(handler);
  }
  void set_hop_hook(HopHook hook) { hop_hook_ = std::move(hook); }
  void set_progress_gate(ProgressGate gate) { gate_ = std::move(gate); }
  /// Optional timeline recorder (null = off): every link occupancy becomes
  /// a span on track `link_track_base + link_id`; message parks (gang gate
  /// closed) become instants on `net_track`.
  void set_timeline(obs::Timeline* timeline, obs::TrackId link_track_base,
                    obs::TrackId net_track) {
    timeline_ = timeline;
    link_base_ = link_track_base;
    net_track_ = net_track;
    if (timeline_ != nullptr) {
      name_xfer_ = timeline_->intern("xfer");
      name_park_ = timeline_->intern("park");
    }
  }

  /// Optional metric handle (null = off) counting park events -- messages
  /// frozen mid-route because their job's gang turn ended.
  void set_metrics(obs::Counter* park_events) { park_events_ = park_events; }

  /// Invoked when a message is lost to a fault (dropped at injection or at
  /// a dead destination); the comm layer owns the retry machinery.
  using LossHook = std::function<void(const Message&)>;

  /// Optional fault plane (null = reliable hardware; must outlive us).
  void set_fault_plane(FaultPlane* plane) { fault_ = plane; }
  void set_loss_hook(LossHook hook) { loss_ = std::move(hook); }

  /// Re-attempts every parked unit that can move now (a job's turn began,
  /// or a link or router came back). Units still held by the progress gate
  /// or a downed link keep their places in the parked order, unretried, so
  /// a unit parks once per stop.
  virtual void kick() {}

  [[nodiscard]] bool may_progress(const Message& msg) const {
    return !gate_ || gate_(msg);
  }

  /// Injects a message. `payload` is the buffer already allocated at the
  /// source node by the sender (self-sends are delivered from this buffer,
  /// passing through the same buffered-mailbox path as remote sends). Only
  /// a message marked `unstaged` may come without one.
  virtual void send(Message msg, mem::Block payload) = 0;

  /// Per-link accessors (one Link per directed edge).
  [[nodiscard]] const Link& link(LinkId id) const {
    return links_.at(static_cast<std::size_t>(id));
  }
  [[nodiscard]] int link_count() const {
    return static_cast<int>(links_.size());
  }
  /// Highest utilisation over all links at time `now`.
  [[nodiscard]] double max_link_utilization(sim::SimTime now) const;

  /// The router pricing this network's shortest paths (distance queries
  /// drive e.g. nearest-victim steal selection).
  [[nodiscard]] const Router& routing() const { return routing_; }

  // --- statistics ------------------------------------------------------
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return payload_bytes_; }
  [[nodiscard]] std::uint64_t total_hops() const { return hops_; }
  [[nodiscard]] std::uint64_t in_flight() const { return messages_ - delivered_; }
  /// Units parked by a closed gate or a downed link (store-and-forward
  /// counts packets); the watchdog diagnostic reads this to name a stall.
  [[nodiscard]] virtual std::size_t parked_messages() const { return 0; }

 protected:
  /// `mmus[i]` is node i's allocator; must outlive the network. Throws
  /// std::invalid_argument unless there is one MMU per node.
  Network(sim::Simulation& sim, const Topology& topo,
          std::vector<mem::Mmu*> mmus, NetworkParams params);

  /// Counts `msg` in, or drops it at injection if the fault plane says so,
  /// reporting the loss to the comm layer (the caller returning releases
  /// the payload). False when dropped.
  [[nodiscard]] bool admit(const Message& msg,
                           [[maybe_unused]] const mem::Block& payload) {
    assert((payload.valid() || msg.unstaged) &&
           "only an unstaged message may come without a source buffer");
    if (fault_ != nullptr && fault_->should_drop(msg)) {
      if (loss_) loss_(msg);
      return false;
    }
    ++messages_;
    payload_bytes_ += msg.bytes;
    return true;
  }
  /// Re-attempts every parked entry through `retry`, draining the list via
  /// `scratch` and handing the warmed buffer back, so kicks stay alloc-free.
  template <typename T, typename Retry>
  static void drain_parked(std::vector<T>& parked, std::vector<T>& scratch,
                           Retry&& retry) {
    scratch.swap(parked);  // scratch is empty between calls
    for (T& entry : scratch) retry(entry);
    scratch.clear();
    if (parked.empty() && parked.capacity() < scratch.capacity()) {
      parked.swap(scratch);
    }
  }
  /// Span for one link occupancy [start, start+dur); no-op with no timeline.
  void record_transfer(LinkId link, sim::SimTime start, sim::SimTime dur,
                       const Message& msg) {
    if (timeline_ == nullptr) return;
    timeline_->span(link_base_ + static_cast<obs::TrackId>(link), name_xfer_,
                    start, dur, static_cast<double>(msg.id));
  }
  /// Park instant + counter bump; no-op when neither consumer is attached.
  void record_park(sim::SimTime at, const Message& msg) {
    obs::bump(park_events_);
    if (timeline_ != nullptr) {
      timeline_->instant(net_track_, name_park_, at,
                         static_cast<double>(msg.id));
    }
  }

  sim::Simulation& sim_;
  Router routing_;
  std::vector<mem::Mmu*> mmus_;
  NetworkParams params_;
  std::vector<Link> links_;
  DeliveryHandler deliver_;
  HopHook hop_hook_;
  ProgressGate gate_;
  obs::Timeline* timeline_ = nullptr;
  obs::TrackId link_base_ = 0;
  obs::TrackId net_track_ = 0;
  obs::NameId name_xfer_ = 0;
  obs::NameId name_park_ = 0;
  obs::Counter* park_events_ = nullptr;
  FaultPlane* fault_ = nullptr;
  LossHook loss_;
  std::uint64_t messages_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t hops_ = 0;
};

/// Store-and-forward engine (the Transputer's switching mode).
///
/// Each transfer unit (a whole message or one packet) holds one pool slot
/// from send() until just before its delivery or reassembly; its callbacks
/// capture only {this, handle}, so a warm network forwards allocation-free.
class StoreForwardNetwork final : public Network {
 public:
  StoreForwardNetwork(sim::Simulation& sim, const Topology& topo,
                      std::vector<mem::Mmu*> mmus, NetworkParams params = {})
      : Network(sim, topo, std::move(mmus), params) {}

  void send(Message msg, mem::Block payload) override;
  void kick() override;

  [[nodiscard]] std::size_t parked_messages() const override {
    return parked_.size();
  }

 private:
  /// One whole message or packet, fully buffered at `at`.
  struct Unit {
    Message msg;
    mem::Block held;      // buffer at `at`; none for a packet at the source
    mem::Block next_buf;  // granted at the next hop, carried across
    std::size_t bytes = 0;  // payload; below msg.bytes only for a packet
    NodeId at = kInvalidNode;
    Topology::Neighbor hop{};  // the next node and the link to it
    sim::SlotHandle reassembly;  // the packet's message; unused when whole
  };
  /// Both ends of a fragmented message.
  struct Reassembly {
    Message msg;
    mem::Block source;  // whole-message buffer, pinned until `unsent` is 0
    int unsent = 0;     // packets that have not finished their first hop
    int packets_remaining = 0;  // packets not yet at the destination
    bool alloc_requested = false;
    mem::Block buffer;                  // full-message buffer (async alloc)
    std::vector<mem::Block> fragments;  // packet buffers pending the alloc
  };

  /// Moves a unit buffered at its node one hop on, or delivers it.
  void forward(sim::SlotHandle unit);
  /// The unit's job is frozen, or its next link (`hop`, already routed) or
  /// the router behind it is down: it parks, or stays parked.
  [[nodiscard]] bool blocked(const Unit& u) const {
    return !may_progress(u.msg) ||
           (fault_ != nullptr && !fault_->link_usable(u.hop.link));
  }
  void arrive_fragment(sim::SlotHandle reassembly, mem::Block held);
  void try_finish_reassembly(sim::SlotHandle reassembly);

  sim::SlotPool<Unit> units_;
  sim::SlotPool<Reassembly> reassemblies_;
  std::vector<sim::SlotHandle> parked_;
  std::vector<sim::SlotHandle> kick_scratch_;  // see drain_parked()
};

/// Wormhole-routed engine (paper's suggested improvement; bench A2).
///
/// In-flight state lives in a sim::SlotPool: each message occupies one Worm
/// slot holding its Message, source payload and destination buffer (the
/// link ids of its path are static per (src, dst) and are recomputed
/// closed-form into a reused scratch vector at transmit time). The pool is
/// pre-reserved per topology, a worm's slot is released in O(1) when its
/// tail flit leaves the path, and every callback on the advance path
/// captures only {this, handle} -- inline in UniqueFunction's small buffer
/// -- so launching, transmitting and completing a message perform zero heap
/// allocations once warm.
class WormholeNetwork final : public Network {
 public:
  /// Throws std::invalid_argument unless `packet_bytes` is 0 (worms are
  /// whole messages).
  WormholeNetwork(sim::Simulation& sim, const Topology& topo,
                  std::vector<mem::Mmu*> mmus, NetworkParams params = {});

  void send(Message msg, mem::Block payload) override;
  void kick() override;

  // --- pool observability (tests, perf gates) ---------------------------
  /// Worm slots currently occupied (messages between launch and tail-flit
  /// departure; parked and self-send messages hold no slot).
  [[nodiscard]] std::size_t worms_in_flight() const {
    return worms_.live_count();
  }
  [[nodiscard]] std::size_t peak_worms_in_flight() const {
    return worms_.peak_live();
  }
  /// Slots the pool can hold without regrowing.
  [[nodiscard]] std::size_t worm_pool_capacity() const {
    return worms_.capacity();
  }
  /// Times the pool had to regrow beyond the per-topology reservation.
  [[nodiscard]] std::uint64_t worm_pool_growths() const {
    return worms_.growths();
  }
  [[nodiscard]] std::size_t parked_messages() const override {
    return parked_.size();
  }

 private:
  struct Pending {
    Message msg;
    mem::Block payload;
  };
  /// One in-flight message: circuit-style occupancy of its whole path.
  struct Worm {
    Message msg;
    mem::Block src;  // source payload, released on tail-flit departure
    mem::Block dst;  // destination buffer, handed to delivery
  };

  void launch(Message msg, mem::Block payload);
  /// The message's job is frozen, or a link on its path is down: it parks,
  /// or stays parked.
  [[nodiscard]] bool blocked(const Message& msg);
  void transmit(sim::SlotHandle worm, mem::Block dst);
  void complete(sim::SlotHandle worm);

  /// Reused by transmit() for the closed-form link path (no allocation warm).
  std::vector<LinkId> path_scratch_;
  sim::SlotPool<Worm> worms_;
  std::vector<Pending> parked_;
  std::vector<Pending> kick_scratch_;  // see drain_parked()
};

}  // namespace tmc::net
