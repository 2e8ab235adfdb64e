#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace tmc::net {

Network::Network(sim::Simulation& sim, const Topology& topo,
                 std::vector<mem::Mmu*> mmus, NetworkParams params)
    : sim_(sim),
      routing_(topo),
      mmus_(std::move(mmus)),
      params_(params),
      links_(static_cast<std::size_t>(topo.link_count())) {
  if (static_cast<int>(mmus_.size()) != topo.node_count()) {
    throw std::invalid_argument("network needs one MMU per node");
  }
}

double Network::max_link_utilization(sim::SimTime now) const {
  double best = 0.0;
  for (const auto& link : links_) {
    best = std::max(best, link.utilization(now));
  }
  return best;
}

void StoreForwardNetwork::send(Message msg, mem::Block payload) {
  if (!admit(msg, payload)) return;
  const std::size_t pkt = params_.packet_bytes;
  const bool whole =
      msg.src_node == msg.dst_node || pkt == 0 || msg.bytes <= pkt;
  sim::SlotHandle reassembly;
  if (!whole) {
    // Fragment: packets pipeline across hops independently and reassemble
    // at the destination. The source's whole-message buffer stays pinned
    // until the last packet has left the source node.
    const int packets = static_cast<int>((msg.bytes + pkt - 1) / pkt);
    reassembly = reassemblies_.acquire();
    Reassembly& r = reassemblies_[reassembly.index];
    // Field by field: the fragment vector keeps its capacity across reuse.
    r.msg = msg;
    r.source = std::move(payload);
    r.unsent = r.packets_remaining = packets;
    r.alloc_requested = false;
  }
  std::size_t remaining = msg.bytes;
  do {
    const std::size_t bytes = whole ? remaining : std::min(pkt, remaining);
    remaining -= bytes;
    const sim::SlotHandle unit = units_.acquire();
    // A packet holds no buffer at the source: `payload` was moved above.
    units_[unit.index] =
        Unit{msg, std::move(payload), {}, bytes, msg.src_node, {}, reassembly};
    forward(unit);
  } while (remaining > 0);
}

void StoreForwardNetwork::kick() {
  drain_parked(parked_, kick_scratch_, [this](sim::SlotHandle unit) {
    if (blocked(units_[unit.index])) {
      parked_.push_back(unit);  // keeps its place without parking again
    } else {
      forward(unit);
    }
  });
}

void StoreForwardNetwork::forward(sim::SlotHandle unit) {
  assert(units_.live(unit));
  Unit& u = units_[unit.index];
  if (u.at == u.msg.dst_node) {
    assert(deliver_ && "no delivery handler installed");
    // The slot is free before delivery or reassembly, so a send from the
    // delivery handler can reuse it.
    Unit arrived = std::move(u);
    units_.retire(unit.index);
    if (arrived.bytes != arrived.msg.bytes) {
      arrive_fragment(arrived.reassembly, std::move(arrived.held));
    } else {
      ++delivered_;
      deliver_(arrived.msg, std::move(arrived.held));
    }
    return;
  }
  // The owning job is descheduled (its daemons are not running), or the
  // next link or the router behind it is down: the unit waits here,
  // pinning its buffer at this node, until kick(). One adjacency scan
  // yields both the next node and the directed link.
  u.hop = routing_.next_hop_link(u.at, u.msg.dst_node);
  if (blocked(u)) {
    record_park(sim_.now(), u.msg);
    parked_.push_back(unit);
    return;
  }
  // Store-and-forward: the whole unit must be buffered at the next node
  // before it can leave this one. Under memory pressure this request blocks
  // in the next node's MMU queue -- the delay the paper attributes to
  // intermediate processors delaying mailbox allocation.
  mmus_[static_cast<std::size_t>(u.hop.node)]->request(
      u.bytes + params_.header_bytes, [this, unit](mem::Block next_buf) {
        Unit& granted = units_[unit.index];
        granted.next_buf = std::move(next_buf);
        const std::size_t wire = granted.bytes + params_.header_bytes;
        const sim::SimTime xfer =
            params_.per_hop_latency +
            params_.per_byte * static_cast<std::int64_t>(wire);
        const sim::SimTime done =
            links_[static_cast<std::size_t>(granted.hop.link)].reserve(
                sim_.now(), xfer, wire);
        record_transfer(granted.hop.link, done - xfer, xfer, granted.msg);
        sim_.schedule_at(done, [this, unit] {
          // Releases may pump MMUs, so this order is part of the result:
          // held (the move-assign frees it), source pin, hook, forward.
          ++hops_;
          Unit& crossed = units_[unit.index];
          crossed.held = std::move(crossed.next_buf);
          if (crossed.bytes != crossed.msg.bytes &&
              crossed.at == crossed.msg.src_node) {
            Reassembly& r = reassemblies_[crossed.reassembly.index];
            if (--r.unsent == 0) r.source.release();  // last packet out
          }
          crossed.at = crossed.hop.node;
          const Message msg = crossed.msg;  // the hook may regrow the pool
          if (hop_hook_) hop_hook_(crossed.at, msg, crossed.bytes);
          forward(unit);
        });
      });
}

void StoreForwardNetwork::arrive_fragment(sim::SlotHandle reassembly,
                                          mem::Block held) {
  assert(reassemblies_.live(reassembly));
  Reassembly& r = reassemblies_[reassembly.index];
  if (!r.alloc_requested) {
    r.alloc_requested = true;
    mmus_[static_cast<std::size_t>(r.msg.dst_node)]->request(
        r.msg.bytes + params_.header_bytes,
        [this, reassembly](mem::Block big) {
          Reassembly& entry = reassemblies_[reassembly.index];
          entry.buffer = std::move(big);
          entry.fragments.clear();  // packets copied in, freed
          try_finish_reassembly(reassembly);
        });
  }
  if (r.buffer.valid()) {
    held.release();  // copied straight into the message buffer
  } else {
    r.fragments.push_back(std::move(held));
  }
  --r.packets_remaining;
  try_finish_reassembly(reassembly);
}

void StoreForwardNetwork::try_finish_reassembly(sim::SlotHandle reassembly) {
  Reassembly& r = reassemblies_[reassembly.index];
  if (r.packets_remaining > 0 || !r.buffer.valid()) return;
  assert(!r.source.valid() && r.fragments.empty());
  const Message msg = r.msg;
  mem::Block buffer = std::move(r.buffer);
  reassemblies_.retire(reassembly.index);
  ++delivered_;
  deliver_(msg, std::move(buffer));
}

WormholeNetwork::WormholeNetwork(sim::Simulation& sim, const Topology& topo,
                                 std::vector<mem::Mmu*> mmus,
                                 NetworkParams params)
    : Network(sim, topo, std::move(mmus), params) {
  if (params.packet_bytes != 0) {
    throw std::invalid_argument(
        "wormhole switching carries whole messages: packet size must be 0");
  }
  // Per-topology reservation: the in-flight population is bounded by
  // concurrent sends, which scale with node count. One slot per node covers
  // the measured peaks (a 1,024-node mesh under 16-process jobs holds at
  // most 736 worms at once); a heavier load doubles the pool once or twice
  // and keeps it.
  worms_.reserve(std::max<std::size_t>(
      64, static_cast<std::size_t>(topo.node_count())));
}

void WormholeNetwork::send(Message msg, mem::Block payload) {
  if (!admit(msg, payload)) return;
  launch(msg, std::move(payload));
}

void WormholeNetwork::kick() {
  drain_parked(parked_, kick_scratch_, [this](Pending& p) {
    if (blocked(p.msg)) {
      parked_.push_back(std::move(p));  // keeps its place without parking
    } else {
      launch(p.msg, std::move(p.payload));
    }
  });
}

void WormholeNetwork::launch(Message msg, mem::Block payload) {
  if (msg.src_node == msg.dst_node) {
    ++delivered_;
    deliver_(msg, std::move(payload));
    return;
  }
  if (blocked(msg)) {
    record_park(sim_.now(), msg);
    parked_.push_back(Pending{msg, std::move(payload)});
    return;
  }
  // The worm slot is taken before the destination-buffer request so the
  // source payload has a stable home while the message waits on memory
  // pressure; parked messages above hold no slot.
  const sim::SlotHandle worm = worms_.acquire();
  worms_[worm.index] = Worm{msg, std::move(payload), mem::Block{}};
  // Only the destination buffers the message; intermediate nodes hold at
  // most a flit, which we do not charge against their memory.
  mmus_[static_cast<std::size_t>(msg.dst_node)]->request(
      msg.bytes + params_.header_bytes, [this, worm](mem::Block dst_buf) {
        transmit(worm, std::move(dst_buf));
      });
}

bool WormholeNetwork::blocked(const Message& msg) {
  if (!may_progress(msg)) return true;
  if (fault_ == nullptr) return false;
  // A circuit cannot form across a downed link (or dead router): the
  // message parks until a repair kicks the parked set. Once established, a
  // circuit completes even if a link on it fails mid-flight (the flits
  // already occupy the path) -- the documented approximation.
  routing_.link_path(msg.src_node, msg.dst_node, path_scratch_);
  return std::any_of(path_scratch_.begin(), path_scratch_.end(),
                     [this](LinkId id) { return !fault_->link_usable(id); });
}

void WormholeNetwork::transmit(sim::SlotHandle worm, mem::Block dst) {
  assert(worms_.live(worm));
  Worm& w = worms_[worm.index];
  w.dst = std::move(dst);
  const Message& msg = w.msg;

  // The route is static for a given wiring: its link ids are recomputed
  // closed-form into a reused scratch vector (no O(N^2) path table).
  routing_.link_path(msg.src_node, msg.dst_node, path_scratch_);
  const std::span<const LinkId> path = path_scratch_;
  const std::size_t hops = path.size();
  sim::SimTime start = sim_.now();
  for (const LinkId id : path) {
    start = std::max(start, links_[static_cast<std::size_t>(id)].busy_until());
  }

  // Pipelined duration: header worms through each router, payload streams
  // behind it. Single virtual channel: the whole path is held for the
  // duration (circuit-switching approximation of wormhole blocking).
  const sim::SimTime duration =
      params_.per_hop_latency * static_cast<std::int64_t>(hops) +
      params_.per_byte *
          static_cast<std::int64_t>(msg.bytes + params_.header_bytes);
  const sim::SimTime done = start + duration;
  for (const LinkId id : path) {
    // Reserve from the common start so the path is held as one circuit.
    links_[static_cast<std::size_t>(id)].reserve(
        start, duration, msg.bytes + params_.header_bytes);
    record_transfer(id, start, duration, msg);
  }
  hops_ += static_cast<std::uint64_t>(hops);

  sim_.schedule_at(done, [this, worm] { complete(worm); });
}

void WormholeNetwork::complete(sim::SlotHandle worm) {
  assert(worms_.live(worm));
  Worm& w = worms_[worm.index];
  ++delivered_;
  w.src.release();
  const Message msg = w.msg;
  mem::Block dst = std::move(w.dst);
  // Tail flit has left the path: the slot is free before delivery runs, so
  // a send triggered by this delivery can reuse it without growing the pool.
  worms_.retire(worm.index);
  if (hop_hook_) hop_hook_(msg.dst_node, msg, msg.bytes);
  deliver_(msg, std::move(dst));
}

}  // namespace tmc::net
