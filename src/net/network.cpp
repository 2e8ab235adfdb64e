#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace tmc::net {
namespace {

sim::SimTime transfer_time(const NetworkParams& p, std::size_t payload_bytes) {
  return p.per_hop_latency +
         p.per_byte * static_cast<std::int64_t>(payload_bytes + p.header_bytes);
}

}  // namespace

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
  assert((payload.valid() || msg.unstaged) &&
         "only an unstaged message may come without a source buffer");
  if (drop_at_injection(msg)) return;
  ++messages_;
  payload_bytes_ += msg.bytes;
  const std::size_t pkt = params_.packet_bytes;
  if (msg.src_node == msg.dst_node || pkt == 0 || msg.bytes <= pkt) {
    forward(msg, msg.src_node, std::move(payload), msg.bytes, nullptr);
    return;
  }
  // Fragment: packets pipeline across hops independently and reassemble at
  // the destination. The source's whole-message buffer stays pinned until
  // the last packet has left the source node.
  const int packets =
      static_cast<int>((msg.bytes + pkt - 1) / pkt);
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

void StoreForwardNetwork::kick() {
  std::vector<Parked> retry;
  retry.swap(parked_);
  for (auto& p : retry) {
    forward(p.msg, p.at, std::move(p.held), p.fragment_bytes,
            std::move(p.source_hold));
  }
}

void StoreForwardNetwork::forward(Message msg, NodeId at, mem::Block held,
                                  std::size_t fragment_bytes,
                                  std::shared_ptr<mem::Block> source_hold) {
  if (at == msg.dst_node) {
    assert(deliver_ && "no delivery handler installed");
    if (fragment_bytes == msg.bytes) {
      ++delivered_;
      deliver_(msg, std::move(held));
    } else {
      arrive_fragment(msg, std::move(held));
    }
    return;
  }
  if (!may_progress(msg)) {
    // The owning job is descheduled: its daemons are not running, so the
    // message waits here, pinning its buffer at this node, until kick().
    record_park(sim_.now(), msg);
    parked_.push_back(Parked{msg, at, std::move(held), fragment_bytes,
                             std::move(source_hold)});
    return;
  }
  // One adjacency scan yields both the next node and the directed link.
  const Topology::Neighbor hop = routing_.next_hop_link(at, msg.dst_node);
  const NodeId next = hop.node;
  if (fault_ != nullptr && !fault_->link_usable(hop.link)) {
    // The next link (or the router behind it) is down: stall here holding
    // this node's buffer until a repair kicks the parked set.
    record_park(sim_.now(), msg);
    parked_.push_back(Parked{msg, at, std::move(held), fragment_bytes,
                             std::move(source_hold)});
    return;
  }

  // Store-and-forward: the whole unit must be buffered at the next node
  // before it can leave this one. Under memory pressure this request blocks
  // in `next`'s MMU queue -- the delay the paper attributes to intermediate
  // processors delaying mailbox allocation.
  mmus_[static_cast<std::size_t>(next)]->request(
      fragment_bytes + params_.header_bytes,
      [this, msg, next, fragment_bytes, link_id = hop.link,
       held = std::move(held),
       source_hold = std::move(source_hold)](mem::Block next_buf) mutable {
        Link& link = links_[static_cast<std::size_t>(link_id)];
        const sim::SimTime xfer = transfer_time(params_, fragment_bytes);
        const sim::SimTime done = link.reserve(
            sim_.now(), xfer, fragment_bytes + params_.header_bytes);
        record_transfer(link_id, done - xfer, xfer, msg);
        sim_.schedule_at(
            done, [this, msg, next, fragment_bytes, held = std::move(held),
                   source_hold = std::move(source_hold),
                   next_buf = std::move(next_buf)]() mutable {
              ++hops_;
              held.release();      // the copy has left this node
              source_hold.reset();  // last packet out frees the source
              if (hop_hook_) hop_hook_(next, msg, fragment_bytes);
              forward(msg, next, std::move(next_buf), fragment_bytes,
                      nullptr);
            });
      });
}

void StoreForwardNetwork::arrive_fragment(const Message& msg,
                                          mem::Block held) {
  const auto it = reassembly_.find(msg.id);
  assert(it != reassembly_.end());
  Reassembly& reassembly = it->second;
  if (!reassembly.alloc_requested) {
    reassembly.alloc_requested = true;
    mmus_[static_cast<std::size_t>(msg.dst_node)]->request(
        msg.bytes + params_.header_bytes,
        [this, id = msg.id](mem::Block big) {
          const auto entry = reassembly_.find(id);
          if (entry == reassembly_.end()) return;  // torn down
          entry->second.buffer = std::move(big);
          entry->second.fragments.clear();  // packets copied in, freed
          try_finish_reassembly(id);
        });
  }
  if (reassembly.buffer.has_value()) {
    held.release();  // copied straight into the message buffer
  } else {
    reassembly.fragments.push_back(std::move(held));
  }
  --reassembly.packets_remaining;
  try_finish_reassembly(msg.id);
}

void StoreForwardNetwork::try_finish_reassembly(std::uint64_t id) {
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

WormholeNetwork::WormholeNetwork(sim::Simulation& sim, const Topology& topo,
                                 std::vector<mem::Mmu*> mmus,
                                 NetworkParams params)
    : Network(sim, topo, std::move(mmus), params) {
  // Per-topology reservation: the in-flight population is bounded by
  // concurrent sends, which scale with node count; four slots per node
  // covers the paper's workloads without regrowth.
  worms_.reserve(std::max<std::size_t>(
      64, static_cast<std::size_t>(topo.node_count()) * 4));
}

void WormholeNetwork::send(Message msg, mem::Block payload) {
  assert((payload.valid() || msg.unstaged) &&
         "only an unstaged message may come without a source buffer");
  if (drop_at_injection(msg)) return;
  ++messages_;
  payload_bytes_ += msg.bytes;
  launch(msg, std::move(payload));
}

void WormholeNetwork::kick() {
  kick_scratch_.clear();
  kick_scratch_.swap(parked_);
  for (auto& p : kick_scratch_) {
    launch(p.msg, std::move(p.payload));
  }
  kick_scratch_.clear();
  // Hand the warmed buffer back: launch() may have re-parked messages into
  // parked_ (then both vectors earn their capacity), but in the common
  // everything-resumes case parked_ is empty and would otherwise be left
  // holding the cold buffer, allocating again on the next suspension.
  if (parked_.empty() && parked_.capacity() < kick_scratch_.capacity()) {
    parked_.swap(kick_scratch_);
  }
}

void WormholeNetwork::launch(Message msg, mem::Block payload) {
  if (msg.src_node == msg.dst_node) {
    ++delivered_;
    deliver_(msg, std::move(payload));
    return;
  }
  if (!may_progress(msg)) {
    record_park(sim_.now(), msg);
    parked_.push_back(Pending{msg, std::move(payload)});
    return;
  }
  if (fault_ != nullptr) {
    // A circuit cannot form across a downed link (or dead router): park
    // until a repair kicks the parked set. Once established, a circuit
    // completes even if a link on it fails mid-flight (the flits already
    // occupy the path) -- the documented approximation.
    routing_.link_path(msg.src_node, msg.dst_node, path_scratch_);
    for (const LinkId id : path_scratch_) {
      if (!fault_->link_usable(id)) {
        record_park(sim_.now(), msg);
        parked_.push_back(Pending{msg, std::move(payload)});
        return;
      }
    }
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
