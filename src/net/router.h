// tmcsim -- algorithmic (closed-form) routing.
//
// RoutingTable materialises all-pairs next-hop/distance/link-path arrays:
// O(N^2) entries plus O(N^2 * diameter) link storage, which is prohibitive
// past a few hundred nodes. Every topology the builders produce is regular,
// so routes never need to be stored: distance has a closed form per kind
// (|delta| on a line, wrap-minimum on a ring, Manhattan on a mesh, popcount
// on a hypercube, per-dimension wrap-minimum on a torus, LCA depth walk on
// a tree), and the next hop is recovered by scanning a node's <= 4
// neighbours for one that is closer to the destination.
//
// When several neighbours are closer (wrap ties, cross-dimension choices)
// the simulation's determinism contract requires the EXACT hop the BFS
// table would have picked -- golden tables depend on it. The BFS in
// RoutingTable processes a FIFO queue and scans ascending-sorted adjacency,
// which makes the parent of u (= next_hop(u, dst)) the closer neighbour v
// whose BFS discovery order from dst is minimal. That order has a local
// characterisation: order(v) ascends with key(v), the lexicographically
// minimal sequence of adjacency ranks over all shortest dst -> v paths, and
// key(v) is realised by the greedy walk from dst that always steps to the
// lowest-numbered neighbour closer to v. Comparing two candidates therefore
// needs no table: walk both greedy paths from dst in lockstep and the first
// divergence (always at a shared node, so plain id order) decides. The
// differential test in tests/net/test_routing_model.cpp checks this
// reproduces RoutingTable bit-for-bit on every kind and size.
//
// Tiled machines (the Multicomputer's standard wiring) decompose as
// tile-local coordinates; cross-tile pairs are unreachable, as in the BFS
// table. The router holds no per-pair state; RoutingTable stays the
// reference it is checked against and the O(N^2) baseline of the scaling
// bench's memory column.
#pragma once

#include <vector>

#include "net/topology.h"

namespace tmc::net {

class Router {
 public:
  explicit Router(const Topology& topo);

  /// Hop count of the shortest path (0 when src == dst). Cross-tile pairs
  /// are unreachable and return -1 (asserted against in debug builds).
  [[nodiscard]] int distance(NodeId src, NodeId dst) const;

  /// First hop on a shortest path from `src` toward `dst` -- bit-identical
  /// to the BFS table's choice. Returns `dst` itself when src == dst.
  [[nodiscard]] NodeId next_hop(NodeId src, NodeId dst) const;

  /// First hop and the directed link to it in one adjacency scan (the
  /// store-and-forward per-hop fast path).
  [[nodiscard]] Topology::Neighbor next_hop_link(NodeId src, NodeId dst) const;

  /// Link ids along the shortest path src -> dst, in hop order, written
  /// into `out` (cleared first; empty when src == dst). Callers keep a
  /// scratch vector so the hot path does not allocate.
  void link_path(NodeId src, NodeId dst, std::vector<LinkId>& out) const;

  /// Full node path src, ..., dst (inclusive). Length 1 when src == dst.
  [[nodiscard]] std::vector<NodeId> route(NodeId src, NodeId dst) const;

  [[nodiscard]] int node_count() const { return topo_->node_count(); }

 private:
  [[nodiscard]] int tile_distance(NodeId a, NodeId b) const;
  /// Greedy step from `x` toward `target`: lowest-numbered closer neighbour.
  [[nodiscard]] NodeId greedy_step(NodeId x, NodeId target) const;
  /// True when candidate `a` precedes `b` in BFS discovery order from `dst`
  /// (both at equal distance from `dst`).
  [[nodiscard]] bool discovered_before(NodeId dst, NodeId a, NodeId b) const;

  const Topology* topo_;
  int tile_size_;
  int rows_;
  int cols_;
};

}  // namespace tmc::net
