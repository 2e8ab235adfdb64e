#include "net/router.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>

namespace tmc::net {
namespace {

int tree_depth(int v) {
  int k = 0;
  while (v > 0) {
    v = (v - 1) / 2;
    ++k;
  }
  return k;
}

}  // namespace

Router::Router(const Topology& topo)
    : topo_(&topo),
      tile_size_(topo.tile_size()),
      rows_(topo.tile_rows()),
      cols_(topo.tile_cols()) {}

int Router::tile_distance(NodeId a, NodeId b) const {
  switch (topo_->kind()) {
    case TopologyKind::kLinear:
      return std::abs(a - b);
    case TopologyKind::kRing: {
      const int d = std::abs(a - b);
      return std::min(d, tile_size_ - d);
    }
    case TopologyKind::kMesh:
      return std::abs(a / cols_ - b / cols_) + std::abs(a % cols_ - b % cols_);
    case TopologyKind::kTorus: {
      const int dr = std::abs(a / cols_ - b / cols_);
      const int dc = std::abs(a % cols_ - b % cols_);
      return std::min(dr, rows_ - dr) + std::min(dc, cols_ - dc);
    }
    case TopologyKind::kHypercube:
      return std::popcount(static_cast<unsigned>(a ^ b));
    case TopologyKind::kTree: {
      int x = a, y = b, d = 0;
      int dx = tree_depth(x), dy = tree_depth(y);
      for (; dx > dy; --dx, ++d) x = (x - 1) / 2;
      for (; dy > dx; --dy, ++d) y = (y - 1) / 2;
      while (x != y) {
        x = (x - 1) / 2;
        y = (y - 1) / 2;
        d += 2;
      }
      return d;
    }
  }
  std::abort();
}

int Router::distance(NodeId src, NodeId dst) const {
  if (src / tile_size_ != dst / tile_size_) {
    assert(false && "route crosses partition boundary");
    return -1;
  }
  return tile_distance(src % tile_size_, dst % tile_size_);
}

NodeId Router::greedy_step(NodeId x, NodeId target) const {
  const int d = distance(x, target);
  for (const auto& nb : topo_->neighbors(x)) {  // ascending node order
    if (distance(nb.node, target) == d - 1) return nb.node;
  }
  assert(false && "no closer neighbour on a connected tile");
  return kInvalidNode;
}

bool Router::discovered_before(NodeId dst, NodeId a, NodeId b) const {
  // Walk the greedy (lowest-id closer step) shortest paths dst -> a and
  // dst -> b in lockstep. They share every node until the step where they
  // diverge, and BFS discovery order is decided there by plain node order.
  NodeId x = dst;
  for (;;) {
    const NodeId ya = greedy_step(x, a);
    const NodeId yb = greedy_step(x, b);
    if (ya != yb) return ya < yb;
    x = ya;
  }
}

Topology::Neighbor Router::next_hop_link(NodeId src, NodeId dst) const {
  assert(src != dst);
  const int d = distance(src, dst);
  Topology::Neighbor best{kInvalidNode, kInvalidLink};
  for (const auto& nb : topo_->neighbors(src)) {
    if (distance(nb.node, dst) != d - 1) continue;
    if (best.node == kInvalidNode) {
      best = nb;  // lowest-id candidate: the common no-tie case
    } else if (discovered_before(dst, nb.node, best.node)) {
      best = nb;
    }
  }
  assert(best.node != kInvalidNode && "disconnected topology");
  return best;
}

NodeId Router::next_hop(NodeId src, NodeId dst) const {
  if (src == dst) return dst;
  return next_hop_link(src, dst).node;
}

void Router::link_path(NodeId src, NodeId dst, std::vector<LinkId>& out) const {
  out.clear();
  for (NodeId u = src; u != dst;) {
    const auto hop = next_hop_link(u, dst);
    out.push_back(hop.link);
    u = hop.node;
  }
}

std::vector<NodeId> Router::route(NodeId src, NodeId dst) const {
  std::vector<NodeId> path{src};
  for (NodeId u = src; u != dst;) {
    u = next_hop(u, dst);
    path.push_back(u);
  }
  return path;
}

}  // namespace tmc::net
