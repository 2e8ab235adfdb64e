// tmcsim -- static shortest-path routing (BFS reference table).
//
// The paper's communication package routes point-to-point messages through
// intermediate processors (store-and-forward). Routes are fixed for a given
// wiring, so this table precomputes all-pairs next-hop with breadth-first
// search: a FIFO queue over ascending-sorted adjacency makes every route
// deterministic for a given wiring. (Note the tie-break is BFS discovery
// order, not simply the lowest-numbered closer neighbour -- ring and torus
// wrap ties differ; see net/router.h for the exact characterisation.)
//
// Storage is O(N^2) entries plus O(N^2 * diameter) link paths, fine at the
// paper's 16 nodes but prohibitive at 1024+. The simulation now routes
// through net::Router, which reproduces this table's choices closed-form;
// the table remains as the differential-test reference and as the O(N^2)
// baseline of the scaling bench's memory column.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/topology.h"

namespace tmc::net {

class RoutingTable {
 public:
  explicit RoutingTable(const Topology& topo);

  /// First hop on a shortest path from `src` toward `dst`.
  /// Returns `dst` itself when src == dst.
  [[nodiscard]] NodeId next_hop(NodeId src, NodeId dst) const;

  /// Full node path src, ..., dst (inclusive). Length 1 when src == dst.
  [[nodiscard]] std::vector<NodeId> route(NodeId src, NodeId dst) const;

  /// Hop count of the shortest path (0 when src == dst).
  [[nodiscard]] int distance(NodeId src, NodeId dst) const;

  /// Link ids along the shortest path src -> dst, in hop order (empty when
  /// src == dst). Routes are static for a given wiring, so the table is
  /// materialised once here and a transport's per-message path walk becomes
  /// a single lookup instead of a next-hop/link scan per hop.
  [[nodiscard]] std::span<const LinkId> link_path(NodeId src,
                                                  NodeId dst) const {
    const std::size_t i = index(src, dst);
    return {path_links_.data() + path_off_[i],
            path_links_.data() + path_off_[i + 1]};
  }

  [[nodiscard]] int node_count() const { return n_; }

  /// Heap bytes held by the materialised tables (scaling reports).
  [[nodiscard]] std::size_t storage_bytes() const {
    return next_hop_.capacity() * sizeof(next_hop_[0]) +
           dist_.capacity() * sizeof(dist_[0]) +
           path_off_.capacity() * sizeof(path_off_[0]) +
           path_links_.capacity() * sizeof(path_links_[0]);
  }

 private:
  [[nodiscard]] std::size_t index(NodeId src, NodeId dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(dst);
  }

  int n_;
  std::vector<NodeId> next_hop_;  // n x n
  std::vector<int> dist_;        // n x n
  std::vector<std::uint32_t> path_off_;  // n x n + 1 offsets into path_links_
  std::vector<LinkId> path_links_;       // concatenated per-pair link paths
};

}  // namespace tmc::net
