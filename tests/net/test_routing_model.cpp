// Differential model check: Router (closed-form) vs RoutingTable (BFS).
//
// The golden tables pin the simulation's routes to the BFS table's choices,
// so the algorithmic router is only correct if it is bit-identical -- same
// next hop, same distance, same link path -- on every pair the machine can
// route. This suite exhaustively compares the two implementations on every
// topology kind at every size 1..64 (powers of two only for the hypercube),
// and on tiled machines across every within-partition pair.
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "net/router.h"
#include "net/routing.h"
#include "net/topology.h"

namespace tmc::net {
namespace {

/// Compares router vs table on every reachable (src, dst) pair of `topo`.
/// `tile` limits pairs to a common partition (cross-tile pairs are
/// unreachable by construction and asserted against in both
/// implementations).
void expect_identical_routes(const Topology& topo) {
  const RoutingTable table(topo);
  const Router router(topo);

  const int tile = topo.tile_size();
  std::vector<LinkId> path;
  for (NodeId src = 0; src < topo.node_count(); ++src) {
    for (NodeId dst = 0; dst < topo.node_count(); ++dst) {
      if (src / tile != dst / tile) continue;  // unreachable by design
      ASSERT_EQ(router.distance(src, dst), table.distance(src, dst))
          << topo.label() << " " << src << "->" << dst;
      ASSERT_EQ(router.next_hop(src, dst), table.next_hop(src, dst))
          << topo.label() << " " << src << "->" << dst;
      router.link_path(src, dst, path);
      const auto ref = table.link_path(src, dst);
      ASSERT_EQ(path.size(), ref.size())
          << topo.label() << " " << src << "->" << dst;
      for (std::size_t i = 0; i < path.size(); ++i) {
        ASSERT_EQ(path[i], ref[i])
            << topo.label() << " " << src << "->" << dst << " hop " << i;
      }
      ASSERT_EQ(router.route(src, dst), table.route(src, dst))
          << topo.label() << " " << src << "->" << dst;
    }
  }
}

bool is_power_of_two(int n) { return n >= 1 && (n & (n - 1)) == 0; }

class RoutingModelKind : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(RoutingModelKind, MatchesBfsTableAtEverySizeUpTo64) {
  const auto kind = GetParam();
  for (int n = 1; n <= 64; ++n) {
    if (kind == TopologyKind::kHypercube && !is_power_of_two(n)) continue;
    SCOPED_TRACE("n=" + std::to_string(n));
    expect_identical_routes(Topology::make(kind, n));
  }
}

TEST_P(RoutingModelKind, MatchesBfsTableOnTiledMachines) {
  const auto kind = GetParam();
  // The Multicomputer's standard wiring: `copies` disjoint partitions of
  // `tile` nodes each. Exercises the id-decomposition path of the router.
  for (const auto [tile, copies] :
       {std::pair{4, 4}, std::pair{8, 4}, std::pair{16, 4}, std::pair{1, 8}}) {
    SCOPED_TRACE("tile=" + std::to_string(tile) +
                 " copies=" + std::to_string(copies));
    expect_identical_routes(Topology::tiled(kind, tile, copies));
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, RoutingModelKind,
                         ::testing::Values(TopologyKind::kLinear,
                                           TopologyKind::kRing,
                                           TopologyKind::kMesh,
                                           TopologyKind::kHypercube,
                                           TopologyKind::kTorus,
                                           TopologyKind::kTree),
                         [](const auto& info) {
                           return std::string(topology_name(info.param));
                         });

// The known-hard tie cases that refuted the naive "lowest-numbered closer
// neighbour" rule -- kept as named regressions so a future tie-break change
// fails loudly rather than deep inside the sweep above.
TEST(RoutingModel, RingAntipodalTieMatchesBfs) {
  const auto topo = Topology::ring(8);
  const RoutingTable table(topo);
  const Router router(topo);
  // 1 -> 5 is distance 4 both ways round; BFS discovers via node 2.
  EXPECT_EQ(table.next_hop(1, 5), 2);
  EXPECT_EQ(router.next_hop(1, 5), 2);
}

TEST(RoutingModel, TorusCrossDimensionTieMatchesBfs) {
  const auto topo = Topology::torus(64);  // 8x8, both wraps
  const RoutingTable table(topo);
  const Router router(topo);
  // (0,0) -> (5,1) [id 41]: stepping to (7,0) [id 56] and (0,1) [id 1] are
  // both closer; BFS discovery order prefers 56 even though 1 < 56.
  EXPECT_EQ(table.next_hop(0, 41), 56);
  EXPECT_EQ(router.next_hop(0, 41), 56);
}

// next_hop_link is the store-and-forward fast path: the hop it returns must
// be the same node next_hop reports, over the directed link the topology
// records for that edge.
TEST(RoutingModel, NextHopLinkAgreesWithNextHopAndTopology) {
  for (const auto kind : {TopologyKind::kRing, TopologyKind::kTorus,
                          TopologyKind::kHypercube, TopologyKind::kTree}) {
    const auto topo = Topology::make(kind, 16);
    const Router router(topo);
    for (NodeId src = 0; src < topo.node_count(); ++src) {
      for (NodeId dst = 0; dst < topo.node_count(); ++dst) {
        if (src == dst) continue;
        const auto hop = router.next_hop_link(src, dst);
        EXPECT_EQ(hop.node, router.next_hop(src, dst));
        EXPECT_EQ(hop.link, topo.link_between(src, hop.node));
      }
    }
  }
}

// Routing memory is the scaling story: O(N^2)+ for the table, a topology
// pointer and the tile dimensions for the closed form at any size.
TEST(RoutingModel, AlgorithmicRoutingHoldsNoPerPairState) {
  EXPECT_LE(sizeof(Router), 4 * sizeof(void*));
  const auto topo = Topology::mesh(256);
  // 256^2 pairs x (next-hop + distance) alone is > 512 KB.
  EXPECT_GT(RoutingTable(topo).storage_bytes(), 512u * 1024u);
}

}  // namespace
}  // namespace tmc::net
