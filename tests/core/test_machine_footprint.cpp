// Construction footprint of a whole machine, measured with a byte-counting
// global allocator (its own binary, so the allocator stays out of the other
// suites).
//
// Building a machine should cost a fixed number of bytes per node: each
// node's MMU, CPU and network share, plus containers that allocate on first
// use. State shared machine-wide must be shared, not copied into each
// partition, or a machine of N nodes in partitions of 16 pays O(N^2 / 16).
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/experiment.h"
#include "core/machine.h"

namespace {

/// Live heap bytes, as the allocator rounds them (malloc_usable_size).
std::atomic<std::int64_t> g_live_bytes{0};

void* counted_alloc(std::size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace tmc::core {
namespace {

/// perfbench's scale_wormhole machine at `nodes`: wormhole switching, 16-node
/// mesh partitions, the static policy.
MachineConfig scale_wormhole_machine(int nodes) {
  MachineConfig cfg =
      figure_point(workload::App::kMatMul, sched::SoftwareArch::kAdaptive,
                   sched::PolicyKind::kStatic, 16, net::TopologyKind::kMesh)
          .machine;
  cfg.processors = nodes;
  cfg.wormhole = true;
  return cfg;
}

/// Heap bytes per node that building the machine leaves live.
double construction_bytes_per_node(int nodes) {
  const MachineConfig cfg = scale_wormhole_machine(nodes);
  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  Multicomputer machine(cfg);
  const std::int64_t built = g_live_bytes.load(std::memory_order_relaxed);
  EXPECT_EQ(machine.partition_count(), nodes / 16);
  return static_cast<double>(built - before) / nodes;
}

TEST(Machine, ConstructionBytesPerNodeStayFlat) {
  const double small = construction_bytes_per_node(64);
  const double large = construction_bytes_per_node(1024);
  RecordProperty("bytes_per_node_64", static_cast<int>(small));
  RecordProperty("bytes_per_node_1024", static_cast<int>(large));
  EXPECT_GT(small, 0.0);
  // Flat: sixteen times the nodes may not cost more per node (1% slack
  // covers allocator rounding of the machine-wide tables).
  EXPECT_LE(large, small * 1.01) << "64 nodes: " << small << " B/node";
  // Bound from the measured footprint (1,125 B/node at 1,024 nodes on
  // x86-64 glibc), with a third of headroom for other standard libraries.
  EXPECT_LE(large, 1'500.0);
}

}  // namespace
}  // namespace tmc::core
