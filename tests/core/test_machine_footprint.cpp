// Footprint of a whole machine, built and run, measured with a
// byte-counting global allocator (its own binary, so the allocator stays
// out of the other suites).
//
// Building a machine should cost a fixed number of bytes per node: each
// node's MMU, CPU and network share, plus containers that allocate on first
// use. State shared machine-wide must be shared, not copied into each
// partition, or a machine of N nodes in partitions of 16 pays O(N^2 / 16).
// Running it should add only what live jobs and in-flight work hold: state
// per job or per work item lasts as long as its job or item.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/experiment.h"
#include "core/machine.h"
#include "sched/job.h"
#include "workload/batch.h"

namespace {

/// Live heap bytes, as the allocator rounds them (malloc_usable_size), and
/// their high-water mark since the last reset_peak().
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

void* counted_alloc(std::size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    const std::int64_t live =
        g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                               std::memory_order_relaxed) +
        static_cast<std::int64_t>(malloc_usable_size(p));
    std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
    while (live > peak && !g_peak_bytes.compare_exchange_weak(
                              peak, live, std::memory_order_relaxed)) {
    }
  }
  return p;
}

std::int64_t reset_peak() {
  const std::int64_t live = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_bytes.store(live, std::memory_order_relaxed);
  return live;
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

/// perfbench's scale_wormhole workload at `nodes`: wormhole switching,
/// 16-node mesh partitions, the static policy, and a matmul batch of 12
/// small and 4 large jobs per 16 nodes.
ExperimentConfig scale_wormhole(int nodes) {
  ExperimentConfig config =
      figure_point(workload::App::kMatMul, sched::SoftwareArch::kAdaptive,
                   sched::PolicyKind::kStatic, 16, net::TopologyKind::kMesh);
  config.machine.processors = nodes;
  config.machine.wormhole = true;
  config.batch.small_count = 12 * nodes / 16;
  config.batch.large_count = 4 * nodes / 16;
  return config;
}

/// Heap bytes per node that building the machine leaves live.
double construction_bytes_per_node(int nodes) {
  const MachineConfig cfg = scale_wormhole(nodes).machine;
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
  // x86-64 glibc, 1,037 since the CPU and its callback records shrank),
  // with headroom for other standard libraries.
  EXPECT_LE(large, 1'500.0);
}

/// Peak heap bytes per node live while the scale_wormhole batch runs at
/// `nodes`: the machine, the jobs and everything the run allocates.
double run_peak_bytes_per_node(int nodes) {
  const ExperimentConfig config = scale_wormhole(nodes);
  const std::int64_t before = reset_peak();
  {
    Multicomputer machine(config.machine);
    auto specs =
        workload::make_batch(config.batch, workload::BatchOrder::kInterleaved);
    std::vector<std::unique_ptr<sched::Job>> jobs;
    jobs.reserve(specs.size());
    sched::JobId id = 1;
    for (auto& spec : specs) {
      jobs.push_back(std::make_unique<sched::Job>(id++, std::move(spec)));
    }
    for (const auto& job : jobs) machine.submit(*job);
    machine.run_to_completion();
    for (const auto& job : jobs) EXPECT_TRUE(job->completed());
  }
  return static_cast<double>(g_peak_bytes.load(std::memory_order_relaxed) -
                             before) /
         nodes;
}

TEST(Machine, RunPeakBytesPerNodeStayBounded) {
  const double peak = run_peak_bytes_per_node(256);
  RecordProperty("run_peak_bytes_per_node_256", static_cast<int>(peak));
  // Bound from the measured peak (3,362 B/node on x86-64 glibc), with 7%
  // headroom for other standard libraries. An endpoint arena that keeps a
  // window for every job the run admitted, outgrown blocks included, and
  // 16-byte-aligned callback records read 3,781 B/node here.
  EXPECT_LE(peak, 3'600.0);
}

}  // namespace
}  // namespace tmc::core
