// Scaling study: does simulator throughput survive 16 -> 1024 nodes?
//
// The paper's machine has 16 Transputers; the simulator's data structures
// were originally sized for that. This bench grows the machine (16-node
// mesh partitions, statically scheduled, with the batch scaled in
// proportion so per-node load is constant) and reports, per machine size:
//
//   - events fired and wall-clock events/sec. Algorithmic routing and the
//     SoA hot state make the per-event cost O(1) in machine size
//     *algorithmically*; what remains is the memory hierarchy (the pending
//     set is ~1 event per busy node, so heap ops comb O(log N), and the
//     O(N) machine state stops fitting in cache), which shows up as a
//     gentle decline, not a blow-up,
//   - machine heap bytes per node (construction RSS delta; roughly flat
//     when per-node state is O(1)),
//   - routing storage: the closed-form Router holds no per-pair state,
//     vs the O(N^2) BFS table the simulation used to materialise.
//
// --json=PATH writes a Google-Benchmark-shaped report (items_per_second =
// events/sec, plus bytes_per_node et al. as counters) so tools/perf_gate.py
// can gate it against BENCH_scaling.json exactly like the microbenches.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/machine.h"
#include "core/report.h"
#include "figure_common.h"
#include "net/router.h"
#include "net/routing.h"
#include "net/topology.h"
#include "obs/hub.h"
#include "sched/stealing/stealing.h"
#include "workload/batch.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace {

using namespace tmc;

/// /proc/self/status field in bytes (Linux); 0 where unavailable.
std::size_t proc_status_bytes(const char* key) {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) != 0) continue;
    std::size_t kb = 0;
    std::sscanf(line.c_str() + std::strlen(key), ":%zu", &kb);
    return kb * 1024;
  }
#else
  (void)key;
#endif
  return 0;
}

/// Live heap bytes (glibc); falls back to resident-set size elsewhere.
/// Heap accounting is the right probe for the bytes-per-node trend: RSS
/// deltas go quiet once the allocator starts reusing pages freed by the
/// previous (smaller) machine. Chunks glibc serves by mmap (the large
/// per-node arrays of a big machine) are not in the arena's count, so they
/// are added.
std::size_t live_heap_bytes() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return proc_status_bytes("VmRSS");
#endif
}

struct SizePoint {
  int nodes = 0;
  std::uint64_t events = 0;
  std::size_t peak_pending = 0;
  double wall_s = 0.0;
  double events_per_s = 0.0;
  double mean_response_s = 0.0;
  double makespan_s = 0.0;
  std::size_t machine_bytes = 0;        // construction live-heap delta
  std::size_t topology_bytes = 0;       // CSR adjacency + link table
  std::size_t table_routing_bytes = 0;  // what the BFS table would hold
};

core::ExperimentConfig scaled_config(int nodes) {
  auto config = core::figure_point(
      workload::App::kMatMul, sched::SoftwareArch::kAdaptive,
      sched::PolicyKind::kStatic, /*partition_size=*/16,
      net::TopologyKind::kMesh);
  config.machine.processors = nodes;
  // Constant per-node load: the paper's 12+4 batch per 16 nodes.
  config.batch.small_count = 12 * nodes / 16;
  config.batch.large_count = 4 * nodes / 16;
  return config;
}

SizePoint run_size(int nodes, int reps, bench::ObsSession* obs,
                   bool observed) {
  SizePoint point;
  point.nodes = nodes;
  const auto config = scaled_config(nodes);

  {
    // Construction-memory probe: live-heap delta across building the
    // machine. The absolute value includes allocator rounding; the trend is
    // what matters: bytes per node must stay flat, not grow with N.
    const std::size_t before = live_heap_bytes();
    core::Multicomputer machine(config.machine);
    point.machine_bytes = live_heap_bytes() - before;
    point.topology_bytes = machine.topology().storage_bytes();
    // The O(N^2) cost the algorithmic router avoids: materialise the BFS
    // table for the same wiring and measure it.
    point.table_routing_bytes =
        net::RoutingTable(machine.topology()).storage_bytes();
  }

  // Best-of-reps wall time: the short points (a 64-node run is ~10 ms) are
  // at the mercy of scheduler noise, which only ever slows a run down, so
  // the minimum is the stable statistic to gate on. Everything else about
  // the run is deterministic across repetitions.
  point.wall_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    // The observed rep carries the recording overhead; with the default
    // reps the best-of minimum still comes from an uninstrumented rep.
    auto rep_config = config;
    if (obs != nullptr) {
      obs->attach(rep_config.machine, observed && rep == 0);
    }
    const auto start = std::chrono::steady_clock::now();
    const auto run =
        core::run_batch(rep_config, workload::BatchOrder::kInterleaved);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    point.wall_s = std::min(point.wall_s, wall.count());
    // Silent quantum steps count as events, so events/s stays comparable
    // with a kernel that fires one event per quantum.
    point.events = run.machine.events + run.machine.quantum_steps;
    point.peak_pending = run.machine.peak_pending_events;
    point.mean_response_s = run.mean_response_s();
    point.makespan_s = run.makespan_s;
  }
  point.events_per_s =
      point.wall_s > 0 ? static_cast<double>(point.events) / point.wall_s : 0;
  return point;
}

void write_json(const std::string& path, const std::vector<SizePoint>& points) {
  std::ofstream out(path);
  out << "{\n  \"context\": {\"executable\": \"fig_scaling\"},\n"
      << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    out << "    {\"name\": \"BM_Scaling/" << p.nodes << "\", "
        << "\"run_type\": \"iteration\", \"iterations\": 1, "
        << "\"real_time\": " << p.wall_s << ", \"time_unit\": \"s\", "
        << "\"items_per_second\": " << p.events_per_s << ", "
        << "\"events\": " << p.events << ", "
        << "\"bytes_per_node\": "
        << static_cast<double>(p.machine_bytes) / p.nodes << ", "
        << "\"topology_bytes\": " << p.topology_bytes << ", "
        << "\"table_routing_bytes\": " << p.table_routing_bytes << ", "
        << "\"algorithmic_routing_bytes\": 0}"
        << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> sizes = {16, 64, 256, 1024};
  int reps = 5;
  std::string json_path;
  obs::Options obs_options;
  fault::FaultConfig unwired_faults;
  sched::stealing::StealParams unwired_steal;
  const cli::Flag sizes_row{
      "--sizes", cli::Kind::kText, "N,N,...",
      "machine sizes to run (default 16,64,256,1024;\n"
      "each must be a multiple of 16)",
      cli::Family::kOwn, [&sizes](std::string_view list) -> std::string {
        sizes.clear();
        for (std::size_t start = 0; start <= list.size();) {
          const std::size_t comma =
              std::min(list.find(',', start), list.size());
          const std::string_view token = list.substr(start, comma - start);
          int n = 0;
          if (!cli::parse_integer("--sizes", token, 16,
                                  std::numeric_limits<int>::max(), n)
                   .empty() ||
              n % 16 != 0) {
            return "--sizes: bad size '" + std::string(token) +
                   "' (want a multiple of 16)";
          }
          sizes.push_back(n);
          start = comma + 1;
        }
        return {};
      }};
  cli::Table("fig_scaling", {cli::Family::kObs})
      .add({sizes_row,
            cli::integer("--reps", "R", reps,
                         "repetitions per size, best wall time kept\n"
                         "(default 5; short runs are noise-prone)",
                         1),
            cli::text("--json", "PATH", json_path,
                      "write a Google-Benchmark-format report for\n"
                      "tools/perf_gate.py")})
      .add(obs::cli_flags(obs_options))
      .add(fault::cli_flags(unwired_faults))
      .add(sched::stealing::cli_flags(unwired_steal))
      .notes("observability records the first rep of the largest size;\n"
             "best-of wall times still come from the uninstrumented reps\n"
             "when --reps > 1\n")
      .parse_or_exit(argc, argv);

  std::cout << "Scaling study: static policy, 16-node mesh partitions, "
               "matmul batch scaled\nwith the machine (12+4 jobs per 16 "
               "nodes -- constant per-node load).\n\n";

  bench::ObsSession obs_session(obs_options);
  // Observe the first occurrence of the largest size (the point whose
  // timeline is worth looking at; also the most expensive to re-run).
  const auto observed = static_cast<std::size_t>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  std::vector<SizePoint> points;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const int n = sizes[i];
    std::cout << "running " << n << " nodes..." << std::flush;
    points.push_back(run_size(n, reps, &obs_session, i == observed));
    std::cout << " " << points.back().events << " events in "
              << core::fmt_seconds(points.back().wall_s) << " s\n";
  }

  core::Table table({"nodes", "events", "peak pend", "wall (s)", "events/s",
                     "MRT (s)", "KB/node", "route KB (table)",
                     "route KB (algo)"});
  for (const auto& p : points) {
    table.add_row({std::to_string(p.nodes), std::to_string(p.events),
                   std::to_string(p.peak_pending),
                   core::fmt_seconds(p.wall_s),
                   std::to_string(static_cast<std::uint64_t>(p.events_per_s)),
                   core::fmt_seconds(p.mean_response_s),
                   std::to_string(p.machine_bytes / 1024 /
                                  static_cast<std::size_t>(p.nodes)),
                   std::to_string(p.table_routing_bytes / 1024),
                   std::to_string(0)});
  }
  std::cout << "\n";
  table.print(std::cout);

  const std::size_t peak = proc_status_bytes("VmHWM");
  if (peak > 0) {
    std::cout << "\npeak RSS: " << peak / (1024 * 1024) << " MB\n";
  }
  std::cout
      << "\nExpected shape: events scale exactly linearly with N (per-node "
         "load is\nconstant), peak pending events is ~1 per busy node, and "
         "KB/node stays flat.\nevents/s declines gently with N -- the "
         "per-event cost is O(1) in machine\nsize algorithmically, but the "
         "O(N) working set outgrows cache and heap ops\ncomb O(log "
         "pending) -- while the BFS table's O(N^2) routing storage (the\n"
         "`route KB (table)` column, which the algorithmic router replaces "
         "with zero\nbytes) is why 1024 nodes were previously out of "
         "reach.\n";

  if (!json_path.empty()) {
    write_json(json_path, points);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return obs_session.flush(std::cerr);
}
