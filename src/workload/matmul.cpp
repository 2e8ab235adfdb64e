#include "workload/matmul.h"

#include <algorithm>
#include <cassert>

#include "sched/stealing/stealing.h"

namespace tmc::workload {
namespace {

constexpr int kTagWork = 1;
constexpr int kTagResult = 2;

/// Rows of A handled by `rank` when n rows are banded over `procs` ranks.
std::size_t rows_of(std::size_t n, int procs, int rank) {
  const auto p = static_cast<std::size_t>(procs);
  const auto r = static_cast<std::size_t>(rank);
  return n / p + (r < n % p ? 1 : 0);
}

/// First row of `rank`'s band (bands are contiguous in rank order).
std::size_t row_start(std::size_t n, int procs, int rank) {
  const auto p = static_cast<std::size_t>(procs);
  const auto r = static_cast<std::size_t>(rank);
  return r * (n / p) + std::min(r, n % p);
}

/// Rows covered by ranks [first, first+count).
std::size_t rows_of_range(std::size_t n, int procs, int first, int count) {
  return row_start(n, procs, first + count) - row_start(n, procs, first);
}

/// Work tag for the parcel addressed to `rank` under tree distribution.
int tree_tag(int rank) { return 100 + rank; }

struct TreeSend {
  int child;
  std::size_t bytes;
};

/// Binomial-tree distribution plan: rank r repeatedly peels the upper half
/// of its responsibility range [r, r+span) off to a child, which recurses.
/// Every non-root rank receives exactly one bundle (B + the A-bands of its
/// whole subtree) and forwards sub-bundles before computing.
std::vector<std::vector<TreeSend>> plan_tree(const MatMulParams& params,
                                             int procs) {
  const std::size_t n = params.n;
  const std::size_t esz = params.costs.element_bytes;
  std::vector<int> span(static_cast<std::size_t>(procs), 0);
  span[0] = procs;
  std::vector<std::vector<TreeSend>> sends(static_cast<std::size_t>(procs));
  for (int r = 0; r < procs; ++r) {
    int s = span[static_cast<std::size_t>(r)];
    while (s > 1) {
      const int half = s / 2;
      const int keep = s - half;
      const int child = r + keep;
      span[static_cast<std::size_t>(child)] = half;
      const std::size_t bundle =
          n * n * esz + rows_of_range(n, procs, child, half) * n * esz;
      sends[static_cast<std::size_t>(r)].push_back(TreeSend{child, bundle});
      s = keep;
    }
  }
  return sends;
}

}  // namespace

sim::SimTime matmul_serial_demand(const MatMulParams& params) {
  const auto n = static_cast<std::int64_t>(params.n);
  return params.costs.t_madd * (n * n * n);
}

std::vector<node::Program> build_matmul_programs(const MatMulParams& params,
                                                 sched::JobId job,
                                                 int partition_size) {
  // Only the adaptive architecture molds itself to the partition; fixed and
  // stealing both bake in the compile-time process count (stealing falls
  // back to this very script when the machine has no steal engine).
  const int procs = params.arch == sched::SoftwareArch::kAdaptive
                        ? partition_size
                        : params.fixed_processes;
  assert(procs >= 1);
  const std::size_t n = params.n;
  const std::size_t esz = params.costs.element_bytes;
  const std::size_t matrix_bytes = n * n * esz;

  std::vector<node::Program> programs(static_cast<std::size_t>(procs));

  const auto band_compute = [&](int rank) {
    return params.costs.t_madd *
           (static_cast<std::int64_t>(rows_of(n, procs, rank)) *
            static_cast<std::int64_t>(n) * static_cast<std::int64_t>(n));
  };

  if (params.broadcast == MatMulParams::Broadcast::kTree) {
    const auto plan = plan_tree(params, procs);
    for (int rank = 0; rank < procs; ++rank) {
      node::Program& prog = programs[static_cast<std::size_t>(rank)];
      const std::size_t rows = rows_of(n, procs, rank);
      // alloc + optional receive + subtree forwards + compute + result
      // phase (gather at rank 0, one send elsewhere) + exit.
      prog.reserve(3 + plan[static_cast<std::size_t>(rank)].size() +
                   (rank == 0 ? static_cast<std::size_t>(procs) - 1 : 2));
      prog.alloc(params.costs.process_overhead_bytes +
                 (rank == 0 ? 3 * matrix_bytes
                            : matrix_bytes + 2 * rows * n * esz));
      if (rank != 0) prog.receive(tree_tag(rank));
      // Forward the subtree bundles before computing: distribution is on
      // the critical path of every descendant.
      for (const auto& send : plan[static_cast<std::size_t>(rank)]) {
        prog.send(sched::endpoint_of(job, send.child), tree_tag(send.child),
                  send.bytes);
      }
      prog.compute(band_compute(rank));
      if (rank == 0) {
        for (int other = 1; other < procs; ++other) prog.receive(kTagResult);
      } else {
        prog.send(sched::endpoint_of(job, 0), kTagResult, rows * n * esz);
      }
      prog.exit();
    }
    return programs;
  }

  // Paper's algorithm: the coordinator ships every worker's parcel itself.
  node::Program& coord = programs[0];
  coord.reserve(2 * static_cast<std::size_t>(procs) + 1);
  coord.alloc(params.costs.process_overhead_bytes + 3 * matrix_bytes);
  for (int rank = 1; rank < procs; ++rank) {
    const std::size_t rows = rows_of(n, procs, rank);
    // Work parcel: all of B plus this worker's band of A.
    coord.send(sched::endpoint_of(job, rank), kTagWork,
               matrix_bytes + rows * n * esz);
  }
  coord.compute(band_compute(0));
  for (int rank = 1; rank < procs; ++rank) coord.receive(kTagResult);
  coord.exit();

  // Workers: receive the parcel, compute their band of C, return it.
  for (int rank = 1; rank < procs; ++rank) {
    const std::size_t rows = rows_of(n, procs, rank);
    node::Program& worker = programs[static_cast<std::size_t>(rank)];
    worker.reserve(5);
    // Working set: code + workspace, copy of B, band of A, band of C.
    worker.alloc(params.costs.process_overhead_bytes + matrix_bytes +
                 2 * rows * n * esz);
    worker.receive(kTagWork);
    worker.compute(band_compute(rank));
    worker.send(sched::endpoint_of(job, 0), kTagResult, rows * n * esz);
    worker.exit();
  }
  return programs;
}

sched::stealing::JobWork decompose_matmul(
    const MatMulParams& params, int procs,
    const sched::stealing::StealParams& steal) {
  assert(procs >= 1);
  const std::size_t n = params.n;
  const std::size_t esz = params.costs.element_bytes;
  const std::size_t matrix_bytes = n * n * esz;

  sched::stealing::JobWork work;
  work.workers.resize(static_cast<std::size_t>(procs));

  // Row bands of C become tasklets under the configured self-scheduling
  // chunk schedule, dealt round-robin so every worker starts with a spread
  // of sizes. A migrating tasklet carries its band of A on the grant and
  // ships its band of C home.
  const auto chunks = sched::stealing::chunk_sizes(
      n, procs, steal.chunking, steal.chunks_per_worker);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const std::size_t rows = chunks[i];
    sched::stealing::Tasklet t;
    t.cost = params.costs.t_madd * (static_cast<std::int64_t>(rows) *
                                    static_cast<std::int64_t>(n) *
                                    static_cast<std::int64_t>(n));
    t.migrate_bytes = rows * n * esz;
    t.result_bytes = rows * n * esz;
    auto& w = work.workers[i % static_cast<std::size_t>(procs)];
    w.deque.push_back(t);
  }

  for (int r = 0; r < procs; ++r) {
    auto& w = work.workers[static_cast<std::size_t>(r)];
    std::size_t band = 0;
    for (const auto& t : w.deque) band += t.migrate_bytes;
    // Same working sets as the fixed script: the coordinator holds all
    // three matrices, a worker holds B plus its A and C bands.
    w.alloc_bytes = params.costs.process_overhead_bytes +
                    (r == 0 ? 3 * matrix_bytes : matrix_bytes + 2 * band);
    w.init_bytes = matrix_bytes + band;  // work parcel: B + the A band
  }
  return work;
}

sched::JobSpec make_matmul_job(const MatMulParams& params, bool large) {
  sched::JobSpec spec;
  spec.app = "matmul";
  spec.problem_size = params.n;
  spec.large = large;
  spec.arch = params.arch;
  spec.demand_estimate = matmul_serial_demand(params);
  spec.builder = [params](const sched::Job& job, int partition_size) {
    return build_matmul_programs(params, job.id(), partition_size);
  };
  if (params.arch == sched::SoftwareArch::kStealing) {
    spec.tasklet_builder = [params](const sched::Job&, int,
                                    const sched::stealing::StealParams& sp) {
      return decompose_matmul(params, params.fixed_processes, sp);
    };
  }
  return spec;
}

}  // namespace tmc::workload
