// tmcsim -- batch construction (paper section 5.1).
//
// Every experiment runs a batch of 16 applications: 12 small and 4 large
// jobs, introducing variance in service demand. For the static policy the
// paper reports the average of the best ordering (small jobs first) and the
// worst (large jobs first); the default interleaved order spreads the large
// jobs evenly, which is also how time-sharing deals them over partitions.
#pragma once

#include <vector>

#include "sched/job.h"
#include "workload/costs.h"
#include "workload/matmul.h"
#include "workload/sort.h"

namespace tmc::workload {

enum class App { kMatMul, kSort };

[[nodiscard]] std::string_view to_string(App app);

enum class BatchOrder {
  kInterleaved,    // large jobs spread evenly through the batch
  kSmallestFirst,  // static policy's best case
  kLargestFirst,   // static policy's worst case
};

[[nodiscard]] std::string_view to_string(BatchOrder order);

struct BatchParams {
  App app = App::kMatMul;
  sched::SoftwareArch arch = sched::SoftwareArch::kFixed;
  int small_count = 12;
  int large_count = 4;
  /// Problem sizes per class (matmul: matrix dimension; sort: elements).
  std::size_t small_size = 0;  // 0 = app default
  std::size_t large_size = 0;
  int fixed_processes = 16;
  /// Work-distribution algorithm for matmul jobs (extension bench A8).
  MatMulParams::Broadcast matmul_broadcast =
      MatMulParams::Broadcast::kPointToPoint;
  /// Pivot skew of the sort divide tree (SortParams::skew); matmul ignores
  /// it. 0 = the paper's balanced tree.
  double sort_skew = 0.0;
  Costs costs{};

  [[nodiscard]] int total() const { return small_count + large_count; }
};

/// Paper defaults: matmul 50/100, sort 6000/14000.
[[nodiscard]] BatchParams default_batch(App app, sched::SoftwareArch arch);

/// Builds the spec of one batch job of the given size class. The open-
/// arrival bench (A10) draws its stream's jobs from here too.
[[nodiscard]] sched::JobSpec make_batch_job(const BatchParams& params,
                                            bool large);

/// Builds the batch's job specs in the requested submission order.
[[nodiscard]] std::vector<sched::JobSpec> make_batch(const BatchParams& params,
                                                     BatchOrder order);

}  // namespace tmc::workload
