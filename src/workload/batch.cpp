#include "workload/batch.h"

#include <stdexcept>

namespace tmc::workload {

std::string_view to_string(App app) {
  switch (app) {
    case App::kMatMul: return "matmul";
    case App::kSort: return "sort";
  }
  return "?";
}

std::string_view to_string(BatchOrder order) {
  switch (order) {
    case BatchOrder::kInterleaved: return "interleaved";
    case BatchOrder::kSmallestFirst: return "smallest-first";
    case BatchOrder::kLargestFirst: return "largest-first";
  }
  return "?";
}

BatchParams default_batch(App app, sched::SoftwareArch arch) {
  BatchParams params;
  params.app = app;
  params.arch = arch;
  if (app == App::kMatMul) {
    params.small_size = 60;
    params.large_size = 120;
  } else {
    params.small_size = 6000;
    params.large_size = 14000;
  }
  return params;
}

sched::JobSpec make_batch_job(const BatchParams& params, bool large) {
  const std::size_t size = large ? params.large_size : params.small_size;
  if (size == 0) throw std::invalid_argument("batch job size not set");
  switch (params.app) {
    case App::kMatMul: {
      MatMulParams mm;
      mm.n = size;
      mm.arch = params.arch;
      mm.fixed_processes = params.fixed_processes;
      mm.broadcast = params.matmul_broadcast;
      mm.costs = params.costs;
      return make_matmul_job(mm, large);
    }
    case App::kSort: {
      SortParams sp;
      sp.elements = size;
      sp.arch = params.arch;
      sp.fixed_processes = params.fixed_processes;
      sp.skew = params.sort_skew;
      sp.costs = params.costs;
      return make_sort_job(sp, large);
    }
  }
  throw std::invalid_argument("unknown app");
}

namespace {

/// Size-class sequence for the requested order.
std::vector<bool> class_sequence(const BatchParams& params, BatchOrder order) {
  std::vector<bool> large;
  switch (order) {
    case BatchOrder::kSmallestFirst:
      large.assign(static_cast<std::size_t>(params.small_count), false);
      large.insert(large.end(), static_cast<std::size_t>(params.large_count),
                   true);
      break;
    case BatchOrder::kLargestFirst:
      large.assign(static_cast<std::size_t>(params.large_count), true);
      large.insert(large.end(), static_cast<std::size_t>(params.small_count),
                   false);
      break;
    case BatchOrder::kInterleaved: {
      // One large job at the end of every stride of total/large jobs
      // (positions 3, 7, 11, 15 for the paper's 12+4 batch).
      large.assign(static_cast<std::size_t>(params.total()), false);
      if (params.large_count > 0) {
        const int stride = params.total() / params.large_count;
        int placed = 0;
        for (int i = stride - 1; i < params.total() && placed < params.large_count;
             i += stride, ++placed) {
          large[static_cast<std::size_t>(i)] = true;
        }
        // Counts that do not divide evenly: fill from the back.
        for (int i = params.total() - 1; placed < params.large_count; --i) {
          if (!large[static_cast<std::size_t>(i)]) {
            large[static_cast<std::size_t>(i)] = true;
            ++placed;
          }
        }
      }
      break;
    }
  }
  return large;
}

}  // namespace

std::vector<sched::JobSpec> make_batch(const BatchParams& params,
                                       BatchOrder order) {
  std::vector<sched::JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(params.total()));
  for (bool large : class_sequence(params, order)) {
    specs.push_back(make_batch_job(params, large));
  }
  return specs;
}

}  // namespace tmc::workload
