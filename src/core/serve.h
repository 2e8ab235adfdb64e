// tmcsim -- sustained open-arrival serving (the long-lived traffic mode).
//
// The paper's experiments are closed 16-job batches; this loop opens the
// system. An ArrivalStream feeds jobs one event at a time for as long as
// configured (a hundred-job A10 stream or millions of serving jobs), an
// admission gate sheds arrivals past a bounded backlog, and all
// statistics are the O(1)-memory streaming estimators of
// sim/streaming_stats.h, so resident memory stays flat no matter how long
// the run. Job ids (and with them the comm system's per-job endpoint
// windows) are recycled, completed Job objects are freed at the next
// arrival, and the one scheduler-side leak (AdaptiveScheduler's retired
// partitions) is reclaimed per completion -- the soak test pins all three.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/machine.h"
#include "obs/slo.h"
#include "sim/stats.h"
#include "sim/streaming_stats.h"
#include "workload/arrivals.h"

namespace tmc::core {

/// Progress snapshot handed to the checkpoint callback (soak tests read
/// their allocator counters at these points; monitoring could log them).
struct ServeCheckpoint {
  std::uint64_t offered = 0;    // arrivals generated so far
  std::uint64_t completed = 0;  // jobs finished so far
  std::uint64_t shed = 0;       // arrivals refused by admission
  std::size_t live_jobs = 0;    // Job objects currently allocated
  double now_s = 0.0;           // simulated clock at the checkpoint
};

struct ServeConfig {
  MachineConfig machine{};
  workload::ArrivalProcess process{};
  /// Tenant mix; at least one class. Class order defines report order.
  std::vector<workload::JobClass> classes;
  /// Arrivals to generate (a trace shorter than this ends the run early).
  std::uint64_t total_jobs = 1'000'000;
  /// Leading arrivals excluded from response statistics while the system
  /// reaches steady state.
  std::uint64_t warmup_jobs = 1'000;
  /// Bound on jobs in the system (queued + running) for admission
  /// (0 = admit everything; see sched/admission.h). Essential above
  /// saturation: without it the queue and memory grow without bound.
  std::size_t max_backlog = 10'000;
  /// Per-class weighted reservoir capacity (response-time samples).
  std::size_t reservoir_capacity = 4'096;
  /// Width of the completion-rate windows, simulated seconds.
  double window_s = 10.0;
  std::uint64_t seed = 1;
  /// Invoke `checkpoint` every this many completions (0 = never).
  std::uint64_t checkpoint_every = 0;
  std::function<void(const ServeCheckpoint&)> checkpoint;
  /// Builds the job of one admitted arrival. The default is the synthetic
  /// fork/join job of the serving mixes; bench A10 plugs in the paper's
  /// matmul batch jobs (workload::make_batch_job).
  std::function<sched::JobSpec(const workload::JobClass&,
                               const workload::Arrival&)>
      make_job = workload::make_arrival_job;
  /// Per-class response-time targets (each must name a class in `classes`;
  /// empty = no SLO accounting). Tracked for every run regardless of
  /// instrumentation, so sweep summaries stay identical policy to policy;
  /// with a hub attached the tracker additionally feeds sampler channels
  /// (slo:<class> attainment / budget_burn / stretch_p99).
  std::vector<obs::SloTarget> slo_targets;
};

/// Per-class streaming accounting. Everything here is O(1) memory (the
/// reservoir is fixed capacity) and deterministic from the config seed.
struct ClassServeStats {
  std::string name;
  std::uint64_t offered = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  /// Completions that were fault aborts past their restart budget: the job
  /// left the system without finishing its work. Counted inside
  /// `completed` (the slot is retired either way) but excluded from the
  /// response statistics, which only describe successful work.
  std::uint64_t lost = 0;
  std::uint64_t measured = 0;  // completions contributing to stats below
  sim::OnlineStats response_s;        // mean response time (the paper's MRT)
  sim::OnlineStats stretch;           // response / service demand (fairness)
  sim::QuantileTrio response_q;       // streaming p50/p95/p99 response
  sim::QuantileTrio stretch_q;        // streaming p50/p95/p99 stretch
  sim::ReservoirSample response_sample;  // weighted reservoir of responses

  ClassServeStats(std::string name_, std::size_t reservoir_capacity,
                  std::uint64_t reservoir_seed)
      : name(std::move(name_)),
        response_sample(reservoir_capacity, reservoir_seed) {}
};

struct ServeResult {
  std::vector<ClassServeStats> classes;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  /// Jobs that exhausted their restart budget under faults (summed over
  /// classes; zero on reliable machines).
  std::uint64_t jobs_lost = 0;
  std::uint64_t measured = 0;
  sim::OnlineStats response_s;   // all measured classes pooled
  sim::OnlineStats stretch;
  sim::QuantileTrio response_q;
  /// Completion throughput per window_s-wide window of simulated time.
  sim::OnlineStats window_rate;
  double horizon_s = 0.0;        // simulated clock when the system drained
  /// High-water mark of allocated Job objects (flat-memory evidence).
  std::size_t peak_live_jobs = 0;
  /// SLO accounting over measured completions (empty unless slo_targets
  /// were configured); one entry per target, in target order.
  obs::SloTracker slo;
  MachineStats machine;
};

/// Serves the configured stream to completion and reports streaming
/// statistics. Deterministic from the config (bit-identical at any host
/// thread count); throws std::runtime_error if the machine cannot drain
/// the admitted jobs within its watchdog.
[[nodiscard]] ServeResult run_sustained(const ServeConfig& config);

}  // namespace tmc::core
