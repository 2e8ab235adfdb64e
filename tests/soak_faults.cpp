// Soak test: sustained serving under continuous crash/recover cycles must
// not grow.
//
// The recovery path is where a simulator leaks: every crash aborts resident
// processes mid-flight (parked worms, queued mailbox allocations, pending
// MMU grants, half-built spans), and every repair re-forms partitions and
// requeues jobs. This binary overrides global operator new/delete with
// counting versions, runs the open-arrival serving loop with node crashes,
// link flaps and message drops all armed -- once on a WORMHOLE machine
// (crash teardown exercises the worm-slot pool) and once on a
// STORE-AND-FORWARD machine (transfer units park on downed links and are
// torn down mid-route) -- and fails unless, on each engine,
//   (1) live heap allocations PLATEAU: after the first quarter of the run,
//       the live count never exceeds the quarter-mark count by more than a
//       fixed headroom -- flat in the number of crash/recover episodes;
//   (2) simulated time and completions are MONOTONE across checkpoints;
//   (3) every admitted job retired its slot: finished, or exhausted its
//       restart budget and was counted lost. Nothing leaks, nothing hangs.
// Default 200k jobs (~thousands of fault episodes); TMC_SOAK_JOBS scales.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/serve.h"

namespace {

std::atomic<std::int64_t> g_live_allocs{0};
std::atomic<std::int64_t> g_total_allocs{0};

void* counted_alloc(std::size_t size) {
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  g_total_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_allocs.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace {

using namespace tmc;

std::vector<workload::JobClass> soak_mix() {
  workload::JobClass interactive;
  interactive.name = "interactive";
  interactive.weight = 3.0;
  interactive.service.kind = workload::ServiceModel::Kind::kExponential;
  interactive.service.mean_s = 0.08;
  interactive.arch = sched::SoftwareArch::kAdaptive;

  workload::JobClass batch;
  batch.name = "batch";
  batch.weight = 1.0;
  batch.service.kind = workload::ServiceModel::Kind::kPareto;
  batch.service.mean_s = 0.5;
  batch.service.shape = 1.6;
  batch.service.cap_s = 10.0;
  batch.arch = sched::SoftwareArch::kAdaptive;
  return {interactive, batch};
}

struct Snapshot {
  core::ServeCheckpoint checkpoint;
  std::int64_t live_allocs = 0;
};

/// One soak on one switching mode; returns the number of failed checks.
int soak(bool wormhole, std::uint64_t jobs) {
  const char* engine = wormhole ? "wormhole" : "store-forward";
  core::ServeConfig config;
  config.machine.wormhole = wormhole;
  config.machine.policy.kind = sched::PolicyKind::kHybrid;
  config.machine.policy.partition_size = 4;
  // Aggressive fault processes: at rate 25/s a 200k-job run covers ~8000
  // simulated seconds, i.e. ~25k node crash/recover cycles at MTBF 5 s.
  config.machine.faults.node_rate = 0.2;
  config.machine.faults.node_mttr_s = 0.3;
  config.machine.faults.link_rate = 0.05;
  config.machine.faults.link_mttr_s = 0.2;
  config.machine.faults.drop_prob = 0.01;
  config.machine.faults.heartbeat_s = 0.1;
  config.process.kind = workload::ArrivalProcess::Kind::kPoisson;
  config.process.rate_per_s = 25.0;
  config.classes = soak_mix();
  config.total_jobs = jobs;
  config.warmup_jobs = jobs / 10;
  config.seed = 1;
  config.checkpoint_every = jobs / 40;

  std::vector<Snapshot> snapshots;
  const std::int64_t total_before =
      g_total_allocs.load(std::memory_order_relaxed);
  config.checkpoint = [&snapshots](const core::ServeCheckpoint& cp) {
    snapshots.push_back(
        {cp, g_live_allocs.load(std::memory_order_relaxed)});
  };

  const core::ServeResult result = core::run_sustained(config);

  int failures = 0;
  const auto fail = [&failures, engine](const char* what) {
    std::fprintf(stderr, "soak_faults: %s: FAIL: %s\n", engine, what);
    ++failures;
  };

  if (result.completed != result.admitted) fail("admitted jobs went missing");
  if (result.completed + result.shed != jobs) fail("arrivals not conserved");
  if (result.machine.faults.crashes == 0) fail("no crashes were injected");
  if (result.machine.faults.repairs == 0) fail("no repairs happened");
  if (snapshots.size() < 10) fail("too few checkpoints to judge a plateau");

  // Monotone forward progress -- under faults this additionally proves the
  // requeue/restart path never replays or loses a completion.
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    if (snapshots[i].checkpoint.now_s < snapshots[i - 1].checkpoint.now_s) {
      fail("simulated time went backwards between checkpoints");
      break;
    }
    if (snapshots[i].checkpoint.completed <=
        snapshots[i - 1].checkpoint.completed) {
      fail("completion counter did not advance between checkpoints");
      break;
    }
  }

  // Allocation plateau after the first quarter: the job arena, the engine's
  // transfer pools and the fault machinery must all recycle across
  // episodes. The headroom absorbs churn; it must NOT absorb per-episode
  // growth, which at thousands of crash cycles would dwarf it.
  const std::size_t quarter = snapshots.size() / 4;
  const std::int64_t at_quarter = snapshots[quarter].live_allocs;
  const std::int64_t headroom =
      std::max<std::int64_t>(2'000, at_quarter / 5);
  std::int64_t peak_after = 0;
  for (std::size_t i = quarter; i < snapshots.size(); ++i) {
    peak_after = std::max(peak_after, snapshots[i].live_allocs);
  }
  std::fprintf(stderr,
               "soak_faults: %s: %llu jobs, %llu crashes / %llu repairs, "
               "%llu restarts, %llu lost, live allocs %lld @25%% -> "
               "peak %lld after (headroom %lld), %lld total allocs\n",
               engine, static_cast<unsigned long long>(jobs),
               static_cast<unsigned long long>(result.machine.faults.crashes),
               static_cast<unsigned long long>(result.machine.faults.repairs),
               static_cast<unsigned long long>(
                   result.machine.faults.job_restarts),
               static_cast<unsigned long long>(result.jobs_lost),
               static_cast<long long>(at_quarter),
               static_cast<long long>(peak_after),
               static_cast<long long>(headroom),
               static_cast<long long>(
                   g_total_allocs.load(std::memory_order_relaxed) -
                   total_before));
  if (peak_after > at_quarter + headroom) {
    fail("live allocation count kept growing across crash/recover cycles");
  }

  return failures;
}

}  // namespace

int main() {
  std::uint64_t jobs = 200'000;
  if (const char* env = std::getenv("TMC_SOAK_JOBS")) {
    const unsigned long long parsed = std::strtoull(env, nullptr, 10);
    if (parsed < 100) {
      std::fprintf(stderr, "soak_faults: TMC_SOAK_JOBS must be >= 100\n");
      return 2;
    }
    jobs = parsed;
  }
  const int failures = soak(/*wormhole=*/true, jobs) +
                       soak(/*wormhole=*/false, jobs);
  if (failures == 0) {
    std::fprintf(stderr, "soak_faults: PASS\n");
    return 0;
  }
  return 1;
}
