// Tests for the deterministic fault-injection subsystem: CLI rows,
// FaultManager episode mechanics, the Mmu owner-cancel hook a crashing node
// relies on, and the end-to-end recovery invariants of a sustained serving
// run under crashes, link flaps and message drops.
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli/flags.h"
#include "core/machine.h"
#include "core/serve.h"
#include "mem/mmu.h"
#include "net/topology.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace {

using namespace tmc;

// --- CLI parsing -----------------------------------------------------------

/// Parses `args` through a flag table holding the fault rows, the way the
/// benches do; `seen` reports whether any fault flag was stored.
cli::Table::Result parse_all(std::vector<const char*> args,
                             fault::FaultConfig& config, bool& seen) {
  args.insert(args.begin(), "bench");
  cli::Table table("bench", {cli::Family::kFault});
  table.add(fault::cli_flags(config));
  const auto result = table.parse(static_cast<int>(args.size()), args.data());
  seen = table.any_set(cli::Family::kFault);
  return result;
}

TEST(FaultCli, ParsesEveryFlag) {
  bool seen = false;
  fault::FaultConfig config;
  const auto result = parse_all(
      {"--fault-rate", "0.5", "--fault-dist", "weibull", "--fault-shape",
       "1.5", "--fault-mttr", "3", "--fault-link-rate", "0.1",
       "--fault-link-mttr", "0.5", "--fault-drop", "0.01", "--heartbeat",
       "0.1", "--retry-budget", "4", "--retry-backoff", "0.01",
       "--fault-restart-budget", "2", "--fault-seed", "7"},
      config, seen);
  EXPECT_EQ(result.status, cli::Table::Status::kOk) << result.error;
  EXPECT_TRUE(seen);
  EXPECT_DOUBLE_EQ(config.node_rate, 0.5);
  EXPECT_EQ(config.node_dist, fault::FaultDist::kWeibull);
  EXPECT_DOUBLE_EQ(config.node_weibull_shape, 1.5);
  EXPECT_DOUBLE_EQ(config.node_mttr_s, 3.0);
  EXPECT_DOUBLE_EQ(config.link_rate, 0.1);
  EXPECT_DOUBLE_EQ(config.link_mttr_s, 0.5);
  EXPECT_DOUBLE_EQ(config.drop_prob, 0.01);
  EXPECT_DOUBLE_EQ(config.heartbeat_s, 0.1);
  EXPECT_EQ(config.retry_budget, 4);
  EXPECT_DOUBLE_EQ(config.retry_backoff_s, 0.01);
  EXPECT_EQ(config.restart_budget, 2);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_TRUE(config.enabled());
}

TEST(FaultCli, RejectsMalformedValues) {
  for (const auto& bad : std::vector<std::vector<const char*>>{
           {"--fault-rate", "nope"},
           {"--fault-rate", "-1"},
           {"--fault-dist", "gaussian"},
           {"--fault-drop", "1.5"},
           {"--retry-budget", "-2"},
           {"--fault-rate"},  // missing value
       }) {
    fault::FaultConfig config;
    bool seen = false;
    const auto result = parse_all(bad, config, seen);
    EXPECT_EQ(result.status, cli::Table::Status::kError) << "accepted: "
                                                          << bad[0];
    EXPECT_FALSE(result.error.empty()) << "accepted: " << bad[0];
  }
}

TEST(FaultCli, IgnoresUnrelatedFlags) {
  fault::FaultConfig config;
  bool seen = false;
  const auto result = parse_all({"--jobs", "100"}, config, seen);
  // Not a fault row: the table reports it as unknown, not as a fault error.
  EXPECT_EQ(result.error, "unknown flag '--jobs'");
  EXPECT_FALSE(seen);
  EXPECT_FALSE(config.enabled());
}

// --- FaultManager episode mechanics ---------------------------------------

struct EpisodeCounts {
  int crashes = 0;
  int repairs = 0;
  int down_detected = 0;
  int up_detected = 0;
  int link_edges = 0;
  int alive_at_end = 0;
  fault::FaultStats stats;
};

EpisodeCounts run_episodes(const fault::FaultConfig& config, double horizon_s) {
  sim::Simulation sim;
  const net::Topology topo = net::Topology::mesh(16);
  fault::FaultManager fm(sim, topo, config);
  EpisodeCounts out;
  fault::FaultCallbacks cb;
  cb.node_crash = [&](net::NodeId) { ++out.crashes; };
  cb.node_repair = [&](net::NodeId) { ++out.repairs; };
  cb.node_detected = [&](net::NodeId, bool down) {
    if (down) {
      ++out.down_detected;
    } else {
      ++out.up_detected;
    }
  };
  cb.link_changed = [&](net::LinkId, bool) { ++out.link_edges; };
  fm.set_callbacks(std::move(cb));
  fm.start();
  const std::size_t pending = fm.pending_events();
  EXPECT_GT(pending, 0u);
  while (sim.step_until(sim::SimTime::seconds(horizon_s))) {
  }
  EXPECT_EQ(fm.pending_events(), pending);  // chains self-perpetuate
  out.alive_at_end = fm.alive_nodes();
  out.stats = fm.stats();
  return out;
}

fault::FaultConfig busy_config() {
  fault::FaultConfig config;
  config.node_rate = 1.0;  // MTBF 1 s/node: lots of episodes in 30 s
  config.node_mttr_s = 0.2;
  config.link_rate = 0.5;
  config.link_mttr_s = 0.1;
  config.heartbeat_s = 0.05;
  return config;
}

TEST(FaultManager, CrashRepairEpisodesBalance) {
  const EpisodeCounts out = run_episodes(busy_config(), 30.0);
  EXPECT_GT(out.crashes, 0);
  EXPECT_GT(out.repairs, 0);
  EXPECT_GT(out.link_edges, 0);
  // Each node strictly alternates crash -> repair, so globally crashes can
  // lead repairs by at most the node count, and the live census reconciles.
  EXPECT_GE(out.crashes, out.repairs);
  EXPECT_LE(out.crashes - out.repairs, 16);
  EXPECT_EQ(out.alive_at_end, 16 - (out.crashes - out.repairs));
  // Heartbeat detection lags ground truth and may miss episodes shorter
  // than one period, but per node downs lead ups.
  EXPECT_GT(out.down_detected, 0);
  EXPECT_LE(out.down_detected, out.crashes);
  EXPECT_LE(out.up_detected, out.repairs);
  EXPECT_GE(out.down_detected, out.up_detected);
  // Injection-side counters agree with the callback edges.
  EXPECT_EQ(out.stats.crashes, static_cast<std::uint64_t>(out.crashes));
  EXPECT_EQ(out.stats.repairs, static_cast<std::uint64_t>(out.repairs));
  EXPECT_EQ(out.stats.link_downs + out.stats.link_ups,
            static_cast<std::uint64_t>(out.link_edges));
  EXPECT_GT(out.stats.mtbf_observed_s, 0.0);
  EXPECT_GT(out.stats.mttr_observed_s, 0.0);
}

TEST(FaultManager, ReplayIsBitIdentical) {
  const EpisodeCounts a = run_episodes(busy_config(), 30.0);
  const EpisodeCounts b = run_episodes(busy_config(), 30.0);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.down_detected, b.down_detected);
  EXPECT_EQ(a.link_edges, b.link_edges);
  EXPECT_EQ(a.stats.mtbf_observed_s, b.stats.mtbf_observed_s);
  EXPECT_EQ(a.stats.mttr_observed_s, b.stats.mttr_observed_s);
}

TEST(FaultManager, DifferentSeedsDiverge) {
  fault::FaultConfig other = busy_config();
  other.seed = 1234;
  const EpisodeCounts a = run_episodes(busy_config(), 30.0);
  const EpisodeCounts b = run_episodes(other, 30.0);
  EXPECT_NE(a.stats.mtbf_observed_s, b.stats.mtbf_observed_s);
}

TEST(FaultManager, JitterIsSeededUnitInterval) {
  sim::Simulation sim;
  const net::Topology topo = net::Topology::mesh(4);
  fault::FaultConfig config;
  config.node_rate = 0.1;
  fault::FaultManager a(sim, topo, config);
  fault::FaultManager b(sim, topo, config);
  for (int i = 0; i < 100; ++i) {
    const double x = a.jitter();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    EXPECT_EQ(x, b.jitter());  // same seed, same stream
  }
}

// --- Mmu::cancel_owner (crashed node retracting dead requests) -------------

TEST(MmuCancelOwner, DropsQueuedRequestsWithoutCallbacks) {
  sim::Simulation sim;
  mem::Mmu mmu(sim, 1024);
  auto hog = mmu.try_alloc(1024);
  ASSERT_TRUE(hog.has_value());
  int owner_a = 0, owner_b = 0;  // addresses used as tags
  int granted_a = 0, granted_b = 0;
  mmu.request(512, [&](mem::Block b) { ++granted_a; b.release(); }, &owner_a);
  mmu.request(256, [&](mem::Block b) { ++granted_b; b.release(); }, &owner_b);
  EXPECT_EQ(mmu.pending_requests(), 2u);
  EXPECT_EQ(mmu.cancel_owner(&owner_a), 1u);
  EXPECT_EQ(mmu.pending_requests(), 1u);
  hog->release();
  while (sim.step_until(sim::SimTime::seconds(1))) {
  }
  EXPECT_EQ(granted_a, 0);
  EXPECT_EQ(granted_b, 1);
  EXPECT_EQ(mmu.bytes_used(), 0u);
}

TEST(MmuCancelOwner, ReclaimsGrantedButUndeliveredAllocations) {
  sim::Simulation sim;
  mem::Mmu mmu(sim, 1024);
  int owner = 0;
  int granted = 0;
  // Memory is free, so the grant is already carved and parked behind an
  // event; cancelling before the event fires must return the bytes without
  // running the callback.
  mmu.request(512, [&](mem::Block b) { ++granted; b.release(); }, &owner);
  EXPECT_EQ(mmu.cancel_owner(&owner), 1u);
  while (sim.step_until(sim::SimTime::seconds(1))) {
  }
  EXPECT_EQ(granted, 0);
  EXPECT_EQ(mmu.bytes_used(), 0u);
}

// --- End-to-end recovery invariants ----------------------------------------

core::ServeConfig faulty_serve_config() {
  core::ServeConfig config;
  config.machine.topology = net::TopologyKind::kMesh;
  config.machine.policy.kind = sched::PolicyKind::kStatic;
  config.machine.policy.partition_size = 4;
  config.machine.faults.node_rate = 0.2;  // MTBF 5 s/node
  config.machine.faults.node_mttr_s = 0.5;
  config.machine.faults.link_rate = 0.02;
  config.machine.faults.link_mttr_s = 0.2;
  config.machine.faults.drop_prob = 0.01;
  config.machine.faults.heartbeat_s = 0.1;
  config.process.rate_per_s = 25.0;
  workload::JobClass cls;
  cls.name = "small";
  cls.service.kind = workload::ServiceModel::Kind::kExponential;
  cls.service.mean_s = 0.05;
  config.classes = {cls};
  config.total_jobs = 600;
  config.warmup_jobs = 50;
  config.seed = 1;
  return config;
}

TEST(ServeFaults, EveryAdmittedJobFinishesOrExhaustsItsBudget) {
  const core::ServeResult r = core::run_sustained(faulty_serve_config());
  // Conservation: nothing vanishes. Every admitted job retires its slot --
  // by finishing, or by exhausting its restart budget (counted in lost).
  EXPECT_EQ(r.completed, r.admitted);
  EXPECT_EQ(r.offered, r.admitted + r.shed);
  std::uint64_t class_lost = 0;
  for (const auto& cls : r.classes) class_lost += cls.lost;
  EXPECT_EQ(class_lost, r.jobs_lost);
  EXPECT_EQ(r.jobs_lost, r.machine.faults.jobs_failed);
  EXPECT_LE(r.jobs_lost, r.completed);
  // The run actually exercised the machinery.
  EXPECT_GT(r.machine.faults.crashes, 0u);
  EXPECT_GT(r.machine.faults.repairs, 0u);
  EXPECT_GT(r.machine.faults.drops, 0u);
  EXPECT_GT(r.machine.faults.retries, 0u);
  EXPECT_GT(r.machine.faults.job_restarts + r.machine.faults.jobs_failed, 0u);
}

TEST(ServeFaults, FaultyReplayIsBitIdentical) {
  const core::ServeResult a = core::run_sustained(faulty_serve_config());
  const core::ServeResult b = core::run_sustained(faulty_serve_config());
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.jobs_lost, b.jobs_lost);
  EXPECT_EQ(a.machine.faults.crashes, b.machine.faults.crashes);
  EXPECT_EQ(a.machine.faults.retries, b.machine.faults.retries);
  EXPECT_EQ(a.machine.faults.job_restarts, b.machine.faults.job_restarts);
  EXPECT_EQ(a.response_s.mean(), b.response_s.mean());  // bit-identical
  EXPECT_EQ(a.horizon_s, b.horizon_s);
}

TEST(ServeFaults, ZeroRestartBudgetFailsAbortedJobsInsteadOfHanging) {
  core::ServeConfig config = faulty_serve_config();
  config.machine.faults.restart_budget = 0;
  const core::ServeResult r = core::run_sustained(config);
  EXPECT_EQ(r.completed, r.admitted);
  EXPECT_GT(r.jobs_lost, 0u);
  EXPECT_EQ(r.machine.faults.job_restarts, 0u);
}

TEST(ServeFaults, LossesAreExcludedFromResponseStats) {
  core::ServeConfig config = faulty_serve_config();
  config.machine.faults.restart_budget = 0;
  const core::ServeResult r = core::run_sustained(config);
  // measured counts successful post-warmup completions only, and lost jobs
  // are never measured, so the two partitions of completed never overlap.
  EXPECT_LE(r.measured + r.jobs_lost, r.completed);
  EXPECT_GT(r.response_s.mean(), 0.0);
}

TEST(ServeFaults, DisabledConfigBuildsNoManager) {
  core::MachineConfig config;
  EXPECT_FALSE(config.faults.enabled());
  core::Multicomputer machine(config);
  EXPECT_EQ(machine.fault_manager(), nullptr);
}

}  // namespace
