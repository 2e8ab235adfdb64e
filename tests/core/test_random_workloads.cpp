// Fuzz-style system tests: randomized (but deadlock-free-by-construction)
// communication DAGs hammered through every policy. These catch scheduler,
// network and allocator interactions the structured workloads never hit.
// A second family draws whole machine configurations at random and checks
// that arming the registry and the timeline changes nothing in the run; a
// third checks that each draw ends quiescent and replays exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/machine.h"
#include "core/report.h"
#include "obs/hub.h"
#include "workload/random_workload.h"

namespace tmc::core {
namespace {

using Param = std::tuple<sched::PolicyKind, int, std::uint64_t>;

class RandomWorkloadFuzz : public ::testing::TestWithParam<Param> {};

TEST_P(RandomWorkloadFuzz, BatchRunsCleanly) {
  const auto [policy, partition, seed] = GetParam();

  MachineConfig cfg;
  cfg.topology = net::TopologyKind::kMesh;
  cfg.policy.kind = policy;
  cfg.policy.partition_size = partition;
  cfg.policy.basic_quantum = sim::SimTime::milliseconds(10);
  Multicomputer machine(cfg);

  workload::RandomWorkloadParams params;
  params.arch = seed % 2 == 0 ? sched::SoftwareArch::kFixed
                              : sched::SoftwareArch::kAdaptive;
  params.max_message = 32 * 1024;

  std::vector<std::unique_ptr<sched::Job>> jobs;
  for (sched::JobId i = 1; i <= 10; ++i) {
    jobs.push_back(std::make_unique<sched::Job>(
        i, workload::make_random_job(params, seed * 100 + i)));
    machine.submit(*jobs.back());
  }
  machine.run_to_completion();

  for (const auto& job : jobs) {
    EXPECT_TRUE(job->completed());
    EXPECT_GT(job->consumed_cpu(), sim::SimTime::zero());
  }
  for (int node = 0; node < cfg.processors; ++node) {
    EXPECT_EQ(machine.mmu(node).bytes_used(), 0u) << "node " << node;
    EXPECT_EQ(machine.mmu(node).pending_requests(), 0u);
  }
  EXPECT_EQ(machine.network().in_flight(), 0u);
  EXPECT_EQ(machine.comm().deliveries(), machine.comm().sends());
  EXPECT_TRUE(machine.sim().idle());
}

std::string fuzz_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [policy, partition, seed] = info.param;
  std::string name;
  switch (policy) {
    case sched::PolicyKind::kStatic: name = "Static"; break;
    case sched::PolicyKind::kTimeSharing: name = "TS"; break;
    case sched::PolicyKind::kHybrid: name = "Hybrid"; break;
    case sched::PolicyKind::kAdaptiveStatic: name = "Adaptive"; break;
  }
  return name + "p" + std::to_string(partition) + "s" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomWorkloadFuzz,
    ::testing::Combine(::testing::Values(sched::PolicyKind::kStatic,
                                         sched::PolicyKind::kHybrid,
                                         sched::PolicyKind::kTimeSharing,
                                         sched::PolicyKind::kAdaptiveStatic),
                       ::testing::Values(4, 16),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    fuzz_name);

// --- Armed/unarmed differential over random configurations ---------------

/// One seeded draw over the feature space: application, policy, topology,
/// partition size, switching mode and packet size, stealing, faults.
struct Draw {
  workload::App app = workload::App::kMatMul;
  sched::SoftwareArch arch = sched::SoftwareArch::kFixed;
  sched::PolicyKind policy = sched::PolicyKind::kStatic;
  net::TopologyKind topology = net::TopologyKind::kMesh;
  int partition = 4;
  bool wormhole = false;
  std::size_t packet = 0;
  fault::FaultConfig faults{};  // all rates zero: no faults
};

template <class T, std::size_t N>
T pick(std::mt19937_64& rng, const T (&options)[N]) {
  return options[std::uniform_int_distribution<std::size_t>(0, N - 1)(rng)];
}

Draw draw_config(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Draw d;
  d.app = pick(rng, {workload::App::kMatMul, workload::App::kSort});
  d.policy = pick(rng, {sched::PolicyKind::kStatic,
                        sched::PolicyKind::kTimeSharing,
                        sched::PolicyKind::kHybrid,
                        sched::PolicyKind::kAdaptiveStatic});
  d.topology = pick(rng, {net::TopologyKind::kLinear, net::TopologyKind::kRing,
                          net::TopologyKind::kMesh,
                          net::TopologyKind::kHypercube,
                          net::TopologyKind::kTorus, net::TopologyKind::kTree});
  d.partition = pick(rng, {2, 4, 8, 16});
  d.wormhole = pick(rng, {false, true});
  // Wormhole switching carries whole messages.
  if (!d.wormhole) d.packet = pick(rng, {std::size_t{0}, std::size_t{256},
                                         std::size_t{1024}, std::size_t{4096}});
  const bool stealing = pick(rng, {false, true});
  d.arch = stealing ? sched::SoftwareArch::kStealing
                    : pick(rng, {sched::SoftwareArch::kFixed,
                                 sched::SoftwareArch::kAdaptive});
  if (pick(rng, {false, true})) {
    d.faults.node_rate = pick(rng, {0.0, 0.02, 0.05});
    d.faults.node_mttr_s = 0.5;
    d.faults.link_rate = pick(rng, {0.0, 0.02, 0.05});
    d.faults.link_mttr_s = 0.2;
    d.faults.drop_prob = pick(rng, {0.001, 0.01});
    d.faults.seed = seed;
  }
  return d;
}

core::ExperimentConfig experiment_config(const Draw& d) {
  // tmc_cli's assembly, so that flag_line() reproduces the run.
  auto config = core::figure_point(d.app, d.arch, d.policy, d.partition,
                                   d.topology);
  config.machine.wormhole = d.wormhole;
  config.machine.network.packet_bytes = d.packet;
  if (d.arch == sched::SoftwareArch::kStealing) {
    config.machine.stealing.steal_rate = 10000.0;
  }
  config.machine.faults = d.faults;
  return config;
}

std::string print(const char* format, double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, format, x);
  return buf;
}

/// The tmc_cli command line that runs the draw, plain and armed.
std::string flag_line(const Draw& d) {
  static constexpr const char* kPolicies[] = {"static", "ts", "hybrid",
                                              "adaptive"};
  static constexpr const char* kArchs[] = {"fixed", "adaptive", "stealing"};
  static constexpr const char* kTopologies[] = {"linear", "ring",  "mesh",
                                                "hypercube", "torus", "tree"};
  std::string line = "tmc_cli --app ";
  line += d.app == workload::App::kMatMul ? "matmul" : "sort";
  line += std::string(" --arch ") + kArchs[static_cast<int>(d.arch)];
  line += std::string(" --policy ") + kPolicies[static_cast<int>(d.policy)];
  line += " --partition " + std::to_string(d.partition);
  line += std::string(" --topology ") +
          kTopologies[static_cast<int>(d.topology)];
  if (d.wormhole) line += " --wormhole";
  if (d.packet != 0) line += " --packet " + std::to_string(d.packet);
  line += " --order interleaved";
  if (d.faults.enabled()) {
    line += " --fault-rate " + print("%g", d.faults.node_rate) +
            " --fault-mttr " + print("%g", d.faults.node_mttr_s) +
            " --fault-link-rate " + print("%g", d.faults.link_rate) +
            " --fault-link-mttr " + print("%g", d.faults.link_mttr_s) +
            " --fault-drop " + print("%g", d.faults.drop_prob) +
            " --fault-seed " + std::to_string(d.faults.seed);
  }
  return line + " [--metrics=m.json --timeline=t.json]";
}

/// Every MachineStats field, named, as an exact decimal string.
std::vector<std::pair<std::string, std::string>> stat_fields(
    const MachineStats& s) {
  const auto exact = [](double x) { return print("%.17g", x); };
  const auto n = [](auto x) { return std::to_string(x); };
  return {
      {"events", n(s.events)},
      {"quantum_steps", n(s.quantum_steps)},
      {"scheduled_events", n(s.scheduled_events)},
      {"peak_pending_events", n(s.peak_pending_events)},
      {"messages", n(s.messages)},
      {"self_sends", n(s.self_sends)},
      {"total_hops", n(s.total_hops)},
      {"avg_cpu_utilization", exact(s.avg_cpu_utilization)},
      {"max_link_utilization", exact(s.max_link_utilization)},
      {"peak_node_memory", n(s.peak_node_memory)},
      {"mem_blocked_requests", n(s.mem_blocked_requests)},
      {"mem_block_time", n(s.mem_block_time.ns())},
      {"context_switches", n(s.context_switches)},
      {"high_preemptions", n(s.high_preemptions)},
      {"quantum_expiries", n(s.quantum_expiries)},
      {"faults.crashes", n(s.faults.crashes)},
      {"faults.repairs", n(s.faults.repairs)},
      {"faults.link_downs", n(s.faults.link_downs)},
      {"faults.link_ups", n(s.faults.link_ups)},
      {"faults.drops", n(s.faults.drops)},
      {"faults.retries", n(s.faults.retries)},
      {"faults.messages_lost", n(s.faults.messages_lost)},
      {"faults.job_restarts", n(s.faults.job_restarts)},
      {"faults.jobs_failed", n(s.faults.jobs_failed)},
      {"faults.mtbf_observed_s", exact(s.faults.mtbf_observed_s)},
      {"faults.mttr_observed_s", exact(s.faults.mttr_observed_s)},
      {"steals.requests", n(s.steals.requests)},
      {"steals.grants", n(s.steals.grants)},
      {"steals.denials", n(s.steals.denials)},
      {"steals.tasks_migrated", n(s.steals.tasks_migrated)},
      {"steals.bytes_migrated", n(s.steals.bytes_migrated)},
  };
}

class ArmedDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArmedDifferential, ArmedRunMatchesPlain) {
  const Draw draw = draw_config(GetParam());
  SCOPED_TRACE("reproduce with: " + flag_line(draw));
  const core::ExperimentConfig config = experiment_config(draw);
  const core::RunResult plain =
      core::run_batch(config, workload::BatchOrder::kInterleaved);

  obs::Options options;
  options.metrics = true;
  options.timeline_path = "unused.json";  // presence arms the timeline
  obs::Hub hub(options);
  core::ExperimentConfig armed_config = config;
  armed_config.machine.obs = &hub;
  const core::RunResult armed =
      core::run_batch(armed_config, workload::BatchOrder::kInterleaved);
  ASSERT_NE(hub.timeline(), nullptr);
  EXPECT_FALSE(hub.timeline()->records().empty());

  const auto a = stat_fields(plain.machine);
  const auto b = stat_fields(armed.machine);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].second, b[i].second) << a[i].first;
  }
  EXPECT_EQ(plain.makespan_s, armed.makespan_s);
  ASSERT_EQ(plain.jobs.size(), armed.jobs.size());
  for (std::size_t i = 0; i < plain.jobs.size(); ++i) {
    EXPECT_EQ(plain.jobs[i].id, armed.jobs[i].id);
    EXPECT_EQ(plain.jobs[i].response_s, armed.jobs[i].response_s)
        << "job " << plain.jobs[i].id;
    EXPECT_EQ(plain.jobs[i].wait_s, armed.jobs[i].wait_s)
        << "job " << plain.jobs[i].id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Draws, ArmedDifferential, ::testing::Range<std::uint64_t>(1, 33),
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

// --- Quiescence and replay over the same draws ----------------------------

/// The draw whose run ends with messages parked behind a link that is still
/// down: units of a restarted job's aborted first run, which hold their
/// buffers because the run stops once only fault bookkeeping remains.
constexpr std::uint64_t kParkedDraw = 23;

class DrawQuiescence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DrawQuiescence, EndsDrainedAndReplays) {
  const Draw draw = draw_config(GetParam());
  SCOPED_TRACE("reproduce with: " + flag_line(draw));
  const core::ExperimentConfig config = experiment_config(draw);

  Multicomputer machine(config.machine);
  auto specs =
      workload::make_batch(config.batch, workload::BatchOrder::kInterleaved);
  std::vector<std::unique_ptr<sched::Job>> jobs;
  sched::JobId id = 1;
  for (auto& spec : specs) {
    jobs.push_back(std::make_unique<sched::Job>(id++, std::move(spec)));
    machine.submit(*jobs.back());
  }
  machine.run_to_completion();

  for (const auto& job : jobs) {
    EXPECT_TRUE(job->completed()) << "job " << job->id();
  }
  // Nothing is in flight and no MMU holds a buffer, unless messages are
  // parked behind a link that is still down when the run stops: only they
  // are then in flight.
  const std::size_t parked = machine.network().parked_messages();
  EXPECT_EQ(machine.network().in_flight(), parked);
  std::uint64_t held = 0;
  for (int node = 0; node < machine.config().processors; ++node) {
    EXPECT_EQ(machine.mmu(node).pending_requests(), 0u) << "node " << node;
    if (parked == 0) {
      EXPECT_EQ(machine.mmu(node).bytes_used(), 0u) << "node " << node;
    }
    held += machine.mmu(node).bytes_used();
  }
  const bool parked_draw = GetParam() == kParkedDraw;
  EXPECT_EQ(parked, parked_draw ? 5u : 0u);
  EXPECT_EQ(held, parked_draw ? 153'680u : 0u);
  // Without faults no message is lost: every send, self-sends included
  // (they count in both), was delivered.
  if (!draw.faults.enabled()) {
    EXPECT_EQ(machine.comm().deliveries(), machine.comm().sends());
  }

  // A second plain run of the draw replays the first exactly.
  const core::RunResult replay =
      core::run_batch(config, workload::BatchOrder::kInterleaved);
  const auto a = stat_fields(machine.stats());
  const auto b = stat_fields(replay.machine);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].second, b[i].second) << a[i].first;
  }
  ASSERT_EQ(jobs.size(), replay.jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i]->id(), replay.jobs[i].id);
    EXPECT_EQ(jobs[i]->response_time().to_seconds(), replay.jobs[i].response_s)
        << "job " << jobs[i]->id();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Draws, DrawQuiescence, ::testing::Range<std::uint64_t>(1, 33),
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

TEST(ArmedDifferential, DrawsCoverTheFeatureSpace) {
  // The 32 draws above reach every policy and topology, both switching
  // modes, packets, stealing and faults.
  std::vector<int> policies(4), topologies(6);
  int wormhole = 0, packets = 0, stealing = 0, faults = 0;
  for (std::uint64_t seed = 1; seed < 33; ++seed) {
    const Draw d = draw_config(seed);
    ++policies[static_cast<int>(d.policy)];
    ++topologies[static_cast<int>(d.topology)];
    wormhole += d.wormhole ? 1 : 0;
    packets += d.packet != 0 ? 1 : 0;
    stealing += d.arch == sched::SoftwareArch::kStealing ? 1 : 0;
    faults += d.faults.enabled() ? 1 : 0;
  }
  for (int n : policies) EXPECT_GT(n, 0);
  for (int n : topologies) EXPECT_GT(n, 0);
  EXPECT_GT(wormhole, 0);
  EXPECT_GT(packets, 0);
  EXPECT_GT(stealing, 0);
  EXPECT_GT(faults, 0);
}

TEST(ArmedDifferential, FaultDrawReplaysFromItsLine) {
  // The printed line is a tmc_cli command that runs the whole draw, faults
  // included: ctest row cli_tmc_cli_fault_replay runs exactly this line
  // and requires the makespan pinned here. The draw's faults move it (the
  // same draw without them ends at 3.809 s).
  const Draw d = draw_config(8);
  ASSERT_TRUE(d.faults.enabled());
  EXPECT_EQ(flag_line(d),
            "tmc_cli --app matmul --arch fixed --policy adaptive --partition "
            "16 --topology tree --packet 1024 --order interleaved "
            "--fault-rate 0.02 --fault-mttr 0.5 --fault-link-rate 0.02 "
            "--fault-link-mttr 0.2 --fault-drop 0.01 --fault-seed 8 "
            "[--metrics=m.json --timeline=t.json]");
  const core::RunResult run =
      core::run_batch(experiment_config(d), workload::BatchOrder::kInterleaved);
  EXPECT_EQ(core::fmt_seconds(run.makespan_s), "4.612");
}

TEST(RandomWorkload, StructureIsDeterministicPerSeed) {
  workload::RandomWorkloadParams params;
  const auto a = workload::make_random_job(params, 42);
  const auto b = workload::make_random_job(params, 42);
  sched::Job ja(1, a), jb(1, b);
  const auto pa = a.builder(ja, 8);
  const auto pb = b.builder(jb, 8);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].size(), pb[i].size());
    EXPECT_EQ(pa[i].total_compute(), pb[i].total_compute());
    EXPECT_EQ(pa[i].total_send_bytes(), pb[i].total_send_bytes());
  }
}

TEST(RandomWorkload, SeedsProduceDifferentStructures) {
  workload::RandomWorkloadParams params;
  const auto a = workload::make_random_job(params, 1);
  const auto b = workload::make_random_job(params, 2);
  EXPECT_NE(a.demand_estimate, b.demand_estimate);
}

TEST(RandomWorkload, SendsAndReceivesAreMatched) {
  workload::RandomWorkloadParams params;
  params.messages_per_process = 2.0;
  const auto spec = workload::make_random_job(params, 9);
  sched::Job job(1, spec);
  const auto programs = spec.builder(job, 16);
  int sends = 0, recvs = 0;
  for (const auto& prog : programs) {
    for (const auto& op : prog.ops) {
      sends += std::holds_alternative<node::SendOp>(op) ? 1 : 0;
      recvs += std::holds_alternative<node::ReceiveOp>(op) ? 1 : 0;
    }
  }
  EXPECT_EQ(sends, recvs);
  EXPECT_GT(sends, 0);
}

TEST(RandomWorkload, AdaptiveWidthFollowsPartition) {
  workload::RandomWorkloadParams params;
  params.arch = sched::SoftwareArch::kAdaptive;
  const auto spec = workload::make_random_job(params, 3);
  sched::Job job(1, spec);
  EXPECT_EQ(spec.builder(job, 4).size(), 4u);
  EXPECT_EQ(spec.builder(job, 16).size(), 16u);
}

}  // namespace
}  // namespace tmc::core
