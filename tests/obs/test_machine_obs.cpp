// Integration: the obs hub wired through a full machine run.
//
// The load-bearing property is inertness -- attaching metrics, a timeline,
// and the interval sampler must not move a single simulated event -- plus
// coverage: every instrument family the design promises (node CPU/memory,
// links, partitions, comm, kernel self-profile) shows up in the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "obs/hub.h"

namespace tmc::core {
namespace {

ExperimentConfig tiny_config() {
  auto config = figure_point(workload::App::kMatMul,
                             sched::SoftwareArch::kAdaptive,
                             sched::PolicyKind::kHybrid, 4,
                             net::TopologyKind::kMesh);
  config.batch.small_size = 16;
  config.batch.large_size = 32;
  return config;
}

obs::Options full_options() {
  obs::Options options;
  options.metrics = true;
  options.timeline_path = "unused.json";  // presence arms the timeline
  return options;
}

bool has_metric(const std::vector<obs::Registry::View>& views,
                const std::string& name) {
  return std::any_of(views.begin(), views.end(),
                     [&name](const auto& v) { return v.name == name; });
}

/// Runs `config` plain and with every instrument armed. Instruments only
/// record, so the armed run fires, steps and schedules exactly the plain
/// run's events.
struct InertPair {
  RunResult plain;
  RunResult observed;
};

InertPair expect_inert(const ExperimentConfig& config, obs::Hub& hub) {
  InertPair runs;
  runs.plain = run_batch(config, workload::BatchOrder::kInterleaved);
  auto observed_config = config;
  observed_config.machine.obs = &hub;
  runs.observed =
      run_batch(observed_config, workload::BatchOrder::kInterleaved);
  const RunResult& plain = runs.plain;
  const RunResult& observed = runs.observed;

  // Byte-level determinism claim: same events, same clock, same responses.
  EXPECT_EQ(plain.machine.events, observed.machine.events);
  EXPECT_EQ(plain.machine.quantum_steps, observed.machine.quantum_steps);
  EXPECT_EQ(plain.machine.scheduled_events,
            observed.machine.scheduled_events);
  EXPECT_EQ(plain.machine.messages, observed.machine.messages);
  EXPECT_EQ(plain.machine.context_switches, observed.machine.context_switches);
  EXPECT_EQ(plain.machine.quantum_expiries, observed.machine.quantum_expiries);
  EXPECT_DOUBLE_EQ(plain.makespan_s, observed.makespan_s);
  EXPECT_EQ(plain.jobs.size(), observed.jobs.size());
  for (std::size_t i = 0;
       i < std::min(plain.jobs.size(), observed.jobs.size()); ++i) {
    EXPECT_DOUBLE_EQ(plain.jobs[i].response_s, observed.jobs[i].response_s);
    EXPECT_DOUBLE_EQ(plain.jobs[i].wait_s, observed.jobs[i].wait_s);
  }

  // And the observed run actually recorded something.
  EXPECT_GT(hub.registry().size(), 0u);
  EXPECT_NE(hub.timeline(), nullptr);
  if (hub.timeline() != nullptr) {
    EXPECT_FALSE(hub.timeline()->records().empty());
  }
  return runs;
}

TEST(MachineObs, FullInstrumentationIsInert) {
  obs::Hub hub(full_options());
  (void)expect_inert(tiny_config(), hub);
}

TEST(MachineObs, FullInstrumentationIsInertWhenProcessesRunAlone) {
  // Space sharing runs one process per node, so both runs step their
  // quantum boundaries silently.
  auto config = figure_point(workload::App::kMatMul,
                             sched::SoftwareArch::kFixed,
                             sched::PolicyKind::kStatic, 4,
                             net::TopologyKind::kMesh);
  config.batch.small_size = 16;
  config.batch.large_size = 32;
  obs::Hub hub(full_options());
  const InertPair runs = expect_inert(config, hub);
  EXPECT_GT(runs.plain.machine.quantum_steps, 0u);
}

TEST(MachineObs, RegistryCoversEveryInstrumentFamily) {
  obs::Hub hub(full_options());
  auto config = tiny_config();
  config.machine.obs = &hub;
  (void)run_batch(config, workload::BatchOrder::kInterleaved);

  const auto views = hub.registry().snapshot();
  // Kernel self-profile.
  EXPECT_TRUE(has_metric(views, "kernel.events_fired"));
  EXPECT_TRUE(has_metric(views, "kernel.pending_peak"));
  // Scheduling hierarchy.
  EXPECT_TRUE(has_metric(views, "sched.completed"));
  EXPECT_TRUE(has_metric(views, "partition0.active_jobs"));
  EXPECT_TRUE(has_metric(views, "partition3.gang_switches"));
  // Per-node CPU and memory (all 16 nodes registered).
  EXPECT_TRUE(has_metric(views, "node0.cpu.utilization"));
  EXPECT_TRUE(has_metric(views, "node15.cpu.context_switches"));
  EXPECT_TRUE(has_metric(views, "node0.mem.alloc_waits"));
  EXPECT_TRUE(has_metric(views, "node0.mem.grant_wait_s"));
  // Links and comm.
  EXPECT_TRUE(has_metric(views, "link0.transfers"));
  EXPECT_TRUE(has_metric(views, "link0.utilization"));
  EXPECT_TRUE(has_metric(views, "net.parks"));
  EXPECT_TRUE(has_metric(views, "comm.sends"));
  EXPECT_TRUE(has_metric(views, "comm.mailbox_pending"));

  // A frozen probe must carry the run's final value.
  const auto it = std::find_if(views.begin(), views.end(), [](const auto& v) {
    return v.name == "kernel.events_fired";
  });
  ASSERT_NE(it, views.end());
  EXPECT_GT(it->value, 0.0);
}

TEST(MachineObs, WormholeRunRegistersPoolMetrics) {
  obs::Options options;
  options.metrics = true;
  obs::Hub hub(options);
  auto config = tiny_config();
  config.machine.wormhole = true;
  config.machine.obs = &hub;
  (void)run_batch(config, workload::BatchOrder::kInterleaved);
  const auto views = hub.registry().snapshot();
  EXPECT_TRUE(has_metric(views, "net.worm_peak"));
  EXPECT_TRUE(has_metric(views, "net.worm_pool_capacity"));
}

TEST(MachineObs, TimelineHasPerComponentTracksAndRecords) {
  obs::Hub hub(full_options());
  auto config = tiny_config();
  config.machine.obs = &hub;
  (void)run_batch(config, workload::BatchOrder::kInterleaved);

  const obs::Timeline& tl = *hub.timeline();
  int nodes = 0, links = 0, partitions = 0;
  for (const auto& track : tl.tracks()) {
    nodes += track.kind == obs::TrackKind::kNode;
    links += track.kind == obs::TrackKind::kLink;
    partitions += track.kind == obs::TrackKind::kPartition;
  }
  EXPECT_EQ(nodes, 16);
  EXPECT_GT(links, 0);
  EXPECT_EQ(partitions, 4);

  bool saw_span = false, saw_sample = false;
  for (const auto& r : tl.records()) {
    saw_span |= r.kind == obs::RecordKind::kSpan;
    saw_sample |= r.kind == obs::RecordKind::kSample;
  }
  EXPECT_TRUE(saw_span);    // CPU charges / link transfers
  EXPECT_TRUE(saw_sample);  // interval sampler output
}

TEST(MachineObs, JobSpansAndFlowsRecordWhenTimelineArmed) {
  obs::Hub hub(full_options());
  auto config = tiny_config();
  config.machine.job_class_names = {"small", "large"};
  config.machine.obs = &hub;
  (void)run_batch(config, workload::BatchOrder::kInterleaved);

  const obs::Timeline& tl = *hub.timeline();
  int job_tracks = 0;
  for (const auto& track : tl.tracks()) {
    job_tracks += track.kind == obs::TrackKind::kJob;
  }
  EXPECT_EQ(job_tracks, 2);  // one per declared class

  // Async job spans balance begin/end; message flows pair start/finish
  // with matching ids (the cross-node arrows in Perfetto).
  int async_depth = 0;
  std::size_t async_pairs = 0;
  std::vector<std::uint64_t> flow_open;
  std::size_t flow_pairs = 0;
  for (const auto& r : tl.records()) {
    switch (r.kind) {
      case obs::RecordKind::kAsyncBegin:
        ++async_depth;
        break;
      case obs::RecordKind::kAsyncEnd:
        --async_depth;
        ASSERT_GE(async_depth, 0);
        ++async_pairs;
        break;
      case obs::RecordKind::kFlowStart:
        flow_open.push_back(r.id);
        break;
      case obs::RecordKind::kFlowFinish: {
        const auto it =
            std::find(flow_open.begin(), flow_open.end(), r.id);
        ASSERT_NE(it, flow_open.end()) << "flow finish without start";
        flow_open.erase(it);
        ++flow_pairs;
        break;
      }
      default:
        break;
    }
  }
  EXPECT_EQ(async_depth, 0);
  EXPECT_GT(async_pairs, 0u);
  EXPECT_GT(flow_pairs, 0u);
  EXPECT_TRUE(flow_open.empty());
}

TEST(MachineObs, NoJobTrackerWithoutTimeline) {
  // Metrics alone must not create the per-job layer (it exists only to
  // feed timeline tracks).
  obs::Options options;
  options.metrics = true;
  obs::Hub hub(options);
  auto config = tiny_config();
  config.machine.obs = &hub;
  (void)run_batch(config, workload::BatchOrder::kInterleaved);
  EXPECT_EQ(hub.timeline(), nullptr);
}

TEST(MachineObs, ExitAndMemBlockedInstantsMatchTheirCounters) {
  // Process exits and blocked MMU requests are recorded once, as node-track
  // instants: one exit per process, one mem-blocked per counted wait.
  obs::Hub hub(full_options());
  auto config = tiny_config();
  config.machine.memory_per_node = std::size_t{112} << 10;  // some requests block
  config.machine.obs = &hub;
  (void)run_batch(config, workload::BatchOrder::kInterleaved);

  const obs::Timeline& tl = *hub.timeline();
  std::set<double> exited_pids;
  std::uint64_t exits = 0, blocked = 0;
  for (const auto& r : tl.records()) {
    if (r.kind != obs::RecordKind::kInstant) continue;
    const bool is_exit = tl.name(r.name) == "exit";
    const bool is_blocked = tl.name(r.name) == "mem-blocked";
    if (!is_exit && !is_blocked) continue;
    EXPECT_EQ(tl.tracks()[r.track].kind, obs::TrackKind::kNode);
    if (is_exit) {
      ++exits;
      exited_pids.insert(r.value);
    } else {
      ++blocked;
      EXPECT_GT(r.value, 0.0);  // bytes requested
    }
  }
  // The adaptive architecture runs one process per allocated processor:
  // 16 jobs on 4-node partitions.
  EXPECT_EQ(exits, 16u * 4u);
  EXPECT_EQ(exited_pids.size(), exits);

  double alloc_waits = 0.0;
  for (const auto& view : hub.registry().snapshot()) {
    const std::string_view name = view.name;
    if (name.starts_with("node") && name.ends_with(".mem.alloc_waits")) {
      alloc_waits += view.value;
    }
  }
  EXPECT_GT(alloc_waits, 0.0);
  EXPECT_EQ(static_cast<double>(blocked), alloc_waits);
}

TEST(MachineObs, SecondaryRunsDetachFromTheHub) {
  obs::Hub hub(full_options());
  auto config = tiny_config();
  config.machine.policy.kind = sched::PolicyKind::kStatic;
  config.machine.obs = &hub;
  // Space-shared: run_experiment runs best and worst orders; only the
  // primary may touch the hub, so this must not throw or double-register.
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.worst.has_value());
  EXPECT_GT(hub.registry().size(), 0u);
}

}  // namespace
}  // namespace tmc::core
