// sched::stealing -- the work-stealing third software architecture.
//
// Covers the pieces in isolation (chunking math, the strict --steal-* CLI
// contract) and the engine end to end through a real machine: thieves make
// progress, the whole pipeline is deterministic, --steal-rate 0 reproduces
// the fixed architecture's numbers exactly (no engine is built, the jobs
// run their fallback fixed scripts), and a faulty machine still drains.
#include "sched/stealing/stealing.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"

namespace tmc::sched::stealing {
namespace {

// ---------------------------------------------------------------- chunking

std::size_t sum(const std::vector<std::size_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::size_t{0});
}

TEST(ChunkSizes, StaticCoversTotalWithBoundedChunks) {
  for (const std::size_t total : {1u, 7u, 64u, 1000u}) {
    const auto chunks = chunk_sizes(total, 4, Chunking::kStatic, 8);
    EXPECT_EQ(sum(chunks), total) << "total " << total;
    EXPECT_LE(chunks.size(), std::size_t{4 * 8});
    for (const auto c : chunks) EXPECT_GE(c, 1u);
  }
}

TEST(ChunkSizes, StaticChunksDifferByAtMostOne) {
  const auto chunks = chunk_sizes(1000, 4, Chunking::kStatic, 8);
  const auto [lo, hi] = std::minmax_element(chunks.begin(), chunks.end());
  EXPECT_LE(*hi - *lo, 1u);
}

TEST(ChunkSizes, GuidedShrinksGeometrically) {
  const auto chunks = chunk_sizes(1000, 4, Chunking::kGuided, 8);
  EXPECT_EQ(sum(chunks), 1000u);
  // ceil(R/W): each chunk no larger than its predecessor.
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_LE(chunks[i], chunks[i - 1]) << "at " << i;
  }
  EXPECT_EQ(chunks.front(), 250u);
}

TEST(ChunkSizes, FactoringIssuesEqualBatches) {
  const auto chunks = chunk_sizes(1000, 4, Chunking::kFactoring, 8);
  EXPECT_EQ(sum(chunks), 1000u);
  // Batches of W chunks of ceil(R/2W): the first four all equal 125.
  ASSERT_GE(chunks.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(chunks[i], 125u);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_LE(chunks[i], chunks[i - 1]);
  }
}

TEST(ChunkSizes, TinyTotalsNeverEmitZeroChunks) {
  for (const auto chunking :
       {Chunking::kStatic, Chunking::kGuided, Chunking::kFactoring}) {
    const auto chunks = chunk_sizes(3, 8, chunking, 8);
    EXPECT_EQ(sum(chunks), 3u);
    for (const auto c : chunks) EXPECT_GE(c, 1u);
  }
}

// --------------------------------------------------------------- CLI flags

struct CliResult {
  bool consumed = false;  // parsed without error
  bool seen = false;      // some steal flag was stored
  std::string error;
  StealParams params;
};

/// Parses `argv_in` through a flag table holding the steal rows, the way
/// the benches do.
CliResult parse(std::vector<const char*> argv_in) {
  argv_in.insert(argv_in.begin(), "bench");
  CliResult r;
  cli::Table table("bench", {cli::Family::kSteal});
  table.add(cli_flags(r.params));
  const auto result =
      table.parse(static_cast<int>(argv_in.size()), argv_in.data());
  r.consumed = result.status == cli::Table::Status::kOk;
  r.seen = table.any_set(cli::Family::kSteal);
  r.error = result.error;
  return r;
}

TEST(StealCli, RateSeparateValueForm) {
  const auto r = parse({"--steal-rate", "250"});
  EXPECT_TRUE(r.consumed);
  EXPECT_TRUE(r.seen);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_DOUBLE_EQ(r.params.steal_rate, 250.0);  // value argument consumed
}

TEST(StealCli, RateEqualsForm) {
  const auto r = parse({"--steal-rate=1e4"});
  EXPECT_TRUE(r.consumed);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_DOUBLE_EQ(r.params.steal_rate, 1e4);
}

TEST(StealCli, RateRejectsGarbageAndNegatives) {
  EXPECT_FALSE(parse({"--steal-rate", "fast"}).error.empty());
  EXPECT_FALSE(parse({"--steal-rate=-3"}).error.empty());
  EXPECT_FALSE(parse({"--steal-rate"}).error.empty());  // missing value
}

TEST(StealCli, VictimAcceptsEachPolicyAndRejectsOthers) {
  EXPECT_EQ(parse({"--steal-victim", "random"}).params.victim,
            VictimPolicy::kRandom);
  EXPECT_EQ(parse({"--steal-victim", "nearest"}).params.victim,
            VictimPolicy::kNearest);
  EXPECT_EQ(parse({"--steal-victim=last"}).params.victim,
            VictimPolicy::kLastVictim);
  EXPECT_FALSE(parse({"--steal-victim", "closest"}).error.empty());
}

TEST(StealCli, GranularityAndChunkingParse) {
  EXPECT_EQ(parse({"--steal-granularity", "half"}).params.granularity,
            Granularity::kHalfDeque);
  EXPECT_EQ(parse({"--steal-granularity=task"}).params.granularity,
            Granularity::kSingleTask);
  EXPECT_FALSE(parse({"--steal-granularity", "deque"}).error.empty());
  EXPECT_EQ(parse({"--steal-chunk", "guided"}).params.chunking,
            Chunking::kGuided);
  EXPECT_EQ(parse({"--steal-chunk=factoring"}).params.chunking,
            Chunking::kFactoring);
  EXPECT_FALSE(parse({"--steal-chunk", "dynamic"}).error.empty());
}

TEST(StealCli, ChunksPerWorkerAndSeedValidate) {
  EXPECT_EQ(parse({"--steal-chunks", "16"}).params.chunks_per_worker, 16);
  EXPECT_FALSE(parse({"--steal-chunks", "0"}).error.empty());
  EXPECT_FALSE(parse({"--steal-chunks", "-2"}).error.empty());
  EXPECT_EQ(parse({"--steal-seed=7"}).params.seed, 7u);
  EXPECT_FALSE(parse({"--steal-seed", "pi"}).error.empty());
}

TEST(StealCli, UnrelatedFlagsAreNotConsumed) {
  const auto r = parse({"--threads", "4"});
  EXPECT_FALSE(r.consumed);
  EXPECT_FALSE(r.seen);
  // Stops at the first token, reported as unknown rather than a steal error.
  EXPECT_EQ(r.error, "unknown flag '--threads'");
}

TEST(StealCli, ToStringRoundTrips) {
  EXPECT_EQ(to_string(VictimPolicy::kRandom), std::string_view("random"));
  EXPECT_EQ(to_string(VictimPolicy::kNearest), std::string_view("nearest"));
  EXPECT_EQ(to_string(VictimPolicy::kLastVictim), std::string_view("last"));
  EXPECT_EQ(to_string(Granularity::kSingleTask), std::string_view("task"));
  EXPECT_EQ(to_string(Granularity::kHalfDeque), std::string_view("half"));
  EXPECT_EQ(to_string(Chunking::kStatic), std::string_view("static"));
  EXPECT_EQ(to_string(Chunking::kGuided), std::string_view("guided"));
  EXPECT_EQ(to_string(Chunking::kFactoring), std::string_view("factoring"));
}

// ------------------------------------------------------------- end to end

core::ExperimentConfig steal_config(workload::App app, int partition,
                                    double rate) {
  auto config = core::figure_point(app, SoftwareArch::kStealing,
                                   PolicyKind::kStatic, partition,
                                   net::TopologyKind::kMesh);
  if (app == workload::App::kMatMul) {
    config.batch.small_size = 16;
    config.batch.large_size = 32;
  } else {
    config.batch.small_size = 256;
    config.batch.large_size = 512;
    config.batch.sort_skew = 0.3;  // give the thieves something to steal
  }
  config.machine.stealing.steal_rate = rate;
  return config;
}

TEST(StealingEngine, BatchCompletesAndThievesMakeProgress) {
  const auto result = core::run_batch(steal_config(workload::App::kSort, 8,
                                                   10'000.0),
                                      workload::BatchOrder::kInterleaved);
  EXPECT_EQ(result.jobs.size(), 16u);
  EXPECT_GT(result.mean_response_s(), 0.0);
  EXPECT_GT(result.machine.steals.requests, 0u);
  EXPECT_GT(result.machine.steals.grants, 0u);
  EXPECT_EQ(result.machine.steals.grants + result.machine.steals.denials,
            result.machine.steals.requests);
  EXPECT_GE(result.machine.steals.tasks_migrated,
            result.machine.steals.grants);
  EXPECT_GT(result.machine.steals.bytes_migrated, 0u);
}

TEST(StealingEngine, RunsAreDeterministic) {
  const auto config = steal_config(workload::App::kSort, 8, 10'000.0);
  const auto a = core::run_batch(config, workload::BatchOrder::kInterleaved);
  const auto b = core::run_batch(config, workload::BatchOrder::kInterleaved);
  EXPECT_EQ(a.machine.events, b.machine.events);
  EXPECT_EQ(a.machine.messages, b.machine.messages);
  EXPECT_EQ(a.machine.steals.requests, b.machine.steals.requests);
  EXPECT_EQ(a.machine.steals.grants, b.machine.steals.grants);
  EXPECT_EQ(a.machine.steals.tasks_migrated, b.machine.steals.tasks_migrated);
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].response_s, b.jobs[i].response_s);
  }
}

TEST(StealingEngine, RateZeroReproducesTheFixedArchitectureExactly) {
  // --steal-rate 0 builds no engine; kStealing jobs run their fallback
  // fixed scripts, so every per-job number matches kFixed bit for bit.
  auto stealing = steal_config(workload::App::kMatMul, 4, 0.0);
  auto fixed = stealing;
  fixed.machine.stealing = sched::stealing::StealParams{};
  fixed.batch.arch = SoftwareArch::kFixed;
  const auto a = core::run_batch(stealing, workload::BatchOrder::kInterleaved);
  const auto b = core::run_batch(fixed, workload::BatchOrder::kInterleaved);
  EXPECT_EQ(a.machine.steals.requests, 0u);
  EXPECT_EQ(a.machine.events, b.machine.events);
  EXPECT_EQ(a.machine.messages, b.machine.messages);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.jobs[i].response_s, b.jobs[i].response_s);
    EXPECT_DOUBLE_EQ(a.jobs[i].cpu_s, b.jobs[i].cpu_s);
  }
}

TEST(StealingEngine, EveryChunkingAndGranularityDrains) {
  for (const auto chunking :
       {Chunking::kStatic, Chunking::kGuided, Chunking::kFactoring}) {
    for (const auto granularity :
         {Granularity::kSingleTask, Granularity::kHalfDeque}) {
      auto config = steal_config(workload::App::kSort, 4, 10'000.0);
      config.machine.stealing.chunking = chunking;
      config.machine.stealing.granularity = granularity;
      const auto result =
          core::run_batch(config, workload::BatchOrder::kInterleaved);
      EXPECT_EQ(result.jobs.size(), 16u)
          << to_string(chunking) << "/" << to_string(granularity);
    }
  }
}

TEST(StealingEngine, SurvivesNodeFaults) {
  // A crashing machine must still drain the batch: steals aimed at dead
  // nodes time out through the normal fault machinery and the aborted
  // jobs restart. Deterministic via the fixed fault seed.
  auto config = steal_config(workload::App::kSort, 8, 10'000.0);
  config.machine.faults.node_rate = 0.02;
  const auto a = core::run_batch(config, workload::BatchOrder::kInterleaved);
  EXPECT_EQ(a.jobs.size(), 16u);
  const auto b = core::run_batch(config, workload::BatchOrder::kInterleaved);
  EXPECT_EQ(a.machine.events, b.machine.events);
  EXPECT_EQ(a.machine.steals.requests, b.machine.steals.requests);
}

}  // namespace
}  // namespace tmc::sched::stealing
