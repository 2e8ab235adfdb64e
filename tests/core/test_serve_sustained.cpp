// core::run_sustained -- the long-lived open-arrival serving loop.
//
// The million-job acceptance run lives in bench/serve_sustained and the
// soak binary; these tests pin the loop's contracts at a few thousand jobs:
// exact determinism (same config, same result, twice), conservation
// (offered = admitted + shed, completed = admitted, per-class sums match
// totals), admission shedding under a tight backlog bound, checkpoint
// monotonicity (the soak test's foundation), and warmup exclusion. The
// OpenArrivals suite serves bench A10's stream -- the paper's batch mix
// arriving as a Poisson process, every job built by make_batch_job -- with
// no admission bound.
#include "core/serve.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "workload/batch.h"

namespace tmc::core {
namespace {

std::vector<workload::JobClass> two_class_mix() {
  workload::JobClass interactive;
  interactive.name = "interactive";
  interactive.weight = 3.0;
  interactive.service.kind = workload::ServiceModel::Kind::kExponential;
  interactive.service.mean_s = 0.05;
  interactive.arch = sched::SoftwareArch::kAdaptive;

  workload::JobClass batch;
  batch.name = "batch";
  batch.weight = 1.0;
  batch.service.kind = workload::ServiceModel::Kind::kWeibull;
  batch.service.mean_s = 0.3;
  batch.service.shape = 0.7;
  batch.arch = sched::SoftwareArch::kAdaptive;
  return {interactive, batch};
}

ServeConfig small_config(std::uint64_t jobs = 2000) {
  ServeConfig config;
  config.machine.policy.kind = sched::PolicyKind::kHybrid;
  config.machine.policy.partition_size = 4;
  config.process.kind = workload::ArrivalProcess::Kind::kPoisson;
  config.process.rate_per_s = 25.0;
  config.classes = two_class_mix();
  config.total_jobs = jobs;
  config.warmup_jobs = 200;
  config.seed = 7;
  return config;
}

TEST(RunSustained, DeterministicRunToRun) {
  const ServeResult a = run_sustained(small_config());
  const ServeResult b = run_sustained(small_config());
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.machine.events, b.machine.events);
  EXPECT_DOUBLE_EQ(a.horizon_s, b.horizon_s);
  EXPECT_DOUBLE_EQ(a.response_s.mean(), b.response_s.mean());
  EXPECT_DOUBLE_EQ(a.response_q.p99.value(), b.response_q.p99.value());
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t i = 0; i < a.classes.size(); ++i) {
    EXPECT_EQ(a.classes[i].completed, b.classes[i].completed);
    EXPECT_DOUBLE_EQ(a.classes[i].response_s.mean(),
                     b.classes[i].response_s.mean());
    EXPECT_EQ(a.classes[i].response_sample.sorted_values(),
              b.classes[i].response_sample.sorted_values());
  }
}

TEST(RunSustained, ConservesEveryArrival) {
  const ServeResult r = run_sustained(small_config());
  EXPECT_EQ(r.offered, 2000u);
  EXPECT_EQ(r.offered, r.admitted + r.shed);
  EXPECT_EQ(r.completed, r.admitted);
  // Per-class `offered` counts every arrival of the class, shed included.
  std::uint64_t class_offered = 0, class_completed = 0, class_measured = 0;
  for (const ClassServeStats& cls : r.classes) {
    class_offered += cls.offered;
    class_completed += cls.completed;
    class_measured += cls.measured;
    EXPECT_EQ(cls.response_s.count(), cls.measured);
    EXPECT_EQ(cls.response_q.count(), cls.measured);
  }
  EXPECT_EQ(class_offered, r.offered);
  EXPECT_EQ(class_completed, r.completed);
  EXPECT_EQ(class_measured, r.measured);
  // Warmup exclusion: exactly the post-warmup admitted jobs are measured.
  EXPECT_EQ(r.measured, r.response_s.count());
  EXPECT_LE(r.measured, r.completed);
  EXPECT_GE(r.horizon_s, 0.0);
  EXPECT_GT(r.peak_live_jobs, 0u);
}

TEST(RunSustained, TightBacklogShedsButStaysConsistent) {
  ServeConfig config = small_config(1000);
  config.process.rate_per_s = 2000.0;  // far above service capacity
  config.max_backlog = 5;
  const ServeResult r = run_sustained(config);
  EXPECT_GT(r.shed, 0u);
  EXPECT_EQ(r.offered, r.admitted + r.shed);
  EXPECT_EQ(r.completed, r.admitted);
  std::uint64_t class_shed = 0;
  for (const ClassServeStats& cls : r.classes) class_shed += cls.shed;
  EXPECT_EQ(class_shed, r.shed);
}

TEST(RunSustained, CheckpointsAreMonotone) {
  ServeConfig config = small_config();
  config.checkpoint_every = 100;
  std::vector<ServeCheckpoint> checkpoints;
  config.checkpoint = [&checkpoints](const ServeCheckpoint& cp) {
    checkpoints.push_back(cp);
  };
  const ServeResult r = run_sustained(config);
  ASSERT_GE(checkpoints.size(), 10u);
  for (std::size_t i = 1; i < checkpoints.size(); ++i) {
    // Simulated time and the completion counter never move backwards; the
    // soak binary leans on this to claim forward progress.
    EXPECT_GE(checkpoints[i].now_s, checkpoints[i - 1].now_s);
    EXPECT_GT(checkpoints[i].completed, checkpoints[i - 1].completed);
    EXPECT_LE(checkpoints[i].offered, r.offered);
  }
  // Live jobs at every checkpoint stay within the recorded high-water mark.
  for (const ServeCheckpoint& cp : checkpoints) {
    EXPECT_LE(cp.live_jobs, r.peak_live_jobs);
  }
}

TEST(RunSustained, WindowRateReflectsThroughput) {
  ServeConfig config = small_config(4000);
  config.window_s = 5.0;
  const ServeResult r = run_sustained(config);
  // 25 jobs/s offered, everything admitted and completed: the per-window
  // completion rate must average near the arrival rate.
  EXPECT_GT(r.window_rate.count(), 10u);
  EXPECT_NEAR(r.window_rate.mean(), 25.0, 2.5);
}

TEST(RunSustained, ValidatesConfig) {
  ServeConfig config = small_config();
  config.total_jobs = 0;
  EXPECT_THROW((void)run_sustained(config), std::invalid_argument);
  config = small_config();
  config.classes.clear();
  EXPECT_THROW((void)run_sustained(config), std::invalid_argument);
  config = small_config();
  config.slo_targets = {{"analytics", 0.05, 0.99}};  // no such class
  EXPECT_THROW((void)run_sustained(config), std::invalid_argument);
}

TEST(RunSustained, SloSummaryCountsMeasuredCompletions) {
  ServeConfig config = small_config();
  config.slo_targets = {{"interactive", 0.25, 0.99}, {"batch", 2.0, 0.95}};
  const ServeResult r = run_sustained(config);
  ASSERT_EQ(r.slo.size(), 2u);
  for (std::size_t t = 0; t < r.slo.size(); ++t) {
    const auto& cls = r.slo.classes()[t];
    // SLO accounting covers exactly the measured (post-warmup) completions
    // of the targeted class.
    const int c = t == 0 ? 0 : 1;
    EXPECT_EQ(cls.completed, r.classes[static_cast<std::size_t>(c)].measured);
    EXPECT_LE(cls.met, cls.completed);
    EXPECT_GE(r.slo.attainment(t), 0.0);
    EXPECT_LE(r.slo.attainment(t), 1.0);
    EXPECT_GE(r.slo.budget_burn(t), 0.0);
    // The tracker's stretch quantiles stream the same samples as the class
    // stats; the p50s must agree (both are P^2 over the identical stream).
    EXPECT_DOUBLE_EQ(
        cls.stretch_q.p50.value(),
        r.classes[static_cast<std::size_t>(c)].stretch_q.p50.value());
  }
}

TEST(RunSustained, SloSummaryIdenticalWithAndWithoutTargets) {
  // Adding SLO targets must not disturb the simulation: every other
  // statistic stays bit-identical.
  const ServeResult plain = run_sustained(small_config());
  ServeConfig config = small_config();
  config.slo_targets = {{"interactive", 0.25, 0.99}};
  const ServeResult tracked = run_sustained(config);
  EXPECT_EQ(plain.machine.events, tracked.machine.events);
  EXPECT_DOUBLE_EQ(plain.horizon_s, tracked.horizon_s);
  EXPECT_DOUBLE_EQ(plain.response_s.mean(), tracked.response_s.mean());
  EXPECT_EQ(plain.completed, tracked.completed);
  EXPECT_EQ(plain.slo.size(), 0u);
  ASSERT_EQ(tracked.slo.size(), 1u);
  EXPECT_GT(tracked.slo.classes()[0].completed, 0u);
}

workload::BatchParams tiny_matmul_mix() {
  auto mix = workload::default_batch(workload::App::kMatMul,
                                     sched::SoftwareArch::kAdaptive);
  mix.small_size = 16;
  mix.large_size = 32;
  return mix;
}

/// Bench A10's stream at test scale: classes [large, small] weighted by the
/// batch counts, 4 warm-up + 24 measured arrivals, every arrival admitted.
ServeConfig batch_stream(double rate, std::uint64_t seed = 1,
                         const workload::BatchParams& mix = tiny_matmul_mix()) {
  ServeConfig config;
  config.machine.topology = net::TopologyKind::kMesh;
  config.machine.policy.kind = sched::PolicyKind::kStatic;
  config.machine.policy.partition_size = 4;
  config.process.rate_per_s = rate;
  workload::JobClass large;
  large.name = "large";
  large.weight = mix.large_count;
  workload::JobClass small;
  small.name = "small";
  small.weight = mix.small_count;
  config.classes = {large, small};
  config.total_jobs = 28;
  config.warmup_jobs = 4;
  config.max_backlog = 0;
  config.seed = seed;
  config.make_job = [mix](const workload::JobClass&,
                          const workload::Arrival& arrival) {
    return workload::make_batch_job(mix, arrival.job_class == 0);
  };
  return config;
}

/// Runs `config` and also reports its offered load the way bench A10 does:
/// arrival rate x mean serial demand of the built jobs / processors.
std::pair<ServeResult, double> run_with_offered_load(ServeConfig config) {
  double demand_s = 0.0;
  const auto make_job = config.make_job;
  config.make_job = [&](const workload::JobClass& cls,
                        const workload::Arrival& arrival) {
    sched::JobSpec spec = make_job(cls, arrival);
    demand_s += spec.demand_estimate.to_seconds();
    return spec;
  };
  ServeResult result = run_sustained(config);
  const double load = config.process.rate_per_s *
                      (demand_s / static_cast<double>(result.admitted)) /
                      config.machine.processors;
  return {std::move(result), load};
}

TEST(OpenArrivals, MeasuresExactlyTheMeasuredWindow) {
  const ServeResult r = run_sustained(batch_stream(10.0));
  EXPECT_EQ(r.offered, 28u);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.measured, 24u);
  EXPECT_EQ(r.response_s.count(), 24u);
  EXPECT_EQ(r.classes[0].measured + r.classes[1].measured, 24u);
  EXPECT_GT(r.horizon_s, 0.0);
}

TEST(OpenArrivals, DeterministicGivenSeed) {
  const ServeResult a = run_sustained(batch_stream(20.0, 7));
  const ServeResult b = run_sustained(batch_stream(20.0, 7));
  EXPECT_DOUBLE_EQ(a.response_s.mean(), b.response_s.mean());
  EXPECT_DOUBLE_EQ(a.horizon_s, b.horizon_s);
  EXPECT_EQ(a.machine.events, b.machine.events);
}

TEST(OpenArrivals, SeedsChangeTheStream) {
  const ServeResult a = run_sustained(batch_stream(20.0, 1));
  const ServeResult b = run_sustained(batch_stream(20.0, 2));
  EXPECT_NE(a.response_s.mean(), b.response_s.mean());
}

TEST(OpenArrivals, LightLoadResponsesAreLoneJobSpans) {
  // At a very low rate jobs rarely overlap: the system holds one job at a
  // time and responses are the jobs' own spans.
  const auto [r, load] = run_with_offered_load(batch_stream(0.5));
  EXPECT_LE(r.peak_live_jobs, 2u);
  EXPECT_LT(load, 0.05);
}

TEST(OpenArrivals, ResponseGrowsWithLoad) {
  const ServeResult light = run_sustained(batch_stream(2.0));
  const ServeResult heavy = run_sustained(batch_stream(200.0));
  EXPECT_GT(heavy.response_s.mean(), light.response_s.mean());
  EXPECT_GT(heavy.peak_live_jobs, light.peak_live_jobs);
}

TEST(OpenArrivals, OfferedLoadScalesWithRate) {
  // Same seed, same class draws: only the arrival instants differ.
  const double slow = run_with_offered_load(batch_stream(2.0, 3)).second;
  const double fast = run_with_offered_load(batch_stream(4.0, 3)).second;
  EXPECT_NEAR(fast / slow, 2.0, 1e-9);
}

TEST(OpenArrivals, WorksWithAdaptivePolicy) {
  ServeConfig config = batch_stream(10.0);
  config.machine.policy.kind = sched::PolicyKind::kAdaptiveStatic;
  EXPECT_EQ(run_sustained(config).measured, 24u);
}

TEST(OpenArrivals, WorksWithSortMix) {
  auto mix = workload::default_batch(workload::App::kSort,
                                     sched::SoftwareArch::kFixed);
  mix.small_size = 200;
  mix.large_size = 400;
  ServeConfig config = batch_stream(5.0, 1, mix);
  config.machine.policy.kind = sched::PolicyKind::kAdaptiveStatic;
  EXPECT_EQ(run_sustained(config).measured, 24u);
}

TEST(OpenArrivals, RejectsNonPositiveRate) {
  EXPECT_THROW((void)run_sustained(batch_stream(0.0)), std::invalid_argument);
}

TEST(OpenArrivals, SaturationTripsWatchdog) {
  // A10's "unstable" cell: with no admission bound, a stream whose work
  // outlasts the watchdog throws. run_sustained raises the watchdog to
  // 4x the expected arrival horizon + 600 s, so slow multiply-adds give
  // the 28 jobs ~30000 s of serial work, ~1900 s on all 16 processors.
  auto mix = tiny_matmul_mix();
  mix.costs.t_madd = sim::SimTime::milliseconds(100);
  try {
    (void)run_sustained(batch_stream(10'000.0, 1, mix));
    FAIL() << "the stream drained before the watchdog";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog expired"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace tmc::core
