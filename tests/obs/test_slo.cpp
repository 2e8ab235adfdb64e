// Unit: --slo spec parsing and the SLO tracker's streaming arithmetic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/slo.h"

namespace tmc::obs {
namespace {

std::vector<SloTarget> parse_ok(const std::string& spec) {
  std::vector<SloTarget> out;
  std::string error;
  EXPECT_TRUE(parse_slo_spec(spec, out, error)) << spec << ": " << error;
  EXPECT_TRUE(error.empty()) << error;
  return out;
}

std::string parse_err(const std::string& spec) {
  std::vector<SloTarget> out;
  std::string error;
  EXPECT_FALSE(parse_slo_spec(spec, out, error)) << spec;
  EXPECT_FALSE(error.empty()) << spec;
  return error;
}

TEST(SloSpec, ParsesEverySuffixAndBareSeconds) {
  const auto targets =
      parse_ok("a=250ns,b=40us,c=50ms,d=2s,e=0.75");
  ASSERT_EQ(targets.size(), 5u);
  EXPECT_DOUBLE_EQ(targets[0].target_s, 250e-9);
  EXPECT_DOUBLE_EQ(targets[1].target_s, 40e-6);
  EXPECT_DOUBLE_EQ(targets[2].target_s, 50e-3);
  EXPECT_DOUBLE_EQ(targets[3].target_s, 2.0);
  EXPECT_DOUBLE_EQ(targets[4].target_s, 0.75);
  for (const auto& t : targets) {
    EXPECT_DOUBLE_EQ(t.objective, 0.99);  // default objective
  }
  EXPECT_EQ(targets[0].job_class, "a");
  EXPECT_EQ(targets[4].job_class, "e");
}

TEST(SloSpec, ParsesExplicitObjectivePercent) {
  const auto targets = parse_ok("interactive=50ms@99.9,batch=2s@95");
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_DOUBLE_EQ(targets[0].objective, 0.999);
  EXPECT_DOUBLE_EQ(targets[1].objective, 0.95);
}

TEST(SloSpec, RejectsMalformedEntries) {
  (void)parse_err("");                       // empty spec
  (void)parse_err("interactive");            // no '='
  (void)parse_err("interactive=");           // no latency
  (void)parse_err("=50ms");                  // no class name
  (void)parse_err("interactive=-50ms");      // negative latency
  (void)parse_err("interactive=0");          // zero latency
  (void)parse_err("interactive=50xs");       // unknown suffix
  (void)parse_err("interactive=50ms@0");     // objective out of range
  (void)parse_err("interactive=50ms@100");   // objective out of range
  (void)parse_err("interactive=nan");        // not a number
  (void)parse_err("interactive=infs");       // not finite
  (void)parse_err("interactive=50ms@nan");   // objective not a number
  (void)parse_err("a=1s,a=2s");              // duplicate class
}

TEST(SloTracker, AttainmentStartsAtOneAndTracksMetFraction) {
  SloTracker tracker({{"fast", 0.1, 0.99}});
  ASSERT_EQ(tracker.size(), 1u);
  EXPECT_DOUBLE_EQ(tracker.attainment(0), 1.0);  // before any completion

  tracker.record(0, 0.05, 1.0);   // met (at target counts as met)
  tracker.record(0, 0.10, 1.0);   // met
  tracker.record(0, 0.20, 2.0);   // missed
  tracker.record(0, 0.30, 3.0);   // missed
  EXPECT_EQ(tracker.classes()[0].completed, 4u);
  EXPECT_EQ(tracker.classes()[0].met, 2u);
  EXPECT_DOUBLE_EQ(tracker.attainment(0), 0.5);
}

TEST(SloTracker, BudgetBurnIsMissRateOverAllowedMissRate) {
  SloTracker tracker({{"x", 1.0, 0.9}});  // allowed miss rate 0.1
  for (int i = 0; i < 8; ++i) tracker.record(0, 0.5, 1.0);  // met
  for (int i = 0; i < 2; ++i) tracker.record(0, 2.0, 4.0);  // missed
  // Miss rate 0.2 against an allowed 0.1: burning budget at 2x.
  EXPECT_NEAR(tracker.budget_burn(0), 2.0, 1e-12);
  // All-met class burns nothing.
  SloTracker calm({{"y", 1.0, 0.99}});
  calm.record(0, 0.1, 1.0);
  EXPECT_DOUBLE_EQ(calm.budget_burn(0), 0.0);
}

TEST(SloTracker, IndexOfFindsTargetsByClassName) {
  SloTracker tracker({{"interactive", 0.05, 0.99}, {"batch", 2.0, 0.95}});
  EXPECT_EQ(tracker.index_of("interactive"), 0);
  EXPECT_EQ(tracker.index_of("batch"), 1);
  EXPECT_EQ(tracker.index_of("analytics"), -1);
  EXPECT_EQ(SloTracker().index_of("interactive"), -1);
}

TEST(SloTracker, StretchQuantilesStream) {
  SloTracker tracker({{"x", 10.0, 0.99}});
  for (int i = 1; i <= 100; ++i) {
    tracker.record(0, 0.001 * i, static_cast<double>(i));
  }
  // P^2 estimates: exactness is not the contract, the ballpark is.
  const auto& q = tracker.classes()[0].stretch_q;
  EXPECT_NEAR(q.p50.value(), 50.0, 10.0);
  EXPECT_GT(q.p99.value(), q.p50.value());
}

}  // namespace
}  // namespace tmc::obs
