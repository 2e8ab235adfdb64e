#include "obs/hub.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace tmc::obs {
namespace {

/// Parses `args` through a flag table holding the obs and slo rows, the way
/// the binaries do; returns the error, empty on success.
std::string parse_all(std::vector<const char*> args, Options& options) {
  args.insert(args.begin(), "prog");
  cli::Table table("prog", {cli::Family::kObs, cli::Family::kSlo});
  table.add(cli_flags(options));
  return table.parse(static_cast<int>(args.size()), args.data()).error;
}

TEST(HubCli, MetricsFlagWithAndWithoutPath) {
  Options options;
  // --metrics never takes the next token as its path.
  EXPECT_EQ(parse_all({"--metrics", "--other"}, options),
            "unknown flag '--other'");
  EXPECT_TRUE(options.metrics);
  EXPECT_TRUE(options.metrics_path.empty());

  Options with_path;
  EXPECT_EQ(parse_all({"--metrics=out.csv"}, with_path), "");
  EXPECT_TRUE(with_path.metrics);
  EXPECT_EQ(with_path.metrics_path, "out.csv");
}

TEST(HubCli, TimelineTakesPathInBothForms) {
  Options options;
  EXPECT_EQ(parse_all({"--timeline=trace.json"}, options), "");
  EXPECT_EQ(options.timeline_path, "trace.json");

  Options spaced;
  EXPECT_EQ(parse_all({"--timeline", "t.json"}, spaced), "");
  EXPECT_EQ(spaced.timeline_path, "t.json");

  Options missing;
  EXPECT_FALSE(parse_all({"--timeline"}, missing).empty());
}

TEST(HubCli, SampleIntervalValidatesMilliseconds) {
  Options options;
  EXPECT_EQ(parse_all({"--sample-interval", "2.5"}, options), "");
  EXPECT_EQ(options.sample_interval, sim::SimTime::microseconds(2500));

  Options bad;
  EXPECT_FALSE(parse_all({"--sample-interval=-1"}, bad).empty());
  EXPECT_FALSE(parse_all({"--sample-interval=zoom"}, bad).empty());
}

TEST(HubCli, UnrelatedFlagsAreNotConsumed) {
  for (const char* token : {"--threads", "4", "--metricsx"}) {
    Options options;
    EXPECT_EQ(parse_all({token}, options),
              "unknown flag '" + std::string(token) + "'");
    EXPECT_FALSE(options.metrics);
  }
}

TEST(Hub, AnyReflectsRequestedOutputs) {
  EXPECT_FALSE(Options{}.any());
  Options metrics;
  metrics.metrics = true;
  EXPECT_TRUE(metrics.any());
  Options timeline;
  timeline.timeline_path = "t.json";
  EXPECT_TRUE(timeline.any());
}

TEST(Hub, TimelineOnlyExistsWhenRequested) {
  Options options;
  options.metrics = true;
  Hub metrics_only(options);
  EXPECT_EQ(metrics_only.timeline(), nullptr);

  options.timeline_path = "t.json";
  Hub with_timeline(options);
  EXPECT_NE(with_timeline.timeline(), nullptr);
}

TEST(Hub, FinishRunFreezesProbes) {
  Options options;
  options.metrics = true;
  Hub hub(options);
  double level = 1.0;
  hub.registry().probe("level", [&level] { return level; });
  level = 8.0;
  hub.finish_run(sim::SimTime::seconds(1));
  level = -1.0;
  EXPECT_DOUBLE_EQ(hub.registry().snapshot()[0].value, 8.0);
}

}  // namespace
}  // namespace tmc::obs
