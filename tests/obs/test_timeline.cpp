#include "obs/timeline.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/export.h"
#include "obs/metrics.h"

namespace tmc::obs {
namespace {

using sim::SimTime;

TEST(Timeline, InternDeduplicatesNames) {
  Timeline tl;
  const NameId a = tl.intern("compute");
  const NameId b = tl.intern("compute");
  const NameId c = tl.intern("xfer");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(tl.name(a), "compute");
  EXPECT_EQ(tl.name(c), "xfer");
}

TEST(Timeline, RecordsCarryTrackNameAndKind) {
  Timeline tl;
  const TrackId node = tl.add_track(TrackKind::kNode, "node0");
  const NameId op = tl.intern("compute");
  tl.span(node, op, SimTime::microseconds(10), SimTime::microseconds(5), 7.0);
  tl.instant(node, op, SimTime::microseconds(20));
  tl.sample(node, op, SimTime::microseconds(30), 3.5);
  ASSERT_EQ(tl.records().size(), 3u);
  EXPECT_EQ(tl.records()[0].kind, RecordKind::kSpan);
  EXPECT_EQ(tl.records()[0].start_ns, 10000);
  EXPECT_EQ(tl.records()[0].dur_ns, 5000);
  EXPECT_DOUBLE_EQ(tl.records()[0].value, 7.0);
  EXPECT_EQ(tl.records()[1].kind, RecordKind::kInstant);
  EXPECT_EQ(tl.records()[2].kind, RecordKind::kSample);
  EXPECT_DOUBLE_EQ(tl.records()[2].value, 3.5);
}

TEST(ChromeTrace, EmitsProcessAndThreadMetadata) {
  Timeline tl;
  tl.add_track(TrackKind::kNode, "node0");
  tl.add_track(TrackKind::kLink, "link0 0->1");
  std::ostringstream os;
  write_chrome_trace(tl, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"nodes\""), std::string::npos);
  EXPECT_NE(json.find("\"links\""), std::string::npos);
  EXPECT_NE(json.find("node0"), std::string::npos);
  EXPECT_NE(json.find("link0 0->1"), std::string::npos);
}

TEST(ChromeTrace, SpanBecomesCompleteEventInMicroseconds) {
  Timeline tl;
  const TrackId t = tl.add_track(TrackKind::kNode, "node0");
  tl.span(t, tl.intern("compute"), SimTime::microseconds(10),
          SimTime::microseconds(4));
  std::ostringstream os;
  write_chrome_trace(tl, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":4"), std::string::npos);
}

TEST(ChromeTrace, SampleBecomesCounterQualifiedByTrack) {
  Timeline tl;
  const TrackId t = tl.add_track(TrackKind::kNode, "node3");
  tl.sample(t, tl.intern("ready"), SimTime::microseconds(100), 2.0);
  std::ostringstream os;
  write_chrome_trace(tl, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("node3:ready"), std::string::npos);
}

TEST(ChromeTrace, TrackNamesAreEscaped) {
  Timeline tl;
  tl.add_track(TrackKind::kGlobal, "say \"hi\"");
  std::ostringstream os;
  write_chrome_trace(tl, os);
  EXPECT_NE(os.str().find("say \\\"hi\\\""), std::string::npos);
}

TEST(MetricsExport, JsonCarriesSchemaAndAllKinds) {
  Registry reg;
  reg.counter("hits")->inc(3);
  reg.gauge("level")->set(0.5);
  reg.distribution("lat", 0.0, 1.0, 4)->add(0.3);
  reg.probe("depth", [] { return 2.0; });
  std::ostringstream os;
  write_metrics_json(reg, os, "unit-test", SimTime::seconds(2));
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\":\"tmc-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"end_time_s\":2"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"hits\",\"kind\":\"counter\",\"value\":3"),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"distribution\""), std::string::npos);
  EXPECT_NE(json.find("\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"probe\""), std::string::npos);
}

TEST(MetricsExport, CsvHasHeaderAndOneRowPerInstrument) {
  Registry reg;
  reg.counter("hits")->inc(3);
  reg.distribution("lat")->add(1.0);
  std::ostringstream os;
  write_metrics_csv(reg, os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("name,kind,count,value,mean,stddev,min,max\n"),
            std::string::npos);
  EXPECT_NE(csv.find("hits,counter,3,3"), std::string::npos);
  EXPECT_NE(csv.find("lat,distribution,1"), std::string::npos);
}

}  // namespace
}  // namespace tmc::obs
