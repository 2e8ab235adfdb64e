// tmcsim -- exporters for the observability layer.
//
// Output formats, all dependency-free:
//  * Chrome trace_event JSON from a Timeline -- loadable in Perfetto or
//    chrome://tracing; one trace "process" per track kind (nodes, links,
//    partitions) and one named thread per track. ChromeTraceWriter is the
//    only encoder: the hub drives it for buffered and chunked timelines
//    alike (a buffered timeline is one drained at end of run), and
//    write_chrome_trace wraps it for a whole in-memory timeline.
//  * Metrics JSON from a Registry -- `{"schema":"tmc-metrics-v1", ...}`,
//    validated in CI by tools/check_obs_json.py.
//  * Metrics CSV (one instrument per row) for spreadsheet/pandas use.
//  * MetricsStreamWriter -- JSONL ("tmc-metrics-stream-v1"): one line per
//    sampler tick, written as the run progresses with O(1) memory; the
//    sustained-serving mode's replacement for buffering sample records.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeline.h"
#include "sim/time.h"

namespace tmc::obs {

/// Incremental Chrome trace_event JSON writer: begin() emits the preamble
/// (process/thread metadata for every track registered so far), then any
/// number of write_records() batches, then end() closes the document. Every
/// track must be registered before begin() -- true for the machine, which
/// wires observability before running. Each call formats into one reused
/// buffer and hands it to the stream in a single write (batches beyond
/// 1 MiB of JSON in one write per MiB).
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& os) : os_(os) {}

  void begin(const Timeline& timeline);
  void write_records(const Timeline& timeline,
                     const std::vector<TimelineRecord>& records);
  void end();

 private:
  void sep();
  void flush();

  std::ostream& os_;
  std::string buf_;  // the batch being formatted; reused across calls
  bool first_ = true;
};

/// Writes `{"traceEvents":[...]}` Chrome trace JSON. Timestamps are emitted
/// in microseconds (the format's unit) with sub-microsecond fractions kept.
void write_chrome_trace(const Timeline& timeline, std::ostream& os);

/// JSONL metrics stream: a header line
///   {"schema":"tmc-metrics-stream-v1","label":...,"channels":[...]}
/// then one `{"t_s":...,"v":[...]}` line per sampler tick (v parallel to
/// channels). Each line goes to the stream as it is formatted -- nothing
/// accumulates, so a million-job run costs the same memory as a
/// sixteen-job one.
class MetricsStreamWriter {
 public:
  explicit MetricsStreamWriter(std::ostream& os) : os_(os) {}

  /// Run label for the header line; must be set before the first tick.
  void set_label(std::string label) { label_ = std::move(label); }

  void begin(const std::vector<std::string>& channels);
  void tick(double t_s, const std::vector<double>& values);

  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  std::ostream& os_;
  std::string label_ = "tmcsim";
  std::string line_;  // the line being formatted; reused across ticks
  std::uint64_t ticks_ = 0;
};

/// Writes the registry as a metrics JSON document. `label` identifies the
/// run (experiment name / policy); `end` is the simulated makespan.
void write_metrics_json(const Registry& registry, std::ostream& os,
                        std::string_view label, sim::SimTime end);

/// Writes the registry as CSV: name,kind,count,value,mean,stddev,min,max.
void write_metrics_csv(const Registry& registry, std::ostream& os);

}  // namespace tmc::obs
