// tmcsim -- observability hub: one attachable bundle per observed run.
//
// A Hub owns the metrics Registry, the Timeline recorder, and the interval
// Sampler for a single simulation. Experiment drivers attach it through
// core::MachineConfig::obs (a non-owning pointer); when a sweep runs many
// simulations in parallel, the hub is attached to exactly one designated
// "representative" run (the primary scheduling order / replication 0) so the
// single-threaded instruments are never shared across workers.
//
// The CLI rows (`--metrics[=path]`, `--timeline=path`, `--timeline-chunk N`,
// `--metrics-stream=path`, `--sample-interval MS`, `--slo`) are declared
// here so tmc_cli and every bench agree on flag semantics.
//
// The timeline has one output path: a ChromeTraceWriter on the trace file.
// `--timeline-chunk N` drains it every N records during the run, so a
// long-lived (sustained-serving) run's memory stays flat; without it the
// records buffer and the whole timeline drains at end of run. The bytes are
// the same either way. `--metrics-stream=path` writes one JSONL line per
// sampler tick ("tmc-metrics-stream-v1") with O(1) memory and works with
// or without a timeline file.
#pragma once

#include <cstddef>
#include <fstream>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cli/flags.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "sim/time.h"

namespace tmc::obs {

struct Options {
  bool metrics = false;         // dump the registry at end of run
  std::string metrics_path;     // empty => stderr; *.csv => CSV, else JSON
  std::string timeline_path;    // empty => timeline recording off
  std::size_t timeline_chunk = 0;  // 0 => buffer; N => drain every N records
  std::string metrics_stream_path;  // empty => JSONL sampler stream off
  sim::SimTime sample_interval = sim::SimTime::milliseconds(100);
  /// Per-class latency targets (--slo). Consumed by serving-mode harnesses;
  /// single-experiment drivers that take the shared flags ignore it.
  std::vector<SloTarget> slo;

  [[nodiscard]] bool any() const {
    return metrics || !timeline_path.empty() || !metrics_stream_path.empty();
  }
};

/// Flag rows for `options`: --metrics, --timeline, --timeline-chunk,
/// --metrics-stream and --sample-interval in family kObs, --slo in kSlo.
[[nodiscard]] std::vector<cli::Flag> cli_flags(Options& options);

class Hub {
 public:
  explicit Hub(Options options);
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  [[nodiscard]] Registry& registry() { return registry_; }
  [[nodiscard]] Sampler& sampler() { return sampler_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// The timeline recorder, or nullptr when no --timeline path was given --
  /// components wired with a null Timeline* skip recording entirely.
  [[nodiscard]] Timeline* timeline() {
    return options_.timeline_path.empty() ? nullptr : &timeline_;
  }

  /// Track/name registry for label resolution. Always valid -- the machine
  /// registers tracks here even when timeline *recording* is off, so the
  /// metrics stream can name its channels without buffering any records.
  [[nodiscard]] Timeline& track_registry() { return timeline_; }

  /// The JSONL metrics stream writer, or nullptr when no
  /// --metrics-stream path was given (or the file failed to open).
  [[nodiscard]] MetricsStreamWriter* metrics_stream() {
    return metrics_stream_writer_ ? &*metrics_stream_writer_ : nullptr;
  }

  /// Identifies the run in the metrics dump (experiment/policy label).
  void set_label(std::string label) {
    label_ = std::move(label);
    if (metrics_stream_writer_) metrics_stream_writer_->set_label(label_);
  }

  /// Called by the machine when its run completes: final sample, then
  /// freeze probes so exports outlive the machine.
  void finish_run(sim::SimTime end) {
    sampler_.finish(end);
    registry_.freeze_probes();
    end_time_ = end;
  }

  /// Writes the requested outputs (metrics dump and/or timeline JSON);
  /// call once, at end of run. Diagnostics (file errors, "wrote N records"
  /// notes) go to `diag`. Returns false if any output file could not be
  /// opened or written; each file is flushed and checked.
  bool write_outputs(std::ostream& diag);

 private:
  /// Opens the trace file and writes the preamble on first use (the first
  /// chunk drained, or end of run); false if the file cannot be opened.
  bool ensure_timeline_writer();

  Options options_;
  Registry registry_;
  Timeline timeline_;
  Sampler sampler_;
  std::string label_ = "tmcsim";
  sim::SimTime end_time_;
  std::ofstream timeline_stream_out_;
  std::optional<ChromeTraceWriter> timeline_writer_;
  bool timeline_open_failed_ = false;
  std::ofstream metrics_stream_out_;
  std::optional<MetricsStreamWriter> metrics_stream_writer_;
  bool metrics_stream_failed_ = false;
};

}  // namespace tmc::obs
