#include "obs/hub.h"

#include <fstream>
#include <ostream>
#include <string_view>

namespace tmc::obs {
namespace {

/// Flushes `out` if it was opened; true if it was and every write to it
/// succeeded. Otherwise one diagnostic line names the output and its path.
bool check_output(std::ostream& out, bool opened, std::ostream& diag,
                  std::string_view what, const std::string& path) {
  if (opened && out.flush()) return true;
  diag << "obs: " << (opened ? "error writing " : "cannot open ") << what
       << " path " << path << "\n";
  return false;
}

}  // namespace

std::vector<cli::Flag> cli_flags(Options& options) {
  std::vector<cli::Flag> rows = cli::in_family(cli::Family::kObs, {
      cli::inline_path("--metrics", options.metrics, options.metrics_path,
                       "dump the metrics registry at end of run\n"
                       "(stderr by default; *.csv selects CSV)"),
      cli::text("--timeline", "PATH", options.timeline_path,
                "record a Chrome trace_event timeline\n"
                "(open in Perfetto / chrome://tracing)"),
      cli::integer<std::size_t>("--timeline-chunk", "N",
                                options.timeline_chunk,
                                "stream the timeline to disk every N\n"
                                "records instead of buffering the run",
                                1, std::size_t{1} << 30),
      cli::text("--metrics-stream", "PATH", options.metrics_stream_path,
                "JSONL sampler stream (one line per tick,\n"
                "O(1) memory; works without --timeline)"),
      {"--sample-interval", cli::Kind::kReal, "MS",
       "counter-sampling period for --timeline\n"
       "and --metrics-stream (default 100)",
       cli::Family::kObs,
       [&options](std::string_view v) {
         double ms = 0.0;
         std::string error = cli::parse_real("--sample-interval", v,
                                             {0.0, 1e9, true}, ms);
         if (error.empty()) {
           options.sample_interval = sim::SimTime::microseconds(
               static_cast<std::int64_t>(ms * 1000.0));
         }
         return error;
       }},
  });
  rows.push_back(
      {"--slo", cli::Kind::kText, "CLASS=LAT[@PCT][,...]",
       "per-class response-time targets for the\n"
       "serving harness (ns/us/ms/s suffixes;\n"
       "objective percent defaults to 99), e.g.\n"
       "--slo interactive=50ms,batch=2s@95",
       cli::Family::kSlo,
       [&options](std::string_view v) {
         std::string error;
         parse_slo_spec(v, options.slo, error);
         return error;
       }});
  return rows;
}

Hub::Hub(Options options) : options_(std::move(options)) {
  if (!options_.metrics_stream_path.empty()) {
    metrics_stream_out_.open(options_.metrics_stream_path);
    if (!metrics_stream_out_) {
      metrics_stream_failed_ = true;
    } else {
      metrics_stream_writer_.emplace(metrics_stream_out_);
      metrics_stream_writer_->set_label(label_);
    }
  }
  if (!options_.timeline_path.empty() && options_.timeline_chunk > 0) {
    // On open failure the chunk is dropped (the buffer must still be
    // cleared to keep memory flat); write_outputs reports the error.
    timeline_.set_flush(
        [this](const std::vector<TimelineRecord>& records) {
          if (ensure_timeline_writer()) {
            timeline_writer_->write_records(timeline_, records);
          }
        },
        options_.timeline_chunk);
  }
}

bool Hub::ensure_timeline_writer() {
  if (timeline_open_failed_) return false;
  if (timeline_writer_) return true;
  timeline_stream_out_.open(options_.timeline_path);
  if (!timeline_stream_out_) {
    timeline_open_failed_ = true;
    return false;
  }
  // All tracks are registered before the run starts (the machine wires
  // observability during construction), so the preamble is the same
  // whether the first chunk drains mid-run or the whole timeline at the
  // end.
  timeline_writer_.emplace(timeline_stream_out_);
  timeline_writer_->begin(timeline_);
  return true;
}

bool Hub::write_outputs(std::ostream& diag) {
  bool ok = true;

  if (options_.metrics) {
    const std::string& path = options_.metrics_path;
    const bool csv = path.size() > 4 && path.ends_with(".csv");
    if (path.empty()) {
      write_metrics_json(registry_, diag, label_, end_time_);
    } else {
      std::ofstream out(path);
      const bool opened = out.is_open();
      if (opened && csv) {
        write_metrics_csv(registry_, out);
      } else if (opened) {
        write_metrics_json(registry_, out, label_, end_time_);
      }
      if (check_output(out, opened, diag, "metrics", path)) {
        diag << "obs: wrote " << registry_.size() << " metrics to " << path
             << (csv ? " (csv)\n" : " (json)\n");
      } else {
        ok = false;
      }
    }
  }

  if (!options_.timeline_path.empty()) {
    // A buffered timeline is a chunked one that drained nothing during the
    // run: either way, write the tail, then the closing bracket.
    const bool opened = ensure_timeline_writer();
    if (opened) {
      timeline_writer_->write_records(timeline_, timeline_.records());
      timeline_writer_->end();
    }
    if (check_output(timeline_stream_out_, opened, diag, "timeline",
                     options_.timeline_path)) {
      const std::size_t chunk = options_.timeline_chunk;
      diag << "obs: " << (chunk > 0 ? "streamed " : "wrote ")
           << timeline_.flushed_records() + timeline_.records().size()
           << " timeline records (" << timeline_.tracks().size() << " tracks";
      if (chunk > 0) diag << ", chunk " << chunk;
      diag << ") to " << options_.timeline_path << "\n";
    } else {
      ok = false;
    }
  }

  if (!options_.metrics_stream_path.empty()) {
    if (check_output(metrics_stream_out_, !metrics_stream_failed_, diag,
                     "metrics stream", options_.metrics_stream_path)) {
      diag << "obs: streamed " << metrics_stream_writer_->ticks()
           << " metric samples to " << options_.metrics_stream_path << "\n";
    } else {
      ok = false;
    }
  }

  return ok;
}

}  // namespace tmc::obs
