#include "obs/export.h"

#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>

namespace tmc::obs {
namespace {

/// JSON string escape (quotes, backslashes, control characters).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// %.12g keeps 12 significant digits -- plenty for metrics -- and non-finite
/// values (not representable in JSON) clamp to 0.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// Microsecond timestamp from nanoseconds, keeping sub-us fractions.
std::string trace_ts(std::int64_t ns) {
  char buf[48];
  if (ns % 1000 == 0) {
    std::snprintf(buf, sizeof buf, "%" PRId64, ns / 1000);
  } else {
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1000.0);
  }
  return buf;
}

struct KindInfo {
  int pid;
  const char* process_name;
};

KindInfo kind_info(TrackKind kind) {
  switch (kind) {
    case TrackKind::kNode:
      return {1, "nodes"};
    case TrackKind::kLink:
      return {2, "links"};
    case TrackKind::kPartition:
      return {3, "partitions"};
    case TrackKind::kGlobal:
      return {4, "machine"};
    case TrackKind::kJob:
      return {5, "jobs"};
  }
  return {4, "machine"};
}

const char* kind_name(Registry::Kind kind) {
  switch (kind) {
    case Registry::Kind::kCounter:
      return "counter";
    case Registry::Kind::kGauge:
      return "gauge";
    case Registry::Kind::kDistribution:
      return "distribution";
    case Registry::Kind::kProbe:
      return "probe";
  }
  return "counter";
}

}  // namespace

void ChromeTraceWriter::sep() {
  if (!first_) os_ << ",\n";
  first_ = false;
}

void ChromeTraceWriter::begin(const Timeline& timeline) {
  os_ << "{\"traceEvents\":[";
  // Metadata: name each process (track kind) and thread (track).
  std::array<bool, 5> kind_seen{};
  const auto& tracks = timeline.tracks();
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    const KindInfo info = kind_info(tracks[i].kind);
    const auto kind_index = static_cast<std::size_t>(info.pid - 1);
    if (!kind_seen[kind_index]) {
      kind_seen[kind_index] = true;
      sep();
      os_ << "{\"ph\":\"M\",\"pid\":" << info.pid
          << ",\"name\":\"process_name\",\"args\":{\"name\":\""
          << info.process_name << "\"}}";
    }
    sep();
    os_ << "{\"ph\":\"M\",\"pid\":" << info.pid << ",\"tid\":" << i + 1
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << json_escape(tracks[i].name) << "\"}}";
  }
}

void ChromeTraceWriter::write_records(
    const Timeline& timeline, const std::vector<TimelineRecord>& records) {
  const auto& tracks = timeline.tracks();
  for (const TimelineRecord& r : records) {
    const Timeline::Track& track = tracks[r.track];
    const KindInfo info = kind_info(track.kind);
    const std::string name = json_escape(timeline.name(r.name));
    sep();
    switch (r.kind) {
      case RecordKind::kSpan:
        os_ << "{\"ph\":\"X\",\"pid\":" << info.pid
            << ",\"tid\":" << r.track + 1 << ",\"ts\":" << trace_ts(r.start_ns)
            << ",\"dur\":" << trace_ts(r.dur_ns) << ",\"name\":\"" << name
            << "\",\"args\":{\"value\":" << json_number(r.value) << "}}";
        break;
      case RecordKind::kInstant:
        os_ << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":" << info.pid
            << ",\"tid\":" << r.track + 1 << ",\"ts\":" << trace_ts(r.start_ns)
            << ",\"name\":\"" << name
            << "\",\"args\":{\"value\":" << json_number(r.value) << "}}";
        break;
      case RecordKind::kSample:
        // Counter events group by (pid, name); qualify with the track name
        // so each (track, channel) pair gets its own counter track.
        os_ << "{\"ph\":\"C\",\"pid\":" << info.pid
            << ",\"ts\":" << trace_ts(r.start_ns) << ",\"name\":\""
            << json_escape(track.name) << ":" << name << "\",\"args\":{\""
            << name << "\":" << json_number(r.value) << "}}";
        break;
      case RecordKind::kAsyncBegin:
      case RecordKind::kAsyncEnd:
        // Async spans keyed by (cat, id): same-id begin/end pairs nest as a
        // stack, so concurrent jobs share one class track without merging.
        os_ << "{\"ph\":\"" << (r.kind == RecordKind::kAsyncBegin ? 'b' : 'e')
            << "\",\"cat\":\"job\",\"id\":" << r.id
            << ",\"pid\":" << info.pid << ",\"tid\":" << r.track + 1
            << ",\"ts\":" << trace_ts(r.start_ns) << ",\"name\":\"" << name
            << "\",\"args\":{\"value\":" << json_number(r.value) << "}}";
        break;
      case RecordKind::kFlowStart:
        os_ << "{\"ph\":\"s\",\"cat\":\"flow\",\"id\":" << r.id
            << ",\"pid\":" << info.pid << ",\"tid\":" << r.track + 1
            << ",\"ts\":" << trace_ts(r.start_ns) << ",\"name\":\"" << name
            << "\",\"args\":{\"value\":" << json_number(r.value) << "}}";
        break;
      case RecordKind::kFlowFinish:
        // "bp":"e" binds the arrow head to the enclosing slice so Perfetto
        // draws it into the receive span rather than the next event.
        os_ << "{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"flow\",\"id\":" << r.id
            << ",\"pid\":" << info.pid << ",\"tid\":" << r.track + 1
            << ",\"ts\":" << trace_ts(r.start_ns) << ",\"name\":\"" << name
            << "\",\"args\":{\"value\":" << json_number(r.value) << "}}";
        break;
    }
  }
}

void ChromeTraceWriter::end() { os_ << "],\"displayTimeUnit\":\"ms\"}\n"; }

void write_chrome_trace(const Timeline& timeline, std::ostream& os) {
  ChromeTraceWriter writer(os);
  writer.begin(timeline);
  writer.write_records(timeline, timeline.records());
  writer.end();
}

void MetricsStreamWriter::begin(const std::vector<std::string>& channels) {
  os_ << "{\"schema\":\"tmc-metrics-stream-v1\",\"label\":\""
      << json_escape(label_) << "\",\"channels\":[";
  for (std::size_t i = 0; i < channels.size(); ++i) {
    if (i != 0) os_ << ",";
    os_ << "\"" << json_escape(channels[i]) << "\"";
  }
  os_ << "]}\n";
}

void MetricsStreamWriter::tick(double t_s, const std::vector<double>& values) {
  os_ << "{\"t_s\":" << json_number(t_s) << ",\"v\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) os_ << ",";
    os_ << json_number(values[i]);
  }
  os_ << "]}\n";
  ++ticks_;
}

void write_metrics_json(const Registry& registry, std::ostream& os,
                        std::string_view label, sim::SimTime end) {
  os << "{\"schema\":\"tmc-metrics-v1\",\"label\":\"" << json_escape(label)
     << "\",\"end_time_s\":" << json_number(end.to_seconds())
     << ",\"metrics\":[";
  bool first = true;
  for (const Registry::View& v : registry.snapshot()) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"" << json_escape(v.name) << "\",\"kind\":\""
       << kind_name(v.kind) << "\"";
    if (v.kind == Registry::Kind::kDistribution) {
      const sim::OnlineStats& s = v.distribution->stats();
      os << ",\"count\":" << s.count() << ",\"mean\":" << json_number(s.mean())
         << ",\"stddev\":" << json_number(s.stddev())
         << ",\"min\":" << json_number(s.min())
         << ",\"max\":" << json_number(s.max());
      if (const auto& h = v.distribution->histogram()) {
        os << ",\"histogram\":{\"lo\":" << json_number(h->lo())
           << ",\"hi\":" << json_number(h->hi())
           << ",\"underflow\":" << h->underflow()
           << ",\"overflow\":" << h->overflow() << ",\"bins\":[";
        for (std::size_t i = 0; i < h->bin_count_size(); ++i) {
          if (i != 0) os << ",";
          os << h->bin_count(i);
        }
        os << "]}";
      }
    } else if (v.kind == Registry::Kind::kCounter) {
      os << ",\"value\":" << v.count;
    } else {
      os << ",\"value\":" << json_number(v.value);
    }
    os << "}";
  }
  os << "]}\n";
}

void write_metrics_csv(const Registry& registry, std::ostream& os) {
  os << "name,kind,count,value,mean,stddev,min,max\n";
  for (const Registry::View& v : registry.snapshot()) {
    os << v.name << "," << kind_name(v.kind) << ",";
    if (v.kind == Registry::Kind::kDistribution) {
      const sim::OnlineStats& s = v.distribution->stats();
      os << s.count() << ",," << json_number(s.mean()) << ","
         << json_number(s.stddev()) << "," << json_number(s.min()) << ","
         << json_number(s.max());
    } else if (v.kind == Registry::Kind::kCounter) {
      os << v.count << "," << v.count << ",,,,";
    } else {
      os << "," << json_number(v.value) << ",,,,";
    }
    os << "\n";
  }
}

}  // namespace tmc::obs
