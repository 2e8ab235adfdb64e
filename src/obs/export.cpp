#include "obs/export.h"

#include <array>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

namespace tmc::obs {
namespace {

/// Formatting parts for append(): text and characters go in verbatim,
/// integers as decimals, doubles as JSON numbers, and the wrappers below
/// as an escaped string or a trace timestamp.
struct Escaped {
  std::string_view text;
};
struct Micros {
  std::int64_t ns;
};

/// Appends std::to_chars(value, format...) -- the bytes printf gives.
template <typename... Format>
void put_chars(std::string& out, Format... format) {
  char buf[64];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, format...).ptr);
}

void put(std::string& out, std::string_view text) { out += text; }
void put(std::string& out, char c) { out += c; }
void put(std::string& out, std::integral auto v) { put_chars(out, v); }

/// %.12g (to_chars' general format at precision 12) keeps 12 significant
/// digits -- plenty for metrics -- and non-finite values (not
/// representable in JSON) clamp to 0.
void put(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += '0';
    return;
  }
  put_chars(out, v, std::chars_format::general, 12);
}

/// JSON string escape (quotes, backslashes, control characters).
void put(std::string& out, Escaped e) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : e.text) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else if (u < 0x20) {
      out += "\\u00";
      out += kHex[u >> 4];
      out += kHex[u & 0xf];
    } else {
      out += c;
    }
  }
}

/// Microsecond timestamp from nanoseconds, keeping sub-us fractions (%.3f).
void put(std::string& out, Micros t) {
  if (t.ns % 1000 == 0) {
    put_chars(out, t.ns / 1000);
  } else {
    put_chars(out, static_cast<double>(t.ns) / 1000.0,
              std::chars_format::fixed, 3);
  }
}

template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (put(out, parts), ...);
}

void write_out(std::ostream& os, const std::string& text) {
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

/// Chrome trace "process" per track kind: pid = TrackKind + 1.
constexpr std::array<std::string_view, 5> kProcessNames{
    "nodes", "links", "partitions", "machine", "jobs"};

int pid(TrackKind kind) { return static_cast<int>(kind) + 1; }

/// The one record layout: `head`, then "id" (async and flow kinds), "pid",
/// "tid" (all but samples), "ts", "dur" (spans), "name" and "args".
/// Samples (counter events) group by (pid, name), so their name is
/// qualified with the track name and their one arg is keyed by the channel.
/// Async spans nest per (cat, id), so concurrent jobs share a class track;
/// a flow finish's "bp":"e" binds the arrow head to the enclosing slice.
struct Layout {
  std::string_view head;
  bool id = false;
  bool dur = false;
};

// Indexed by RecordKind.
constexpr std::array<Layout, 7> kLayouts{{
    {R"({"ph":"X")", false, true},                 // kSpan
    {R"({"ph":"i","s":"t")"},                      // kInstant
    {R"({"ph":"C")"},                              // kSample
    {R"({"ph":"b","cat":"job")", true},            // kAsyncBegin
    {R"({"ph":"e","cat":"job")", true},            // kAsyncEnd
    {R"({"ph":"s","cat":"flow")", true},           // kFlowStart
    {R"({"ph":"f","bp":"e","cat":"flow")", true},  // kFlowFinish
}};
static_assert(kLayouts.size() ==
              static_cast<std::size_t>(RecordKind::kFlowFinish) + 1);

/// Batches larger than this go out in several writes, so the buffered
/// timeline's tail (the whole run) never costs a second copy of the trace.
constexpr std::size_t kWriteBytes = std::size_t{1} << 20;

/// Indexed by Registry::Kind.
constexpr std::array<std::string_view, 4> kInstrumentKinds{
    "counter", "gauge", "distribution", "probe"};

std::string_view kind_name(Registry::Kind kind) {
  return kInstrumentKinds[static_cast<std::size_t>(kind)];
}

}  // namespace

void ChromeTraceWriter::sep() {
  if (!first_) buf_ += ",\n";
  first_ = false;
}

void ChromeTraceWriter::flush() {
  write_out(os_, buf_);
  buf_.clear();
}

void ChromeTraceWriter::begin(const Timeline& timeline) {
  buf_ += "{\"traceEvents\":[";
  // Metadata: name each process (track kind) and thread (track).
  std::array<bool, kProcessNames.size()> kind_seen{};
  const auto& tracks = timeline.tracks();
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    const TrackKind kind = tracks[i].kind;
    if (!kind_seen[static_cast<std::size_t>(kind)]) {
      kind_seen[static_cast<std::size_t>(kind)] = true;
      sep();
      append(buf_, "{\"ph\":\"M\",\"pid\":", pid(kind),
             ",\"name\":\"process_name\",\"args\":{\"name\":\"",
             kProcessNames[static_cast<std::size_t>(kind)], "\"}}");
    }
    sep();
    append(buf_, "{\"ph\":\"M\",\"pid\":", pid(kind), ",\"tid\":", i + 1,
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"",
           Escaped{tracks[i].name}, "\"}}");
  }
  flush();
}

void ChromeTraceWriter::write_records(
    const Timeline& timeline, const std::vector<TimelineRecord>& records) {
  const auto& tracks = timeline.tracks();
  for (const TimelineRecord& r : records) {
    const Timeline::Track& track = tracks[r.track];
    const Layout& layout = kLayouts[static_cast<std::size_t>(r.kind)];
    const bool sample = r.kind == RecordKind::kSample;
    const Escaped name{timeline.name(r.name)};
    sep();
    buf_ += layout.head;
    if (layout.id) append(buf_, ",\"id\":", r.id);
    append(buf_, ",\"pid\":", pid(track.kind));
    if (!sample) append(buf_, ",\"tid\":", r.track + 1);
    append(buf_, ",\"ts\":", Micros{r.start_ns});
    if (layout.dur) append(buf_, ",\"dur\":", Micros{r.dur_ns});
    buf_ += ",\"name\":\"";
    if (sample) {
      append(buf_, Escaped{track.name}, ':', name, "\",\"args\":{\"", name);
    } else {
      append(buf_, name, "\",\"args\":{\"value");
    }
    append(buf_, "\":", r.value, "}}");
    if (buf_.size() >= kWriteBytes) flush();
  }
  flush();
}

void ChromeTraceWriter::end() {
  buf_ += "],\"displayTimeUnit\":\"ms\"}\n";
  flush();
}

void write_chrome_trace(const Timeline& timeline, std::ostream& os) {
  ChromeTraceWriter writer(os);
  writer.begin(timeline);
  writer.write_records(timeline, timeline.records());
  writer.end();
}

void MetricsStreamWriter::begin(const std::vector<std::string>& channels) {
  line_.clear();
  append(line_, "{\"schema\":\"tmc-metrics-stream-v1\",\"label\":\"",
         Escaped{label_}, "\",\"channels\":[");
  for (std::size_t i = 0; i < channels.size(); ++i) {
    if (i != 0) line_ += ',';
    append(line_, '"', Escaped{channels[i]}, '"');
  }
  line_ += "]}\n";
  write_out(os_, line_);
}

void MetricsStreamWriter::tick(double t_s, const std::vector<double>& values) {
  line_.clear();
  append(line_, "{\"t_s\":", t_s, ",\"v\":[");
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) line_ += ',';
    put(line_, values[i]);
  }
  line_ += "]}\n";
  write_out(os_, line_);
  ++ticks_;
}

void write_metrics_json(const Registry& registry, std::ostream& os,
                        std::string_view label, sim::SimTime end) {
  std::string out;
  append(out, "{\"schema\":\"tmc-metrics-v1\",\"label\":\"", Escaped{label},
         "\",\"end_time_s\":", end.to_seconds(), ",\"metrics\":[");
  bool first = true;
  for (const Registry::View& v : registry.snapshot()) {
    if (!first) out += ",\n";
    first = false;
    append(out, "{\"name\":\"", Escaped{v.name}, "\",\"kind\":\"",
           kind_name(v.kind), '"');
    if (v.kind == Registry::Kind::kDistribution) {
      const sim::OnlineStats& s = v.distribution->stats();
      append(out, ",\"count\":", s.count(), ",\"mean\":", s.mean(),
             ",\"stddev\":", s.stddev(), ",\"min\":", s.min(),
             ",\"max\":", s.max());
      if (const auto& h = v.distribution->histogram()) {
        append(out, ",\"histogram\":{\"lo\":", h->lo(), ",\"hi\":", h->hi(),
               ",\"underflow\":", h->underflow(),
               ",\"overflow\":", h->overflow(), ",\"bins\":[");
        for (std::size_t i = 0; i < h->bin_count_size(); ++i) {
          if (i != 0) out += ',';
          put(out, h->bin_count(i));
        }
        out += "]}";
      }
    } else if (v.kind == Registry::Kind::kCounter) {
      append(out, ",\"value\":", v.count);
    } else {
      append(out, ",\"value\":", v.value);
    }
    out += '}';
  }
  out += "]}\n";
  write_out(os, out);
}

void write_metrics_csv(const Registry& registry, std::ostream& os) {
  std::string out = "name,kind,count,value,mean,stddev,min,max\n";
  for (const Registry::View& v : registry.snapshot()) {
    append(out, v.name, ',', kind_name(v.kind), ',');
    if (v.kind == Registry::Kind::kDistribution) {
      const sim::OnlineStats& s = v.distribution->stats();
      append(out, s.count(), ",,", s.mean(), ',', s.stddev(), ',', s.min(),
             ',', s.max());
    } else if (v.kind == Registry::Kind::kCounter) {
      append(out, v.count, ',', v.count, ",,,,");
    } else {
      append(out, ',', v.value, ",,,,");
    }
    out += '\n';
  }
  write_out(os, out);
}

}  // namespace tmc::obs
