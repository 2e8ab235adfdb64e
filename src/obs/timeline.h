// tmcsim -- binary timeline recorder.
//
// The simulator's event record: fixed-size binary records that exporters
// can turn into Chrome trace_event JSON (Perfetto-loadable).
// Components record against pre-registered tracks (one per node, link, and
// partition) using interned name ids, so a record is a 48-byte append with
// no formatting or allocation beyond vector growth.
//
// Ownership mirrors the metrics registry: the machine wires components with
// a Timeline* only when a timeline export was requested; a null pointer (the
// default) means every recording site is one predictable branch.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.h"

namespace tmc::obs {

enum class TrackKind : std::uint8_t {
  kNode,
  kLink,
  kPartition,
  kGlobal,
  kJob,  // one track per job class; concurrent jobs nest as async spans
};

using TrackId = std::uint32_t;
using NameId = std::uint32_t;

enum class RecordKind : std::uint8_t {
  kSpan,        // [start, start+dur): CPU charge, link transfer
  kInstant,     // point event: gang switch, quantum expiry
  kSample,      // counter-track value at `start` (sampler output)
  kAsyncBegin,  // open an id-keyed span on a job track (Chrome ph "b")
  kAsyncEnd,    // close the innermost open span for that id (ph "e")
  kFlowStart,   // flow arrow tail: message leaves a node (ph "s")
  kFlowFinish,  // flow arrow head: message arrives (ph "f")
};

struct TimelineRecord {
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  TrackId track = 0;
  NameId name = 0;
  RecordKind kind = RecordKind::kInstant;
  double value = 0.0;  // sample value; span/instant auxiliary arg (e.g. pid)
  std::uint64_t id = 0;  // async span group / flow pairing id
};
static_assert(sizeof(TimelineRecord) == 48,
              "the header comment states the record size");

class Timeline {
 public:
  struct Track {
    std::string name;
    TrackKind kind = TrackKind::kGlobal;
  };

  TrackId add_track(TrackKind kind, std::string name);
  /// Interns `name`; repeated calls with the same string return the same id.
  NameId intern(std::string_view name);

  void span(TrackId track, NameId name, sim::SimTime start,
            sim::SimTime duration, double value = 0.0) {
    records_.push_back(
        {start.ns(), duration.ns(), track, name, RecordKind::kSpan, value});
    maybe_flush();
  }
  void instant(TrackId track, NameId name, sim::SimTime at,
               double value = 0.0) {
    records_.push_back(
        {at.ns(), 0, track, name, RecordKind::kInstant, value});
    maybe_flush();
  }
  void sample(TrackId track, NameId name, sim::SimTime at, double value) {
    records_.push_back(
        {at.ns(), 0, track, name, RecordKind::kSample, value});
    maybe_flush();
  }

  /// Async (id-keyed) spans: begin/end pairs with the same id on the same
  /// track nest like a per-id stack, so many concurrent jobs can share one
  /// class track and still render as separate nested rows in Perfetto.
  void async_begin(TrackId track, NameId name, sim::SimTime at,
                   std::uint64_t id, double value = 0.0) {
    records_.push_back(
        {at.ns(), 0, track, name, RecordKind::kAsyncBegin, value, id});
    maybe_flush();
  }
  void async_end(TrackId track, NameId name, sim::SimTime at,
                 std::uint64_t id, double value = 0.0) {
    records_.push_back(
        {at.ns(), 0, track, name, RecordKind::kAsyncEnd, value, id});
    maybe_flush();
  }

  /// Flow arrows: a start on the sending track and a finish with the same
  /// id on the receiving track draw a causality arrow across tracks.
  void flow_start(TrackId track, NameId name, sim::SimTime at,
                  std::uint64_t id, double value = 0.0) {
    records_.push_back(
        {at.ns(), 0, track, name, RecordKind::kFlowStart, value, id});
    maybe_flush();
  }
  void flow_finish(TrackId track, NameId name, sim::SimTime at,
                   std::uint64_t id, double value = 0.0) {
    records_.push_back(
        {at.ns(), 0, track, name, RecordKind::kFlowFinish, value, id});
    maybe_flush();
  }

  /// Arms chunked draining: whenever at least `chunk_records` records have
  /// accumulated, `flush` is invoked with the batch and the buffer is
  /// cleared. Records are appended in event order, so draining preserves
  /// the exact sequence the buffered path would have written.
  using FlushFn = std::function<void(const std::vector<TimelineRecord>&)>;
  void set_flush(FlushFn flush, std::size_t chunk_records) {
    flush_ = std::move(flush);
    chunk_records_ = chunk_records == 0 ? 1 : chunk_records;
  }

  /// Total records handed to the flush callback so far.
  [[nodiscard]] std::uint64_t flushed_records() const {
    return flushed_records_;
  }

  [[nodiscard]] const std::vector<Track>& tracks() const { return tracks_; }
  [[nodiscard]] std::string_view name(NameId id) const { return names_[id]; }
  [[nodiscard]] const std::vector<TimelineRecord>& records() const {
    return records_;
  }

 private:
  void maybe_flush() {
    if (flush_ && records_.size() >= chunk_records_) {
      flushed_records_ += records_.size();
      flush_(records_);
      records_.clear();
    }
  }

  std::vector<Track> tracks_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, NameId> name_ids_;
  std::vector<TimelineRecord> records_;
  FlushFn flush_;
  std::size_t chunk_records_ = 0;
  std::uint64_t flushed_records_ = 0;
};

}  // namespace tmc::obs
