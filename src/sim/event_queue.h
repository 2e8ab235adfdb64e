// tmcsim -- pending-event set for the discrete-event kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/slot_pool.h"
#include "sim/time.h"
#include "sim/unique_function.h"

namespace tmc::sim {

/// Opaque handle identifying a scheduled event; used to cancel it.
/// Handle 0 is never issued and acts as "no event".
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = 0;

/// Time-ordered set of pending events.
///
/// Ties are broken by insertion order (FIFO), which makes simulations
/// deterministic: two events scheduled for the same instant fire in the order
/// they were scheduled. Cancellation is O(1) (lazy deletion on pop).
///
/// Implementation: a 4-ary min-heap of (time, sequence) keys over a
/// SlotPool that stores the callbacks inline. The hot schedule/pop path
/// touches only the heap array and one pool slot -- no hashing anywhere --
/// and with UniqueFunction's small-buffer storage a typical event never
/// allocates. The schedule calls are templates that build the caller's
/// callable directly in its slot, and a pop moves it from the slot into
/// the caller's Fired record: one construction and one move per event.
/// An EventId encodes the slot's SlotHandle; cancel() destroys the callback
/// and retires the slot immediately, leaving the heap entry to be skipped
/// when it surfaces (the generation tag detects staleness even after the
/// slot has been reused).
///
/// Same-instant fast lane: an event scheduled for exactly the time of the
/// most recently popped event (a zero-delay cascade -- dispatch pumps, gang
/// fan-out, job admission) bypasses the heap into a plain FIFO.
/// This is order-exact, not an approximation: every heap entry at that
/// instant was inserted before the clock reached it and so carries a lower
/// sequence number than anything in the lane, and pop() compares the two
/// fronts under the same strict (time, seq) order either way. The lane
/// fires 13% of the pops on perfbench's paper_batch workload, 18% on
/// serve_mix and 33% on scale_wormhole.
///
/// Stepped events: schedule_stepped() inserts an entry that stands in for a
/// self-rescheduling callback chain (a CPU burst that renews its quantum at
/// every boundary). Each time the entry surfaces before its deadline, the
/// queue re-keys it in place -- drawing the next sequence number exactly as
/// the chain's re-schedule would, at the same moment -- and runs nothing.
/// The callback fires only when the entry surfaces at its deadline. Because
/// every draw happens in the same order as in the eager chain, sequence
/// numbers, tie-breaks and scheduled_count() are all unchanged.
///
/// Step lane: stepped entries that share a step size re-key to `now + step`,
/// a key at or after every other such key, so their steps arrive in key
/// order. The queue keeps them in a second FIFO, sorted by (time, seq), of
/// which only the front lives in the heap. A step whose new key is not
/// before the lane's back key is appended to the lane (the front is
/// re-keyed in place when it is the lane's only entry); any other step
/// re-keys its entry in the heap. schedule_stepped() places a new entry by
/// the same rule, and one that finds the lane empty becomes its front. When
/// the front fires, steps, or surfaces cancelled, the next live lane entry
/// takes its place in the heap. A machine of N CPUs on one quantum then
/// keeps one stepped entry in the heap, not N, and a step costs a sift
/// through the plain events only.
/// This is exact, not a heuristic:
///  - every pending entry sits in exactly one place (the heap, the
///    same-instant lane or behind the step lane's front), and the step lane
///    is sorted, so its front is its minimum and the heap top is still the
///    minimum of everything outside the same-instant lane;
///  - so every pop and step happens at the same moment as with one heap,
///    drawing the same sequence number, and the pop order, tie-breaks,
///    scheduled_count(), steps_taken() and peak_size() are all unchanged.
/// The front is identified by its whole SlotHandle: a cancelled front's
/// slot index can be reused at once by an unrelated event.
class EventQueue {
 public:
  using Callback = UniqueFunction<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  /// Pending callbacks are destroyed without firing, via discard_all(), so
  /// destructors that schedule follow-up events stay well-defined.
  ~EventQueue() { discard_all(); }

  /// Schedules `cb` to fire at absolute time `at`. Returns a handle that can
  /// be passed to `cancel`. `cb` is any callable Callback accepts; it is
  /// constructed in its slot.
  template <typename F>
  EventId schedule(SimTime at, F&& cb) {
    const SlotHandle slot = acquire_slot();
    slots_[slot.index].callback.emplace(std::forward<F>(cb));
    return place(at, slot);
  }

  /// Schedules a stepped event: it surfaces at `first`, then every `step`
  /// (> 0), with the last step clipped to `deadline` (>= `first`). Every
  /// surfacing before the deadline is a silent step: the entry is re-keyed
  /// with a freshly drawn sequence number and nothing runs. `cb` fires when
  /// the entry surfaces at its deadline. Steps are counted by
  /// steps_taken(), not as pops.
  template <typename F>
  EventId schedule_stepped(SimTime first, SimTime step, SimTime deadline,
                           F&& cb) {
    const SlotHandle slot = acquire_slot();
    slots_[slot.index].callback.emplace(std::forward<F>(cb));
    return place_stepped(first, step, deadline, slot);
  }

  /// Moves a pending stepped event's deadline to its current key, so its
  /// callback fires at the next surfacing (with the key the eager chain
  /// would have drawn). Returns false if `id` is not a pending stepped
  /// event.
  bool truncate(EventId id);

  /// Current key (next surfacing time) of a pending stepped event.
  [[nodiscard]] SimTime pending_time(EventId id) const;

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or the id was never issued.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return slots_.live_count() == 0; }
  [[nodiscard]] std::size_t size() const { return slots_.live_count(); }

  /// Time of the earliest pending event; for a stepped event, its next
  /// surfacing. Must not be called when empty.
  [[nodiscard]] SimTime next_time() const;

  /// Removes and returns the earliest pending event's callback, along with
  /// its firing time. Must not be called when empty.
  struct Fired {
    SimTime time;
    EventId id = kNoEvent;
    Callback callback;
  };
  Fired pop();

  /// Fused next_time()+pop(): pops the earliest pending event into `out`
  /// only if its time is <= `limit`. Returns false (leaving `out` untouched)
  /// when the queue is empty or the earliest event lies beyond the limit.
  /// Equivalent to `!empty() && next_time() <= limit` followed by `pop()`,
  /// but walks the stale-entry lazy-deletion pass once instead of twice,
  /// and moves the callback from its slot straight into `out` (destroying
  /// the one `out` held).
  bool pop_if_at_most(SimTime limit, Fired& out);

  /// Total events ever scheduled (monotone; includes cancelled ones). Each
  /// step of a stepped event counts, as the eager re-schedule would.
  [[nodiscard]] std::uint64_t scheduled_count() const { return scheduled_; }

  /// Silent steps taken by stepped events (monotone). Fired events plus
  /// steps equal the events an eager callback chain would have fired.
  [[nodiscard]] std::uint64_t steps_taken() const { return steps_; }

  /// Time of the most recent pop or step: the instant the queue last
  /// reached.
  [[nodiscard]] SimTime current_time() const { return current_; }

  /// High-water mark of the pending set (kernel self-profile: heap depth).
  [[nodiscard]] std::size_t peak_size() const { return slots_.peak_live(); }

  /// Destroys all pending events without firing them (a stepped event is
  /// dropped whole, without walking its steps). Destroying a callback
  /// can release resources that schedule new events; the loop keeps going
  /// until the set is truly empty. Returns the number discarded.
  std::size_t discard_all();

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // global schedule order: the FIFO tie-break
    SlotHandle slot;
  };
  struct Slot {
    Callback callback;
    bool stepped = false;  // its schedule lives in stepping_[slot index]
  };
  // One pending event is 72 bytes: the 56-byte callback, its stepped flag
  // and the pool's generation and free-list words.
  static_assert(SlotPool<Slot>::kSlotBytes == 72);
  /// Schedule of a stepped event, kept beside the slot pool (indexed like
  /// it) so plain events do not pay for it.
  struct Stepping {
    SimTime key;  // current heap key: the next surfacing
    SimTime step;
    SimTime deadline;
  };
  /// Slot-pool capacity reserved on first use: 1024 x 72 B slots plus the
  /// 1024 x 24 B heap array reserved beside it, 96 KiB. It covers the
  /// pending-set peaks measured so far (about 150 on the paper's 16-node
  /// batches, one per node on a 1,024-node machine); a larger run doubles
  /// the pool and keeps that capacity. 4096 slots left three quarters
  /// unused. 256 slots measured 8% slower set-up of the paper's 16-node
  /// machines (glibc, x86-64), although none outgrows them: an allocator
  /// effect, mostly in machine construction, which no event reaches.
  static constexpr std::size_t kInitialSlots = 1024;

  static constexpr EventId make_id(SlotHandle slot) {
    return (static_cast<EventId>(slot.generation) << 32) |
           static_cast<EventId>(slot.index + 1);
  }
  /// Inverse of make_id. kNoEvent decodes to index 0xffffffff, which no
  /// pool reaches.
  static constexpr SlotHandle slot_of(EventId id) {
    return SlotHandle{static_cast<std::uint32_t>(id) - 1,
                      static_cast<std::uint32_t>(id >> 32)};
  }

  // min-heap order: earliest time first, then lowest sequence number.
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Takes a pool slot for a new event (its callback is empty). Shared by
  /// every schedule path; keeps the heap reserved alongside the pool.
  SlotHandle acquire_slot();
  /// Queues the plain event in `slot` at `at`, drawing its sequence number.
  EventId place(SimTime at, SlotHandle slot);
  /// Queues the stepped event in `slot` (see schedule_stepped).
  EventId place_stepped(SimTime first, SimTime step, SimTime deadline,
                        SlotHandle slot);

  /// True when `id` names a pending event. Ids arrive from callers, so the
  /// slot index is range-checked: kNoEvent and ids this queue never issued
  /// are rejected too.
  [[nodiscard]] bool pending(EventId id) const {
    const SlotHandle slot = slot_of(id);
    return slot.index < slots_.size() && slots_.live(slot);
  }
  [[nodiscard]] bool pending_stepped(EventId id) const {
    return pending(id) && slots_[slot_of(id).index].stepped;
  }

  /// Drops stale fronts; true when the lane's front precedes the heap top
  /// (so it is the next to pop). Must not be called when empty.
  bool lane_leads() const;
  /// Takes the heap top's step if it is a stepped event surfacing before
  /// its deadline: re-keys it (in the heap or onto the step lane) and
  /// returns true.
  bool step_top();
  /// Removes the (live) heap top into `out`.
  void take_heap_top(Fired& out);
  /// Moves the callback of the just-removed entry `e` into `out` and
  /// retires its slot.
  void take_slot(Entry e, Fired& out);
  // Lazy deletion happens on the read path (next_time is const), so the
  // heap and step-lane maintenance helpers are const over mutable state.
  void drop_stale_top() const;
  /// Removes the heap top; when it is the step lane's front, the next live
  /// lane entry takes its place.
  void remove_top() const;
  void pop_top() const;
  void sift_up(std::size_t i) const;
  void sift_down(std::size_t i) const;

  /// Skips cancelled entries at the front of the same-instant lane; resets
  /// the lane to offset 0 (keeping capacity) once fully drained.
  void drop_stale_fifo() const;
  [[nodiscard]] bool fifo_drained() const {
    return now_head_ == now_fifo_.size();
  }
  /// True when an event at `at` may ride the same-instant lane: the clock
  /// (time of the last pop) has reached `at`, and the lane holds nothing
  /// from a different instant.
  [[nodiscard]] bool fifo_eligible(SimTime at) const {
    return at == current_ && (fifo_drained() || now_fifo_.back().time == at);
  }
  /// Consumes the front lane entry (already known live) into `out`.
  void take_fifo_front(Fired& out);

  /// True when `slot` is the step lane's front: index and generation both.
  [[nodiscard]] bool is_step_front(SlotHandle slot) const {
    return slot.index == step_front_.slot.index &&
           slot.generation == step_front_.slot.generation;
  }
  /// Key a step or a new stepped entry must not precede to join the step
  /// lane: its last entry's, or the front's when none waits behind it.
  [[nodiscard]] const Entry& step_lane_back() const {
    return step_head_ == step_lane_.size() ? step_front_ : step_lane_.back();
  }
  /// Makes the next live entry behind the front the new front (the caller
  /// puts it in the heap) and returns true; false, with the lane emptied,
  /// when none is left.
  bool advance_step_front() const;

  mutable std::vector<Entry> heap_;
  /// Same-instant lane: entries at the current instant, consumed from
  /// now_head_, appended at the back. Drains completely before the clock
  /// can advance (its entries are, by construction, among the earliest
  /// pending), so a flat vector with a head cursor suffices.
  mutable std::vector<Entry> now_fifo_;
  mutable std::size_t now_head_ = 0;
  /// Step lane: step_front_ is in the heap; the stepped entries behind it
  /// wait here in (time, seq) order, consumed from step_head_ and appended
  /// at the back. Unlike the same-instant lane it need not drain while a
  /// machine runs, so the consumed prefix is erased once it is half the
  /// vector: each entry moves O(1) times.
  static constexpr std::uint32_t kNoFront = 0xffffffffu;  // no pool index
  mutable Entry step_front_{SimTime{}, 0, SlotHandle{kNoFront, 0}};
  mutable std::vector<Entry> step_lane_;
  mutable std::size_t step_head_ = 0;
  SlotPool<Slot> slots_{kInitialSlots};
  std::vector<Stepping> stepping_;  // grown with the pool, by stepped events
  std::uint64_t scheduled_ = 0;
  std::uint64_t steps_ = 0;
  /// Time of the most recently popped (or stepped) event; the gate for the
  /// fast lane. Starts at zero: nothing can be scheduled before the epoch, so events
  /// scheduled at t=0 before the first pop ride the lane correctly.
  SimTime current_;
};

}  // namespace tmc::sim
