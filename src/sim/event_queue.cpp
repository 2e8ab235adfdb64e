#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tmc::sim {

std::uint32_t EventQueue::acquire_slot(Callback cb) {
  std::uint32_t index;
  if (free_head_ != kFreeListEnd) {
    index = free_head_;
    free_head_ = slots_[index].next_free;
  } else {
    if (slots_.size() == slots_.capacity()) {
      // One queue serves a whole simulation and routinely holds thousands of
      // pending events; sizing the pool up front (and doubling after that)
      // keeps slot relocation off the schedule hot path.
      slots_.reserve(std::max<std::size_t>(kInitialSlots, slots_.size() * 2));
      heap_.reserve(slots_.capacity());
    }
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.callback = std::move(cb);
  slot.live = true;
  return index;
}

EventId EventQueue::schedule(SimTime at, Callback cb) {
  const std::uint32_t index = acquire_slot(std::move(cb));
  Slot& slot = slots_[index];
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  if (fifo_eligible(at)) {
    now_fifo_.push_back(Entry{at, ++scheduled_, index, slot.generation});
  } else {
    heap_.push_back(Entry{at, ++scheduled_, index, slot.generation});
    sift_up(heap_.size() - 1);
  }
  return make_id(index, slot.generation);
}

std::size_t EventQueue::schedule_batch(SimTime at, std::span<Callback> cbs,
                                       EventId* ids) {
  const std::size_t k = cbs.size();
  if (k == 0) return 0;
  // Sequence numbers are handed out in span order, so the batch ties-break
  // exactly as k individual schedule() calls would. A same-instant batch
  // (the common case: dispatch fan-out committed at zero delay) appends to
  // the FIFO lane and never touches the heap.
  const bool fast = fifo_eligible(at);
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint32_t index = acquire_slot(std::move(cbs[i]));
    const Slot& slot = slots_[index];
    const Entry entry{at, ++scheduled_, index, slot.generation};
    if (fast) {
      now_fifo_.push_back(entry);
    } else {
      heap_.push_back(entry);
    }
    if (ids != nullptr) ids[i] = make_id(index, slot.generation);
  }
  live_ += k;
  if (live_ > peak_live_) peak_live_ = live_;
  if (fast) return k;
  // The first heap_.size()-k elements still satisfy the heap property, so a
  // small batch sifts each appended entry up (O(k log n)); a batch that
  // rivals the pending set rebuilds bottom-up in O(n). Heap order is the
  // strict total order (time, seq), so pop order is identical either way.
  if (k < heap_.size() / 2) {
    for (std::size_t i = heap_.size() - k; i < heap_.size(); ++i) sift_up(i);
  } else {
    heapify();
  }
  return k;
}

EventId EventQueue::schedule_stepped(SimTime first, SimTime step,
                                     SimTime deadline, Callback cb) {
  assert(step > SimTime::zero() && "a stepped event must advance");
  assert(first <= deadline);
  const std::uint32_t index = acquire_slot(std::move(cb));
  Slot& slot = slots_[index];
  slot.stepped = true;
  if (index >= stepping_.size()) stepping_.resize(slots_.size());
  stepping_[index] = Stepping{first, step, deadline};
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  // Always the heap, never the same-instant lane: only a heap top is ever
  // re-keyed. Pop merges the two fronts under (time, seq), so the order is
  // exact either way.
  heap_.push_back(Entry{first, ++scheduled_, index, slot.generation});
  sift_up(heap_.size() - 1);
  return make_id(index, slot.generation);
}

std::uint32_t EventQueue::live_index(EventId id) const {
  const auto low = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (low == 0) return kFreeListEnd;  // kNoEvent or malformed
  const std::uint32_t index = low - 1;
  if (index >= slots_.size()) return kFreeListEnd;
  const Slot& slot = slots_[index];
  if (!slot.live || slot.generation != static_cast<std::uint32_t>(id >> 32)) {
    return kFreeListEnd;  // already fired/cancelled, or a stale handle
  }
  return index;
}

bool EventQueue::truncate(EventId id) {
  const std::uint32_t index = live_index(id);
  if (index == kFreeListEnd || !slots_[index].stepped) return false;
  stepping_[index].deadline = stepping_[index].key;
  return true;
}

SimTime EventQueue::pending_time(EventId id) const {
  const std::uint32_t index = live_index(id);
  assert(index != kFreeListEnd && slots_[index].stepped &&
         "pending_time() of a non-pending or plain event");
  return stepping_[index].key;
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t index = live_index(id);
  if (index == kFreeListEnd) return false;
  // Destroying the callback can release resources whose teardown re-enters
  // schedule() (and may grow slots_); move it out and finish all bookkeeping
  // before the destructor runs at return.
  Callback doomed = std::move(slots_[index].callback);
  retire_slot(index);
  return true;
}

void EventQueue::retire_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.live = false;
  slot.stepped = false;
  ++slot.generation;
  slot.next_free = free_head_;
  free_head_ = index;
  --live_;
}

void EventQueue::drop_stale_top() const {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    const Slot& slot = slots_[top.slot];
    if (slot.live && slot.generation == top.generation) return;
    pop_top();
  }
}

void EventQueue::drop_stale_fifo() const {
  while (now_head_ < now_fifo_.size()) {
    const Entry& e = now_fifo_[now_head_];
    const Slot& slot = slots_[e.slot];
    if (slot.live && slot.generation == e.generation) return;
    ++now_head_;
  }
  // Fully drained: rewind so the lane's storage is reused, not grown.
  now_fifo_.clear();
  now_head_ = 0;
}

bool EventQueue::lane_leads() const {
  drop_stale_top();
  drop_stale_fifo();
  return !fifo_drained() &&
         (heap_.empty() || before(now_fifo_[now_head_], heap_.front()));
}

SimTime EventQueue::next_time() const {
  if (lane_leads()) return now_fifo_[now_head_].time;
  assert(!heap_.empty() && "next_time() on empty EventQueue");
  return heap_.front().time;
}

bool EventQueue::step_top() {
  Entry& top = heap_.front();
  if (!slots_[top.slot].stepped) return false;
  Stepping& stepping = stepping_[top.slot];
  if (top.time >= stepping.deadline) return false;  // due: fire it
  // Exactly what the eager chain does here: its callback pops at this key
  // and re-schedules one step on, drawing the next sequence number.
  current_ = top.time;
  top.time = std::min(top.time + stepping.step, stepping.deadline);
  top.seq = ++scheduled_;
  stepping.key = top.time;
  ++steps_;
  sift_down(0);
  return true;
}

EventQueue::Fired EventQueue::pop_fifo_front() {
  const Entry e = now_fifo_[now_head_++];
  current_ = e.time;
  Fired fired{e.time, make_id(e.slot, e.generation),
              std::move(slots_[e.slot].callback)};
  retire_slot(e.slot);
  return fired;
}

EventQueue::Fired EventQueue::pop_heap_top() {
  const Entry top = heap_.front();
  pop_top();
  current_ = top.time;
  Fired fired{top.time, make_id(top.slot, top.generation),
              std::move(slots_[top.slot].callback)};
  retire_slot(top.slot);
  return fired;
}

EventQueue::Fired EventQueue::pop() {
  for (;;) {
    if (lane_leads()) return pop_fifo_front();
    assert(!heap_.empty() && "pop() on empty EventQueue");
    if (!step_top()) return pop_heap_top();
  }
}

bool EventQueue::pop_if_at_most(SimTime limit, Fired& out) {
  for (;;) {
    if (lane_leads()) {
      if (now_fifo_[now_head_].time > limit) return false;
      out = pop_fifo_front();
      return true;
    }
    // A step is taken only where the eager chain's event would have fired,
    // so never past the limit.
    if (heap_.empty() || heap_.front().time > limit) return false;
    if (!step_top()) break;
  }
  out = pop_heap_top();
  return true;
}

std::size_t EventQueue::discard_all() {
  std::size_t n = 0;
  while (!empty()) {
    // Pops without stepping: a stepped event goes in one piece.
    Fired fired = lane_leads() ? pop_fifo_front() : pop_heap_top();
    (void)fired;  // callback destroyed here; may enqueue new events
    ++n;
  }
  return n;
}

void EventQueue::pop_top() const {
  // Bottom-up deletion: sink the root hole to a leaf along the min-child
  // chain (one 4-way min per level, no comparison against a relocated
  // element), then drop the last entry into the hole and sift it up. The
  // last entry is almost always leaf-grade, so the sift-up usually stops
  // immediately -- measurably fewer comparisons than the textbook
  // move-last-to-root-and-sift-down on this workload's shallow heaps.
  const std::size_t n = heap_.size() - 1;
  if (n == 0) {
    heap_.pop_back();
    return;
  }
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first_child = 4 * hole + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = heap_[n];
  heap_.pop_back();
  sift_up(hole);
}

void EventQueue::sift_up(std::size_t i) const {
  const Entry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventQueue::heapify() const {
  if (heap_.size() < 2) return;
  // Floyd's bottom-up build over the 4-ary layout: sift down every internal
  // node, last parent first.
  for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) {
    sift_down(i);
  }
}

void EventQueue::sift_down(std::size_t i) const {
  const std::size_t n = heap_.size();
  const Entry entry = heap_[i];
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], entry)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

}  // namespace tmc::sim
