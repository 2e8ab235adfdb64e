#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tmc::sim {

SlotHandle EventQueue::acquire_slot() {
  // The pool reserves kInitialSlots on first use and doubles after that,
  // and the heap array follows it, so once the pending set has reached its
  // peak neither relocates on the schedule hot path.
  const SlotHandle handle = slots_.acquire(
      [this](std::size_t capacity) { heap_.reserve(capacity); });
  slots_[handle.index].stepped = false;
  return handle;
}

EventId EventQueue::place(SimTime at, SlotHandle slot) {
  if (fifo_eligible(at)) {
    now_fifo_.push_back(Entry{at, ++scheduled_, slot});
  } else {
    heap_.push_back(Entry{at, ++scheduled_, slot});
    sift_up(heap_.size() - 1);
  }
  return make_id(slot);
}

EventId EventQueue::place_stepped(SimTime first, SimTime step,
                                  SimTime deadline, SlotHandle slot) {
  assert(step > SimTime::zero() && "a stepped event must advance");
  assert(first <= deadline);
  slots_[slot.index].stepped = true;
  if (slot.index >= stepping_.size()) stepping_.resize(slots_.size());
  stepping_[slot.index] = Stepping{first, step, deadline};
  // Never the same-instant lane: only a heap top is ever re-keyed. Pop
  // merges the fronts under (time, seq), so the order is exact either way.
  // The step lane takes the entry by the rule a step follows: it founds an
  // empty lane, or joins the back when its key is not before the back's.
  const Entry entry{first, ++scheduled_, slot};
  if (step_front_.slot.index == kNoFront) {
    step_front_ = entry;
  } else if (!before(entry, step_lane_back())) {
    step_lane_.push_back(entry);
    return make_id(slot);
  }
  heap_.push_back(entry);
  sift_up(heap_.size() - 1);
  return make_id(slot);
}

bool EventQueue::truncate(EventId id) {
  if (!pending_stepped(id)) return false;
  Stepping& stepping = stepping_[slot_of(id).index];
  stepping.deadline = stepping.key;
  return true;
}

SimTime EventQueue::pending_time(EventId id) const {
  assert(pending_stepped(id) &&
         "pending_time() of a non-pending or plain event");
  return stepping_[slot_of(id).index].key;
}

bool EventQueue::cancel(EventId id) {
  if (!pending(id)) return false;
  const SlotHandle slot = slot_of(id);
  // Destroying the callback can release resources whose teardown re-enters
  // schedule() (and may grow slots_); move it out and finish all bookkeeping
  // before the destructor runs at return.
  Callback doomed = std::move(slots_[slot.index].callback);
  slots_.retire(slot.index);
  return true;
}

void EventQueue::drop_stale_top() const {
  while (!heap_.empty()) {
    if (slots_.live(heap_.front().slot)) return;
    remove_top();
  }
}

void EventQueue::remove_top() const {
  if (is_step_front(heap_.front().slot) && advance_step_front()) {
    heap_.front() = step_front_;
    sift_down(0);
  } else {
    pop_top();
  }
}

bool EventQueue::advance_step_front() const {
  while (step_head_ < step_lane_.size()) {
    const Entry next = step_lane_[step_head_++];
    if (!slots_.live(next.slot)) continue;  // cancelled behind the front
    step_front_ = next;
    if (2 * step_head_ >= step_lane_.size()) {
      step_lane_.erase(step_lane_.begin(),
                       step_lane_.begin() +
                           static_cast<std::ptrdiff_t>(step_head_));
      step_head_ = 0;
    }
    return true;
  }
  step_lane_.clear();
  step_head_ = 0;
  step_front_.slot = SlotHandle{kNoFront, 0};
  return false;
}

void EventQueue::drop_stale_fifo() const {
  while (now_head_ < now_fifo_.size()) {
    if (slots_.live(now_fifo_[now_head_].slot)) return;
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
  if (!slots_[top.slot.index].stepped) return false;
  Stepping& stepping = stepping_[top.slot.index];
  if (top.time >= stepping.deadline) return false;  // due: fire it
  // Exactly what the eager chain does here: its callback pops at this key
  // and re-schedules one step on, drawing the next sequence number.
  current_ = top.time;
  const Entry next{std::min(top.time + stepping.step, stepping.deadline),
                   ++scheduled_, top.slot};
  stepping.key = next.time;
  ++steps_;
  const bool front = is_step_front(top.slot);
  if (step_head_ == step_lane_.size() &&
      (front || step_front_.slot.index == kNoFront)) {
    // The lane's only entry, or the first: re-key in place.
    top = next;
    step_front_ = next;
    sift_down(0);
    return true;
  }
  if (!before(next, step_lane_back())) {
    step_lane_.push_back(next);
    remove_top();  // a front's place goes to the next entry: at worst `next`
    return true;
  }
  // Out of lane order (another step size, or clipped to the deadline):
  // re-key in the heap, and if it was the front, promote the next one.
  top = next;
  sift_down(0);
  if (front && advance_step_front()) {
    heap_.push_back(step_front_);
    sift_up(heap_.size() - 1);
  }
  return true;
}

void EventQueue::take_slot(Entry e, Fired& out) {
  current_ = e.time;
  out.time = e.time;
  out.id = make_id(e.slot);
  // Destroy the callback `out` held before reading the slot: its teardown
  // could schedule, and a schedule can grow the pool.
  out.callback = nullptr;
  out.callback = std::move(slots_[e.slot.index].callback);
  slots_.retire(e.slot.index);
}

void EventQueue::take_fifo_front(Fired& out) {
  take_slot(now_fifo_[now_head_++], out);
}

void EventQueue::take_heap_top(Fired& out) {
  const Entry top = heap_.front();
  remove_top();
  take_slot(top, out);
}

EventQueue::Fired EventQueue::pop() {
  Fired fired;
  for (;;) {
    if (lane_leads()) {
      take_fifo_front(fired);
      return fired;
    }
    assert(!heap_.empty() && "pop() on empty EventQueue");
    if (!step_top()) {
      take_heap_top(fired);
      return fired;
    }
  }
}

bool EventQueue::pop_if_at_most(SimTime limit, Fired& out) {
  for (;;) {
    if (lane_leads()) {
      if (now_fifo_[now_head_].time > limit) return false;
      take_fifo_front(out);
      return true;
    }
    // A step is taken only where the eager chain's event would have fired,
    // so never past the limit.
    if (heap_.empty() || heap_.front().time > limit) return false;
    if (!step_top()) break;
  }
  take_heap_top(out);
  return true;
}

std::size_t EventQueue::discard_all() {
  std::size_t n = 0;
  while (!empty()) {
    // Pops without stepping: a stepped event goes in one piece. The
    // callback is destroyed at the end of each pass; that may enqueue new
    // events.
    Fired fired;
    if (lane_leads()) {
      take_fifo_front(fired);
    } else {
      take_heap_top(fired);
    }
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
