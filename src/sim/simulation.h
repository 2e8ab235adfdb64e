// tmcsim -- discrete-event simulation kernel.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace tmc::sim {

/// The simulation clock and event loop.
///
/// A Simulation owns the clock and the pending-event set. Model components
/// hold a reference to it and drive themselves by scheduling callbacks.
/// The kernel is strictly sequential and deterministic: events at equal
/// times fire in scheduling order.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  // The schedule calls take any callable EventQueue::Callback accepts and
  // forward it to the queue, which builds it in its slot: a lambda is
  // never wrapped in a temporary Callback on the way.

  /// Schedules `cb` after `delay` (>= 0) from now.
  template <typename F>
  EventId schedule(SimTime delay, F&& cb) {
    assert(!delay.is_negative() && "negative delay");
    return queue_.schedule(now_ + delay, std::forward<F>(cb));
  }

  /// Schedules `cb` at absolute time `at` (>= now()).
  template <typename F>
  EventId schedule_at(SimTime at, F&& cb) {
    assert(at >= now_ && "scheduling into the past");
    return queue_.schedule(at, std::forward<F>(cb));
  }

  /// Schedules a stepped event (see EventQueue::schedule_stepped): it
  /// surfaces `first` from now, then every `step`, and `cb` fires at
  /// `deadline` from now. Each surfacing before the deadline is a silent
  /// step, counted by steps_taken() instead of fired_events().
  template <typename F>
  EventId schedule_stepped(SimTime first, SimTime step, SimTime deadline,
                           F&& cb) {
    assert(!first.is_negative() && "negative delay");
    return queue_.schedule_stepped(now_ + first, step, now_ + deadline,
                                   std::forward<F>(cb));
  }

  /// Ends a pending stepped event at its next surfacing (see
  /// EventQueue::truncate).
  bool truncate(EventId id) { return queue_.truncate(id); }

  /// Next surfacing time of a pending stepped event.
  [[nodiscard]] SimTime pending_time(EventId id) const {
    return queue_.pending_time(id);
  }

  /// Cancels a pending event; returns false if it already fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the event set is exhausted or `max_events` fire.
  /// Returns the number of events fired.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Runs events with time <= `until`, then advances the clock to `until`
  /// (even if no event fired exactly there). Returns events fired.
  std::uint64_t run_until(SimTime until);

  /// Fires exactly one event if any is pending, taking the silent steps
  /// due before it on the way. Returns true if one fired.
  bool step();

  /// Fires exactly one event if one is pending at or before `limit`.
  /// Equivalent to `!idle() && next_event_time() <= limit` followed by
  /// step(), but performs the queue's lazy-deletion scan once instead of
  /// twice -- the shape of a watchdog-bounded run loop. Steps due at or
  /// before `limit` are taken on the way; when no event fires, the clock
  /// still moves to the last step taken, as the eager chain's event would
  /// have moved it.
  bool step_until(SimTime limit);

  /// Destroys all pending events without firing them (teardown aid for
  /// models whose callbacks own resources). Returns the number discarded.
  std::size_t discard_pending() { return queue_.discard_all(); }

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  /// Firing time of the earliest pending event; must not be called idle.
  [[nodiscard]] SimTime next_event_time() const { return queue_.next_time(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t fired_events() const { return fired_; }
  /// Silent steps of stepped events; fired_events() + steps_taken() is the
  /// event count of the equivalent eager callback chains.
  [[nodiscard]] std::uint64_t steps_taken() const {
    return queue_.steps_taken();
  }
  /// Total events ever scheduled (monotone; includes cancelled ones).
  [[nodiscard]] std::uint64_t scheduled_events() const {
    return queue_.scheduled_count();
  }
  /// High-water mark of the pending-event set (kernel self-profile).
  [[nodiscard]] std::size_t peak_pending_events() const {
    return queue_.peak_size();
  }

 private:
  EventQueue queue_;
  SimTime now_;
  std::uint64_t fired_ = 0;
};

}  // namespace tmc::sim
