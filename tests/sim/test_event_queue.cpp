#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace tmc::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::seconds(3), [&] { order.push_back(3); });
  q.schedule(SimTime::seconds(1), [&] { order.push_back(1); });
  q.schedule(SimTime::seconds(2), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime::seconds(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.schedule(SimTime::seconds(9), [] {});
  q.schedule(SimTime::seconds(4), [] {});
  EXPECT_EQ(q.next_time(), SimTime::seconds(4));
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(SimTime::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.schedule(SimTime::seconds(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
  EXPECT_FALSE(q.cancel(kNoEvent));
}

TEST(EventQueue, CancelledEventsAreSkippedOnPop) {
  EventQueue q;
  std::vector<int> order;
  const EventId early = q.schedule(SimTime::seconds(1), [&] { order.push_back(1); });
  q.schedule(SimTime::seconds(2), [&] { order.push_back(2); });
  q.cancel(early);
  EXPECT_EQ(q.next_time(), SimTime::seconds(2));
  q.pop().callback();
  EXPECT_EQ(order, std::vector<int>{2});
}

TEST(EventQueue, PopReturnsTimeAndId) {
  EventQueue q;
  const EventId id = q.schedule(SimTime::milliseconds(7), [] {});
  auto fired = q.pop();
  EXPECT_EQ(fired.time, SimTime::milliseconds(7));
  EXPECT_EQ(fired.id, id);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(SimTime::seconds(1), [] {});
  q.schedule(SimTime::seconds(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ScheduledCountIsMonotone) {
  EventQueue q;
  q.schedule(SimTime::seconds(1), [] {});
  const EventId id = q.schedule(SimTime::seconds(1), [] {});
  q.cancel(id);
  EXPECT_EQ(q.scheduled_count(), 2u);
}

TEST(EventQueue, CancelAfterFireFails) {
  EventQueue q;
  const EventId id = q.schedule(SimTime::seconds(1), [] {});
  q.pop().callback();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, StaleHandleDoesNotCancelSlotReuse) {
  // Cancelling with a handle whose slot has been reused by a later event
  // must fail and leave the new occupant untouched (generation tag).
  EventQueue q;
  const EventId old_id = q.schedule(SimTime::seconds(1), [] {});
  ASSERT_TRUE(q.cancel(old_id));
  bool fired = false;
  const EventId new_id = q.schedule(SimTime::seconds(2), [&] { fired = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  q.pop().callback();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, StaleHandleAfterFireDoesNotCancelSlotReuse) {
  EventQueue q;
  const EventId old_id = q.schedule(SimTime::seconds(1), [] {});
  q.pop().callback();
  q.schedule(SimTime::seconds(2), [] {});
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, FifoTieBreakSurvivesInterleavedCancels) {
  // A few hundred events across a handful of equal timestamps, with a
  // deterministic subset cancelled: survivors must still pop in
  // nondecreasing time and, within a time, in schedule order.
  EventQueue q;
  struct Scheduled {
    EventId id;
    std::int64_t time;
    int seq;
  };
  std::vector<Scheduled> events;
  std::vector<std::pair<std::int64_t, int>> fired;
  for (int i = 0; i < 400; ++i) {
    const std::int64_t t = (i * 13) % 7;  // many ties per timestamp
    const EventId id = q.schedule(
        SimTime::seconds(t),
        [&fired, t, i] { fired.emplace_back(t, i); });
    events.push_back({id, t, i});
  }
  std::vector<std::pair<std::int64_t, int>> expected;
  for (const auto& event : events) {
    if (event.seq % 3 == 1) {
      EXPECT_TRUE(q.cancel(event.id));
    } else {
      expected.emplace_back(event.time, event.seq);
    }
  }
  std::sort(expected.begin(), expected.end());  // time, then schedule order
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, expected);
}

TEST(EventQueue, DiscardAllReentrancy) {
  // A callback whose *destructor* schedules follow-up events: discard_all
  // must keep draining until the set is truly empty.
  EventQueue q;
  struct RescheduleOnDestroy {
    RescheduleOnDestroy(EventQueue* q, int d) : queue(q), depth(d) {}
    ~RescheduleOnDestroy() {
      if (depth > 0) {
        auto guard = std::make_unique<RescheduleOnDestroy>(queue, depth - 1);
        queue->schedule(SimTime::seconds(depth),
                        [g = std::move(guard)] { (void)g; });
      }
    }
    EventQueue* queue;
    int depth;
  };
  for (int i = 0; i < 3; ++i) {
    auto guard = std::make_unique<RescheduleOnDestroy>(&q, 2);
    q.schedule(SimTime::seconds(1), [g = std::move(guard)] { (void)g; });
  }
  // 3 originals + 3 depth-1 + 3 depth-0 reschedules.
  EXPECT_EQ(q.discard_all(), 9u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelDestroysCallbackImmediately) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  const EventId id =
      q.schedule(SimTime::seconds(1), [t = std::move(token)] { (void)t; });
  EXPECT_FALSE(watch.expired());
  q.cancel(id);
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, ManyEventsHeapOrder) {
  // Larger-scale ordering check across the 4-ary heap's sift paths.
  EventQueue q;
  std::vector<std::int64_t> fired;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t t = (i * 7919) % 997;
    q.schedule(SimTime::nanoseconds(t), [&fired, t] { fired.push_back(t); });
  }
  while (!q.empty()) q.pop().callback();
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(fired.size(), 2000u);
}

/// Counts the copies and moves made of it. The user-declared move
/// constructor also makes it non-trivially-copyable, so UniqueFunction
/// relocates it with that constructor, never with a memcpy.
struct MoveCounter {
  MoveCounter(int* copied, int* moved) : copies(copied), moves(moved) {}
  MoveCounter(const MoveCounter& other) noexcept
      : copies(other.copies), moves(other.moves) {
    ++*copies;
  }
  MoveCounter(MoveCounter&& other) noexcept
      : copies(other.copies), moves(other.moves) {
    ++*moves;
  }
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
  ~MoveCounter() = default;
  void operator()() const {}

  int* copies;
  int* moves;
};

TEST(EventQueue, CallbackIsBuiltInItsSlotAndMovedOncePerPop) {
  EventQueue q;
  int copies = 0;
  int moves = 0;
  const MoveCounter counter(&copies, &moves);
  // From an lvalue, the one construction is a copy made in the slot.
  q.schedule(SimTime::seconds(1), counter);
  q.schedule_stepped(SimTime::seconds(2), SimTime::seconds(1),
                     SimTime::seconds(4), counter);
  EXPECT_EQ(copies, 2);
  EXPECT_EQ(moves, 0);
  EventQueue::Fired out;
  ASSERT_TRUE(q.pop_if_at_most(SimTime::seconds(1), out));
  EXPECT_EQ(moves, 1);
  out.callback();
  // Two silent steps move nothing; the firing moves the callback once.
  ASSERT_TRUE(q.pop_if_at_most(SimTime::seconds(4), out));
  EXPECT_EQ(q.steps_taken(), 2u);
  EXPECT_EQ(moves, 2);
  EXPECT_EQ(copies, 2);
  // From an rvalue, the construction in the slot is the one move.
  q.schedule(SimTime::seconds(5), MoveCounter(&copies, &moves));
  EXPECT_EQ(moves, 3);
  EXPECT_EQ(q.pop().time, SimTime::seconds(5));
  EXPECT_EQ(moves, 4);
  EXPECT_EQ(copies, 2);
}

TEST(EventQueue, MoveOnlyCallbacksSupported) {
  EventQueue q;
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  q.schedule(SimTime::seconds(1),
             [p = std::move(payload), &seen] { seen = *p; });
  q.pop().callback();
  EXPECT_EQ(seen, 42);
}

}  // namespace
}  // namespace tmc::sim
