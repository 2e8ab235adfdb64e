#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <vector>

namespace tmc::sim {
namespace {

TEST(Simulation, ClockStartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_TRUE(sim.idle());
}

TEST(Simulation, RunAdvancesClockToEventTimes) {
  Simulation sim;
  std::vector<SimTime> seen;
  sim.schedule(SimTime::seconds(2), [&] { seen.push_back(sim.now()); });
  sim.schedule(SimTime::seconds(1), [&] { seen.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], SimTime::seconds(1));
  EXPECT_EQ(seen[1], SimTime::seconds(2));
  EXPECT_EQ(sim.now(), SimTime::seconds(2));
}

TEST(Simulation, ScheduleIsRelativeToNow) {
  Simulation sim;
  SimTime inner;
  sim.schedule(SimTime::seconds(1), [&] {
    sim.schedule(SimTime::seconds(1), [&] { inner = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner, SimTime::seconds(2));
}

TEST(Simulation, ScheduleCallsForwardTheCallableToItsSlot) {
  // Counts copies and moves; a user-declared move constructor keeps
  // UniqueFunction from relocating it with a memcpy.
  struct Counter {
    Counter(int* copied, int* moved) : copies(copied), moves(moved) {}
    Counter(const Counter& other) noexcept
        : copies(other.copies), moves(other.moves) {
      ++*copies;
    }
    Counter(Counter&& other) noexcept
        : copies(other.copies), moves(other.moves) {
      ++*moves;
    }
    Counter& operator=(const Counter&) = delete;
    Counter& operator=(Counter&&) = delete;
    ~Counter() = default;
    void operator()() const {}
    int* copies;
    int* moves;
  };
  Simulation sim;
  int copies = 0;
  int moves = 0;
  const Counter counter(&copies, &moves);
  sim.schedule(SimTime::seconds(1), counter);
  sim.schedule_at(SimTime::seconds(2), counter);
  sim.schedule_stepped(SimTime::seconds(1), SimTime::seconds(1),
                       SimTime::seconds(3), counter);
  EXPECT_EQ(copies, 3);
  EXPECT_EQ(moves, 0);
  sim.run_until(SimTime::seconds(3));
  EXPECT_EQ(sim.fired_events(), 3u);
  EXPECT_EQ(moves, 3);  // one per pop
  EXPECT_EQ(copies, 3);
}

TEST(Simulation, ScheduleAtAbsoluteTime) {
  Simulation sim;
  SimTime fired;
  sim.schedule_at(SimTime::seconds(5), [&] { fired = sim.now(); });
  sim.run();
  EXPECT_EQ(fired, SimTime::seconds(5));
}

TEST(Simulation, ZeroDelayFiresAtCurrentTime) {
  Simulation sim;
  SimTime fired = SimTime::max();
  sim.schedule(SimTime::seconds(3), [&] {
    sim.schedule(SimTime::zero(), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, SimTime::seconds(3));
}

TEST(Simulation, RunUntilStopsAtBoundaryInclusive) {
  Simulation sim;
  int fired = 0;
  sim.schedule(SimTime::seconds(1), [&] { ++fired; });
  sim.schedule(SimTime::seconds(2), [&] { ++fired; });
  sim.schedule(SimTime::seconds(3), [&] { ++fired; });
  const auto n = sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::seconds(2));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulation, RunUntilAdvancesClockWithoutEvents) {
  Simulation sim;
  sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(sim.now(), SimTime::seconds(10));
}

TEST(Simulation, StepFiresOneEvent) {
  Simulation sim;
  int fired = 0;
  sim.schedule(SimTime::seconds(1), [&] { ++fired; });
  sim.schedule(SimTime::seconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, MaxEventsBoundsRun) {
  Simulation sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(SimTime::seconds(i + 1), [&] { ++fired; });
  }
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.pending_events(), 6u);
}

TEST(Simulation, CancelStopsScheduledEvent) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule(SimTime::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, FiredEventsCounts) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule(SimTime::seconds(1), [] {});
  sim.run();
  EXPECT_EQ(sim.fired_events(), 5u);
}

TEST(Simulation, DeterministicInterleavingAtSameTimestamp) {
  // Two identical runs must produce identical event orders.
  const auto run_once = [] {
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule(SimTime::seconds(i % 5),
                   [&order, i] { order.push_back(i); });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace tmc::sim
