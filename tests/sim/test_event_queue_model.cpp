// Randomized differential model check of the EventQueue kernel.
//
// The queue under test is a 4-ary heap over a generation-tagged slot pool
// with a same-instant FIFO fast lane -- three interacting mechanisms whose
// contract is simple to state: events fire in strict (time,
// insertion-order) order and handles cancel exactly once. The
// reference model here is a std::multimap keyed on (time, seq): trivially
// correct, allocation-happy, and slow -- everything the production queue is
// not. Each seeded run drives both through the same operation stream and
// demands bit-identical observable behaviour.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "sim/time.h"

namespace tmc::sim {
namespace {

SimTime ns(std::int64_t v) { return SimTime::nanoseconds(v); }

/// Reference pending-event set: multimap ordered by (time, seq), with a
/// handle table for cancellation. seq mirrors the production queue's global
/// schedule counter, so FIFO tie-breaks are modelled exactly.
class ReferenceQueue {
 public:
  std::uint64_t schedule(SimTime at, int payload) {
    const std::uint64_t handle = next_handle_++;
    const auto it = events_.emplace(Key{at, ++seq_}, Pending{payload, handle});
    handles_.emplace(handle, it);
    return handle;
  }

  bool cancel(std::uint64_t handle) {
    const auto it = handles_.find(handle);
    if (it == handles_.end()) return false;
    events_.erase(it->second);
    handles_.erase(it);
    return true;
  }

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  [[nodiscard]] SimTime next_time() const { return events_.begin()->first.first; }

  struct Popped {
    SimTime time;
    int payload;
  };
  Popped pop() {
    const auto it = events_.begin();
    Popped out{it->first.first, it->second.payload};
    handles_.erase(it->second.handle);
    events_.erase(it);
    return out;
  }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;
  struct Pending {
    int payload;
    std::uint64_t handle;
  };
  std::multimap<Key, Pending> events_;
  std::unordered_map<std::uint64_t, std::multimap<Key, Pending>::iterator>
      handles_;
  std::uint64_t seq_ = 0;
  std::uint64_t next_handle_ = 1;
};

/// Drives EventQueue and ReferenceQueue through one seeded operation stream.
/// `fired` collects the payloads EventQueue callbacks report; every pop is
/// cross-checked immediately so a divergence pinpoints the offending op.
class DifferentialDriver {
 public:
  explicit DifferentialDriver(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int i = 0; i < ops; ++i) step();
    drain();
    EXPECT_TRUE(queue_.empty());
    EXPECT_TRUE(reference_.empty());
  }

 private:
  void step() {
    EXPECT_EQ(queue_.size(), reference_.size());
    switch (pick_op()) {
      case Op::kSchedule: do_schedule(); break;
      case Op::kBurst: do_burst(); break;
      case Op::kPop: do_pop(); break;
      case Op::kPopIfAtMost: do_pop_if_at_most(); break;
      case Op::kCancel: do_cancel(); break;
      case Op::kPeek: do_peek(); break;
    }
  }

  enum class Op { kSchedule, kBurst, kPop, kPopIfAtMost, kCancel, kPeek };

  Op pick_op() {
    const int r = std::uniform_int_distribution<int>(0, 99)(rng_);
    if (r < 40) return Op::kSchedule;
    if (r < 50) return Op::kBurst;
    if (r < 75) return Op::kPop;
    if (r < 85) return Op::kPopIfAtMost;
    if (r < 95) return Op::kCancel;
    return Op::kPeek;
  }

  /// Times cluster around the current clock with a heavy weight on exact
  /// ties and zero deltas, the cases the FIFO lane and tie-break exist for.
  /// Occasionally earlier than the clock: the queue's contract is "pop the
  /// minimum", not "times are monotone", and the lane gate must stay exact
  /// when the clock regresses.
  SimTime pick_time() {
    const int r = std::uniform_int_distribution<int>(0, 9)(rng_);
    if (r < 4) return clock_;  // same instant as the last pop
    if (r == 4 && clock_ > ns(0)) {
      return clock_ - ns(std::uniform_int_distribution<std::int64_t>(
                          0, clock_.ns())(rng_));
    }
    return clock_ +
           ns(std::uniform_int_distribution<std::int64_t>(0, 50)(rng_));
  }

  void do_schedule() {
    const SimTime at = pick_time();
    const int payload = next_payload_++;
    const EventId id = queue_.schedule(at, [this, payload] {
      fired_payload_ = payload;
    });
    const std::uint64_t ref = reference_.schedule(at, payload);
    live_.emplace_back(id, ref);
  }

  /// A fan-out: k schedule() calls at one instant, back to back (the
  /// shape of a gang rotation or a job admission).
  void do_burst() {
    const SimTime at = pick_time();
    const std::size_t k =
        std::uniform_int_distribution<std::size_t>(1, 16)(rng_);
    for (std::size_t j = 0; j < k; ++j) {
      const int payload = next_payload_++;
      const EventId id = queue_.schedule(at, [this, payload] {
        fired_payload_ = payload;
      });
      live_.emplace_back(id, reference_.schedule(at, payload));
    }
  }

  void do_pop() {
    if (reference_.empty()) {
      EXPECT_TRUE(queue_.empty());
      return;
    }
    const auto expected = reference_.pop();
    EventQueue::Fired fired = queue_.pop();
    check_fired(fired, expected);
  }

  void do_pop_if_at_most() {
    // Limits straddle next_time() so both accept and reject paths run.
    const SimTime limit =
        clock_ + ns(std::uniform_int_distribution<std::int64_t>(0, 25)(rng_));
    EventQueue::Fired fired;
    const bool popped = queue_.pop_if_at_most(limit, fired);
    const bool expect_pop =
        !reference_.empty() && reference_.next_time() <= limit;
    ASSERT_EQ(popped, expect_pop);
    if (popped) check_fired(fired, reference_.pop());
  }

  void do_cancel() {
    if (live_.empty()) return;
    // Mix of live handles and handles already fired/cancelled: both queues
    // must agree on which cancellations succeed.
    const std::size_t idx =
        std::uniform_int_distribution<std::size_t>(0, live_.size() - 1)(rng_);
    const auto [id, ref] = live_[idx];
    EXPECT_EQ(queue_.cancel(id), reference_.cancel(ref));
    live_[idx] = live_.back();
    live_.pop_back();
  }

  void do_peek() {
    if (reference_.empty()) {
      EXPECT_TRUE(queue_.empty());
      return;
    }
    EXPECT_EQ(queue_.next_time(), reference_.next_time());
  }

  void check_fired(EventQueue::Fired& fired, ReferenceQueue::Popped expected) {
    ASSERT_EQ(fired.time, expected.time);
    fired_payload_ = -1;
    fired.callback();
    ASSERT_EQ(fired_payload_, expected.payload);
    clock_ = fired.time;
  }

  void drain() {
    while (!reference_.empty()) do_pop();
  }

  std::mt19937_64 rng_;
  EventQueue queue_;
  ReferenceQueue reference_;
  /// (production handle, reference handle) of not-yet-consumed schedules.
  std::vector<std::pair<EventId, std::uint64_t>> live_;
  SimTime clock_;
  int next_payload_ = 0;
  int fired_payload_ = -1;
};

TEST(EventQueueModel, RandomizedDifferential) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DifferentialDriver driver(seed);
    driver.run(10'000);
  }
}

// A heavier mix of same-instant scheduling: every seed here spends most of
// its schedules on exact clock ties, keeping the FIFO lane continuously hot
// while pops interleave lane and heap fronts.
TEST(EventQueueModel, SameInstantStress) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EventQueue queue;
    ReferenceQueue reference;
    std::mt19937_64 rng(seed);
    SimTime clock;
    int fired = -1;
    int payload = 0;
    for (int round = 0; round < 2'000; ++round) {
      const int burst = std::uniform_int_distribution<int>(1, 6)(rng);
      for (int j = 0; j < burst; ++j) {
        // 3:1 same-instant to near-future.
        const SimTime at =
            std::uniform_int_distribution<int>(0, 3)(rng) != 0
                ? clock
                : clock + ns(std::uniform_int_distribution<int>(1, 9)(rng));
        const int p = payload++;
        queue.schedule(at, [&fired, p] { fired = p; });
        reference.schedule(at, p);
      }
      const int pops = std::uniform_int_distribution<int>(1, burst)(rng);
      for (int j = 0; j < pops && !reference.empty(); ++j) {
        const auto expected = reference.pop();
        auto got = queue.pop();
        ASSERT_EQ(got.time, expected.time);
        fired = -1;
        got.callback();
        ASSERT_EQ(fired, expected.payload);
        clock = got.time;
      }
    }
    while (!reference.empty()) {
      const auto expected = reference.pop();
      auto got = queue.pop();
      ASSERT_EQ(got.time, expected.time);
      fired = -1;
      got.callback();
      ASSERT_EQ(fired, expected.payload);
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(EventQueueModel, HandleGenerationSurvivesSlotReuse) {
  // Pop an event, then keep scheduling until its pool slot is reused; the
  // stale handle must not cancel the new occupant.
  EventQueue queue;
  const EventId first = queue.schedule(ns(1), [] {});
  queue.pop().callback();
  // The freed slot is at the head of the free list, so the very next
  // schedule reuses it with a bumped generation.
  const EventId second = queue.schedule(ns(2), [] {});
  EXPECT_NE(first, second);
  EXPECT_FALSE(queue.cancel(first));
  EXPECT_TRUE(queue.cancel(second));
}

TEST(EventQueueModel, CancelledLaneEntriesAreSkipped) {
  // Entries sitting in the same-instant lane honour lazy deletion too.
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(ns(0), [&fired] { fired.push_back(0); });
  queue.pop().callback();  // clock now at 0; lane active for t=0
  const EventId a = queue.schedule(ns(0), [&fired] { fired.push_back(1); });
  const EventId b = queue.schedule(ns(0), [&fired] { fired.push_back(2); });
  const EventId c = queue.schedule(ns(0), [&fired] { fired.push_back(3); });
  EXPECT_TRUE(queue.cancel(b));
  (void)a;
  (void)c;
  while (!queue.empty()) queue.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 3}));
}

TEST(EventQueueModel, PopIfAtMostRespectsLimit) {
  EventQueue queue;
  queue.schedule(ns(10), [] {});
  EventQueue::Fired fired;
  EXPECT_FALSE(queue.pop_if_at_most(ns(9), fired));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_TRUE(queue.pop_if_at_most(ns(10), fired));
  EXPECT_EQ(fired.time, ns(10));
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.pop_if_at_most(SimTime::max(), fired));
}

TEST(EventQueueModel, ZeroDelayCascadeFiresInScheduleOrder) {
  // A callback that schedules more work at its own instant: the follow-ups
  // ride the lane and must fire after everything already pending at that
  // time, in the order they were scheduled.
  Simulation sim;
  std::vector<int> order;
  sim.schedule(ns(5), [&] {
    order.push_back(0);
    sim.schedule(SimTime::zero(), [&order] { order.push_back(2); });
    sim.schedule(SimTime::zero(), [&order] { order.push_back(3); });
  });
  sim.schedule(ns(5), [&order] { order.push_back(1); });
  sim.run_until(ns(100));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueModel, StepUntilMatchesRunUntil) {
  // Two simulations with the same script: one driven by run_until, one by a
  // step_until loop. Fired counts and final clocks must agree.
  auto script = [](Simulation& sim, std::vector<std::int64_t>& times) {
    for (int i = 0; i < 20; ++i) {
      sim.schedule(ns(3 * i), [&sim, &times] {
        times.push_back(sim.now().ns());
      });
    }
  };
  Simulation a;
  Simulation b;
  std::vector<std::int64_t> ta;
  std::vector<std::int64_t> tb;
  script(a, ta);
  script(b, tb);
  a.run_until(ns(1000));
  while (b.step_until(ns(1000))) {
  }
  EXPECT_EQ(ta, tb);
  // run_until advances the clock to the horizon; step_until stops at the
  // last fired event -- both see the same event stream.
  EXPECT_EQ(a.now(), ns(1000));
  EXPECT_EQ(b.now(), ns(3 * 19));
  EXPECT_EQ(a.fired_events(), b.fired_events());
}

// --- stepped events -----------------------------------------------------
//
// A stepped event must be indistinguishable from the self-rescheduling
// callback chain it stands for: a callback that, surfacing before its
// deadline, re-schedules itself one step on (clipped to the deadline). Two
// simulations run the same seeded world, one with eager chains and one with
// stepped events, amid random events that pile onto the chain boundaries.
// Both make the same random choices in the same order as long as their
// events fire in the same order, so any divergence shows up in the log.

/// One side of the stepped-vs-eager differential.
class ChainWorld {
 public:
  /// `chains` chains, of which about `minority_percent` step every 15 ns
  /// and the rest every 10 ns.
  ChainWorld(bool stepped, std::uint64_t seed, std::size_t chains,
             int minority_percent)
      : stepped_(stepped),
        rng_(seed),
        chains_(chains),
        minority_percent_(minority_percent) {}

  void start() {
    for (int i = 0; i < 40; ++i) {
      sim_.schedule(grid(0, 30), [this, i] { background(i); });
    }
    for (std::size_t c = 0; c < chains_.size(); ++c) start_chain(c);
  }

  /// Runs to `limit` with run_until or with a step_until loop.
  void advance(SimTime limit, bool by_steps) {
    if (by_steps) {
      while (sim_.step_until(limit)) {
      }
    } else {
      sim_.run_until(limit);
    }
  }

  [[nodiscard]] const Simulation& sim() const { return sim_; }
  [[nodiscard]] const std::vector<std::pair<int, std::int64_t>>& log() const {
    return log_;
  }

 private:
  struct Chain {
    EventId id = kNoEvent;
    SimTime pending;  // eager side: the chain event's time
    SimTime step;
    SimTime deadline;
  };

  /// A time offset on a coarse 5 ns grid (steps are 10 or 15 ns), so
  /// background events land on chain boundaries all the time.
  SimTime grid(int lo, int hi) {
    return ns(5 * std::uniform_int_distribution<int>(lo, hi)(rng_));
  }
  int roll() { return std::uniform_int_distribution<int>(0, 99)(rng_); }

  void start_chain(std::size_t c) {
    Chain& chain = chains_[c];
    const SimTime first = grid(1, 4);
    chain.step = ns(roll() < minority_percent_ ? 15 : 10);
    const SimTime deadline = first + grid(0, 20);
    chain.deadline = sim_.now() + deadline;
    const int tag = next_tag_++;
    if (stepped_) {
      chain.id = sim_.schedule_stepped(first, chain.step, deadline,
                                       [this, c, tag] { finish(c, tag); });
    } else {
      chain.pending = sim_.now() + first;
      chain.id = sim_.schedule(first, [this, c, tag] { surface(c, tag); });
    }
  }

  /// The eager chain: one event per step.
  void surface(std::size_t c, int tag) {
    Chain& chain = chains_[c];
    if (sim_.now() < chain.deadline) {
      chain.pending = std::min(sim_.now() + chain.step, chain.deadline);
      chain.id = sim_.schedule(chain.pending - sim_.now(),
                               [this, c, tag] { surface(c, tag); });
      return;
    }
    finish(c, tag);
  }

  void finish(std::size_t c, int tag) {
    chains_[c].id = kNoEvent;
    log_.emplace_back(-1000 - tag, sim_.now().ns());
    // The final callback's key is the last draw: the same-instant events
    // around it pin where it fell. Its scheduled count pins the draws.
    log_.emplace_back(-2000 - tag,
                      static_cast<std::int64_t>(sim_.scheduled_events()));
  }

  void truncate(std::size_t c) {
    Chain& chain = chains_[c];
    if (chain.id == kNoEvent) return;
    if (stepped_) {
      EXPECT_TRUE(sim_.truncate(chain.id));
    } else {
      chain.deadline = chain.pending;
    }
  }

  void cancel(std::size_t c) {
    Chain& chain = chains_[c];
    if (chain.id == kNoEvent) return;
    EXPECT_TRUE(sim_.cancel(chain.id));
    chain.id = kNoEvent;
  }

  void background(int payload) {
    log_.emplace_back(payload, sim_.now().ns());
    const std::size_t c =
        std::uniform_int_distribution<std::size_t>(0, chains_.size() - 1)(rng_);
    const int r = roll();
    if (r < 15) {
      truncate(c);
    } else if (r < 22) {
      cancel(c);
    } else if (r < 45 && chains_[c].id == kNoEvent) {
      start_chain(c);
    }
    // Keep the world busy: zero-delay follow-ups ride the same-instant
    // lane, the rest fall on the grid.
    const int follow_ups = roll() < 60 ? 1 : (roll() < 50 ? 2 : 0);
    for (int k = 0; k < follow_ups && next_payload_ < 4000; ++k) {
      const int next = next_payload_++;
      sim_.schedule(grid(0, 6), [this, next] { background(next); });
    }
  }

  bool stepped_;
  std::mt19937_64 rng_;
  Simulation sim_;
  std::vector<Chain> chains_;
  int minority_percent_;
  std::vector<std::pair<int, std::int64_t>> log_;
  int next_payload_ = 40;
  int next_tag_ = 0;
};

/// Runs the same seeded ChainWorld eagerly and stepped, to quiescence in
/// random run_until/step_until slices, and demands identical observables
/// after every slice.
void expect_stepped_matches_eager(std::uint64_t seed, std::size_t chains,
                                  int minority_percent) {
  ChainWorld eager(false, seed, chains, minority_percent);
  ChainWorld stepped(true, seed, chains, minority_percent);
  eager.start();
  stepped.start();
  std::mt19937_64 limits(seed ^ 0x9e3779b97f4a7c15ull);
  SimTime limit;
  while (!eager.sim().idle() || !stepped.sim().idle()) {
    limit += ns(std::uniform_int_distribution<int>(0, 40)(limits));
    const bool by_steps = (limits() & 1u) != 0;
    eager.advance(limit, by_steps);
    stepped.advance(limit, by_steps);
    ASSERT_EQ(stepped.log(), eager.log());
    // Never a step past the limit: every eager chain event at or before
    // it has fired, and exactly those were stepped.
    ASSERT_EQ(stepped.sim().fired_events() + stepped.sim().steps_taken(),
              eager.sim().fired_events());
    ASSERT_EQ(stepped.sim().scheduled_events(),
              eager.sim().scheduled_events());
    ASSERT_EQ(stepped.sim().pending_events(), eager.sim().pending_events());
    ASSERT_EQ(stepped.sim().now(), eager.sim().now());
  }
  EXPECT_EQ(stepped.sim().peak_pending_events(),
            eager.sim().peak_pending_events());
  EXPECT_GT(stepped.sim().steps_taken(), 0u);
  EXPECT_EQ(eager.sim().steps_taken(), 0u);
}

TEST(EventQueueModel, SteppedEventMatchesEagerChain) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_stepped_matches_eager(seed, 2, 50);
  }
  // A machine's worth of chains: most share the 10 ns step, so their steps
  // append to the step lane; the 15 ns minority and deadline-clipped keys
  // fall out of lane order and stay in the heap. Truncates and cancels hit
  // the lane's front and the entries behind it, and cancelled slots are
  // reused at once.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("64 chains, seed " + std::to_string(seed));
    expect_stepped_matches_eager(seed, 64, 15);
  }
}

TEST(EventQueueModel, SteppedEventSurfacesOnItsGrid) {
  EventQueue queue;
  int fired = 0;
  const EventId id = queue.schedule_stepped(ns(10), ns(10), ns(45),
                                            [&fired] { ++fired; });
  EventQueue::Fired out;
  // Steps at 10, 20 and 30; the limit stops it before 40.
  EXPECT_FALSE(queue.pop_if_at_most(ns(35), out));
  EXPECT_EQ(queue.steps_taken(), 3u);
  EXPECT_EQ(queue.pending_time(id), ns(40));
  EXPECT_EQ(queue.current_time(), ns(30));
  EXPECT_EQ(queue.next_time(), ns(40));
  EXPECT_EQ(queue.scheduled_count(), 4u);
  // The last step is clipped to the deadline, where the callback fires.
  out = queue.pop();
  EXPECT_EQ(out.time, ns(45));
  EXPECT_EQ(out.id, id);
  out.callback();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.steps_taken(), 4u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueModel, TruncateEndsAtTheNextSurfacing) {
  EventQueue queue;
  const EventId id = queue.schedule_stepped(ns(10), ns(10), ns(100), [] {});
  const EventId plain = queue.schedule(ns(25), [] {});
  EventQueue::Fired out;
  ASSERT_TRUE(queue.pop_if_at_most(ns(25), out));  // steps 10, 20; fires 25
  EXPECT_EQ(out.id, plain);
  EXPECT_TRUE(queue.truncate(id));
  EXPECT_FALSE(queue.truncate(plain));  // fired
  EXPECT_EQ(queue.pending_time(id), ns(30));
  out = queue.pop();
  EXPECT_EQ(out.time, ns(30));
  EXPECT_EQ(out.id, id);
  EXPECT_EQ(queue.steps_taken(), 2u);
  EXPECT_FALSE(queue.truncate(id));  // fired

  const EventId other = queue.schedule(ns(50), [] {});
  EXPECT_FALSE(queue.truncate(other));  // a plain event has no steps
  EXPECT_FALSE(queue.truncate(kNoEvent));
  EXPECT_FALSE(queue.truncate(EventId{12345}));  // never issued
}

TEST(EventQueueModel, DiscardDropsSteppedEventsWhole) {
  EventQueue queue;
  queue.schedule_stepped(ns(1), ns(1), ns(1'000'000), [] {});
  queue.schedule(ns(5), [] {});
  EXPECT_EQ(queue.discard_all(), 2u);
  EXPECT_EQ(queue.steps_taken(), 0u);
  EXPECT_TRUE(queue.empty());
}

// --- the step lane ------------------------------------------------------
//
// Stepped events on one 10 ns step: the first founds the step lane (its
// front, in the heap) and the next join behind it. These pin each place the
// next lane entry must be promoted into the heap; without the promotion the
// entry behind is stranded and never surfaces.

TEST(EventQueueModel, StepLanePromotesBehindAFiredFront) {
  EventQueue queue;
  const EventId a = queue.schedule_stepped(ns(10), ns(10), ns(30), [] {});
  const EventId b = queue.schedule_stepped(ns(11), ns(10), ns(100), [] {});
  EventQueue::Fired out;
  ASSERT_TRUE(queue.pop_if_at_most(ns(1000), out));
  EXPECT_EQ(out.id, a);
  EXPECT_EQ(out.time, ns(30));
  ASSERT_TRUE(queue.pop_if_at_most(ns(1000), out));
  EXPECT_EQ(out.id, b);
  EXPECT_EQ(out.time, ns(100));
  EXPECT_EQ(queue.steps_taken(), 2u + 9u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueModel, StepLanePromotesBehindACancelledFront) {
  EventQueue queue;
  const EventId a = queue.schedule_stepped(ns(10), ns(10), ns(1000), [] {});
  const EventId b = queue.schedule_stepped(ns(11), ns(10), ns(45), [] {});
  EventQueue::Fired out;
  EXPECT_FALSE(queue.pop_if_at_most(ns(15), out));  // a at 20, b behind at 21
  EXPECT_TRUE(queue.cancel(a));
  // The stale front is dropped when it surfaces, and b takes its place.
  ASSERT_TRUE(queue.pop_if_at_most(ns(1000), out));
  EXPECT_EQ(out.id, b);
  EXPECT_EQ(out.time, ns(45));
  EXPECT_EQ(queue.steps_taken(), 2u + 3u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueModel, StepLaneFrontSlotReuseAfterCancel) {
  // The cancelled front's slot goes straight to the next schedule (LIFO
  // reuse), so the new occupant shares the front's slot index and differs
  // only in generation.
  EventQueue queue;
  std::vector<int> fired;
  const EventId a = queue.schedule_stepped(
      ns(10), ns(10), ns(1000), [&fired] { fired.push_back(0); });
  const EventId b = queue.schedule_stepped(
      ns(11), ns(10), ns(41), [&fired] { fired.push_back(1); });
  EventQueue::Fired out;
  EXPECT_FALSE(queue.pop_if_at_most(ns(15), out));
  EXPECT_TRUE(queue.cancel(a));
  const EventId c = queue.schedule_stepped(
      ns(12), ns(10), ns(32), [&fired] { fired.push_back(2); });
  const EventId d =
      queue.schedule(ns(25), [&fired] { fired.push_back(3); });
  EXPECT_EQ(static_cast<std::uint32_t>(c), static_cast<std::uint32_t>(a));
  EXPECT_TRUE(queue.truncate(b));  // b behind the front: fires at 21
  while (!queue.empty()) {
    out = queue.pop();
    out.callback();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 2}));
  EXPECT_FALSE(queue.cancel(a));
  EXPECT_FALSE(queue.cancel(c));
  EXPECT_FALSE(queue.cancel(d));
}

TEST(EventQueueModel, DiscardDropsTheWholeStepLane) {
  EventQueue queue;
  auto token = std::make_shared<int>(0);
  for (int i = 0; i < 3; ++i) {
    queue.schedule_stepped(ns(10 + i), ns(10), ns(1000), [token] {});
  }
  EventQueue::Fired out;
  EXPECT_FALSE(queue.pop_if_at_most(ns(15), out));  // the lane holds all 3
  EXPECT_EQ(queue.steps_taken(), 3u);
  EXPECT_EQ(token.use_count(), 4);
  EXPECT_EQ(queue.discard_all(), 3u);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(token.use_count(), 1);  // every callback destroyed, none fired
  EXPECT_EQ(queue.steps_taken(), 3u);
  // The emptied queue founds a fresh lane.
  const EventId e = queue.schedule_stepped(ns(20), ns(10), ns(40), [] {});
  ASSERT_TRUE(queue.pop_if_at_most(ns(1000), out));
  EXPECT_EQ(out.id, e);
  EXPECT_EQ(out.time, ns(40));
}

TEST(EventQueueModel, StepUntilMovesTheClockToTheLastStep) {
  Simulation sim;
  sim.schedule_stepped(ns(10), ns(10), ns(100), [] {});
  EXPECT_FALSE(sim.step_until(ns(35)));
  EXPECT_EQ(sim.now(), ns(30));
  EXPECT_EQ(sim.steps_taken(), 3u);
  EXPECT_EQ(sim.fired_events(), 0u);
}

}  // namespace
}  // namespace tmc::sim
