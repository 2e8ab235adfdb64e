// Twin tests of the Transputer's stepped charges.
//
// A process alone on its CPU runs a whole burst as one stepped kernel entry
// whose quantum boundaries pass silently (Transputer::plan_op), and a
// context switch into a CPU charge is folded into the charge behind it as
// its first silent step (Transputer::plan_switch); a CPU rotating several
// compute-bound processes fires one event per turn. The reference is
// EagerTransputer (eager_transputer.h), which keeps one event per switch
// and per quantum. Every scenario below runs three times: on the
// reference, and on the production CPU plain and with a timeline attached.
// The plain CPU must agree with the reference on every counter, every
// completion instant and the order of the daemon's slices. The armed CPU
// must run exactly as the plain one, and its spans, summed per name and
// process, must equal the reference's. Each interaction with the running
// burst lands strictly inside a quantum, and exactly on a boundary both
// before and after the kernel's step at that instant; each interaction
// with a folded switch lands inside it, at its end on both sides of its
// step, and inside the first quantum after it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "eager_transputer.h"
#include "mem/mmu.h"
#include "net/message.h"
#include "node/transputer.h"
#include "obs/timeline.h"
#include "sim/simulation.h"

namespace tmc::node {
namespace {

using sim::SimTime;

constexpr SimTime kCtx = SimTime::microseconds(10);
constexpr SimTime kQuantum = SimTime::milliseconds(2);
constexpr SimTime kFirstSlice = SimTime::microseconds(100);
/// Process 1 runs one plain quantum (a daemon item is queued), yields to
/// the daemon's slice, then has the CPU to itself: its stepped charge
/// starts here, with the daemon's turn spent.
constexpr SimTime kAloneFrom = kCtx + kQuantum + kFirstSlice;
/// The second boundary of the stepped charge.
constexpr SimTime kBoundary = kAloneFrom + 2 * kQuantum;

/// One CPU, plain or armed with a timeline, plus a log of everything the
/// scenario observes.
template <class Cpu>
struct Rig {
  explicit Rig(bool armed) : mmu(sim, 64 * 1024), cpu(sim, 0, mmu) {
    if (armed) {
      cpu.set_timeline(&timeline,
                       timeline.add_track(obs::TrackKind::kNode, "cpu0"));
    }
  }

  Process& spawn(net::EndpointId id, SimTime cost,
                 SimTime quantum = kQuantum) {
    Program prog;
    prog.compute(cost).exit();
    return adopt(id, std::move(prog), quantum);
  }

  Process& adopt(net::EndpointId id, Program prog,
                 SimTime quantum = kQuantum) {
    auto p = std::make_unique<Process>(id, 1, std::move(prog));
    p->bind_to_node(0);
    p->set_quantum(quantum);
    p->set_on_exit([this](Process& self) {
      note("exit " + std::to_string(self.id()));
    });
    procs.push_back(std::move(p));
    return *procs.back();
  }

  void service(int tag, SimTime cost) {
    cpu.post_service(cost, [this, tag] { note("daemon " + std::to_string(tag)); });
  }

  void note(const std::string& what) {
    log.push_back(std::to_string(sim.now().ns()) + " " + what);
  }

  Process& proc(net::EndpointId id) {
    for (const auto& p : procs) {
      if (p->id() == id) return *p;
    }
    ADD_FAILURE() << "no process " << id;
    return *procs.front();
  }

  sim::Simulation sim;
  mem::Mmu mmu;
  obs::Timeline timeline;
  Cpu cpu;
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<std::string> log;
};

using Reference = Rig<EagerTransputer>;
using Production = Rig<Transputer>;

/// A scenario's three runs: the per-quantum reference (armed, so that its
/// spans can be compared), and the production CPU plain and armed.
struct Legs {
  Reference reference{true};
  Production plain{false};
  Production armed{true};

  /// Runs `scenario` (a generic callable taking a Rig) on every leg.
  template <class Scenario>
  void run(Scenario scenario) {
    scenario(reference);
    scenario(plain);
    scenario(armed);
  }
};

enum class Timing { kInside, kBeforeStep, kAfterStep };

/// Runs `action` strictly inside the third quantum, or at kBoundary with a
/// sequence number below (scheduled at t=0) or above (scheduled after the
/// previous boundary) the kernel's step at that instant.
template <class Cpu>
void at(Rig<Cpu>& r, Timing timing, std::function<void()> action) {
  switch (timing) {
    case Timing::kInside:
      r.sim.schedule_at(kBoundary + kQuantum / 4, std::move(action));
      return;
    case Timing::kBeforeStep:
      r.sim.schedule_at(kBoundary, std::move(action));
      return;
    case Timing::kAfterStep:
      r.sim.schedule_at(kBoundary - kQuantum / 4,
                        [&r, action = std::move(action)]() mutable {
                          r.sim.schedule_at(kBoundary, std::move(action));
                        });
      return;
  }
}

enum class Path {
  kMakeReady,
  kPostService,
  kCrashRestore,
  kPostHigh,
  kGang,
  kForceExit,
  kAbortAccounting,
};

/// The one interaction `path` makes with process 1 (process 2 is the
/// competitor it may bring in).
template <class Cpu>
std::function<void()> interaction(Rig<Cpu>& r, Path path, Process& p1,
                                  Process& p2) {
  switch (path) {
    case Path::kMakeReady:
      return [&r, &p2] { r.cpu.make_ready(p2); };
    case Path::kPostService:
      return [&r] {
        r.service(1, SimTime::microseconds(300));
        r.service(2, SimTime::milliseconds(3));
      };
    case Path::kCrashRestore:
      return [&r] {
        r.cpu.crash();
        r.sim.schedule(SimTime::milliseconds(3), [&r] { r.cpu.restore(); });
      };
    case Path::kPostHigh:
      return [&r] {
        r.cpu.post_high(SimTime::microseconds(200), [&r] { r.note("high"); });
      };
    case Path::kGang:
      // A gang switch: p1's turn ends, p2's begins, and a message for the
      // daemon arrives at the same instant. Whose slice comes next depends
      // on the daemon's turn, which p1's silent boundaries handed it.
      return [&r, &p1, &p2] {
        r.cpu.suspend(p1);
        r.cpu.make_ready(p2);
        r.service(1, SimTime::microseconds(300));
        r.sim.schedule(SimTime::milliseconds(5), [&r, &p1, &p2] {
          r.cpu.suspend(p2);
          r.cpu.resume(p1);
        });
      };
    case Path::kForceExit:
      return [&r, &p1, &p2] {
        r.cpu.force_exit(p1);
        r.note("aborted 1 cpu " + std::to_string(p1.cpu_time().ns()));
        r.cpu.make_ready(p2);
      };
    case Path::kAbortAccounting:
      // PartitionScheduler::abort_job's order: settle, read the CPU time
      // into the job record, then tear down.
      return [&r, &p1] {
        r.note("expiries " + std::to_string(r.cpu.quantum_expiries()));
        r.cpu.settle();
        r.note("recorded cpu " + std::to_string(p1.cpu_time().ns()));
        r.cpu.force_exit(p1);
      };
  }
  return [] {};
}

/// Process 1 computes 20 ms, first behind one daemon item, then alone;
/// `path` interacts with it once, at `timing`.
template <class Cpu>
void scenario(Rig<Cpu>& r, Path path, Timing timing) {
  Process& p1 = r.spawn(1, SimTime::milliseconds(20));
  Process& p2 = r.spawn(2, SimTime::milliseconds(3));
  r.cpu.make_ready(p1);
  r.service(0, kFirstSlice);
  at(r, timing, interaction(r, path, p1, p2));
  r.sim.run();
}

struct Outcome {
  std::vector<std::string> log;
  std::vector<std::int64_t> cpu_ns;
  std::vector<std::uint64_t> preemptions;
  std::vector<std::uint64_t> dispatches;
  std::uint64_t quantum_expiries = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t high_preemptions = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t events = 0;  // fired + silent steps
  std::int64_t end_ns = 0;
};

template <class Cpu>
Outcome outcome(const Rig<Cpu>& r) {
  Outcome o;
  o.log = r.log;
  for (const auto& p : r.procs) {
    o.cpu_ns.push_back(p->cpu_time().ns());
    o.preemptions.push_back(p->preemptions());
    o.dispatches.push_back(p->dispatches());
  }
  o.quantum_expiries = r.cpu.quantum_expiries();
  o.context_switches = r.cpu.context_switches();
  o.high_preemptions = r.cpu.high_preemptions();
  o.busy_ns = r.cpu.busy_time().ns();
  o.scheduled = r.sim.scheduled_events();
  o.events = r.sim.fired_events() + r.sim.steps_taken();
  o.end_ns = r.sim.now().ns();
  return o;
}

void expect_same(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.cpu_ns, b.cpu_ns);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.quantum_expiries, b.quantum_expiries);
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.high_preemptions, b.high_preemptions);
  EXPECT_EQ(a.busy_ns, b.busy_ns);
  EXPECT_EQ(a.scheduled, b.scheduled);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_ns, b.end_ns);
}

/// Span durations summed per (name, value); the value of a compute or
/// ctx-switch span is the process id.
std::map<std::pair<std::string, std::int64_t>, std::int64_t> span_sums(
    const obs::Timeline& timeline) {
  std::map<std::pair<std::string, std::int64_t>, std::int64_t> sums;
  for (const auto& rec : timeline.records()) {
    if (rec.kind != obs::RecordKind::kSpan) continue;
    sums[{std::string(timeline.name(rec.name)),
          static_cast<std::int64_t>(rec.value)}] += rec.dur_ns;
  }
  return sums;
}

std::int64_t count_records(const obs::Timeline& timeline, obs::RecordKind kind,
                           std::string_view name) {
  std::int64_t n = 0;
  for (const auto& rec : timeline.records()) {
    n += rec.kind == kind && timeline.name(rec.name) == name ? 1 : 0;
  }
  return n;
}

/// The plain CPU's run agrees with the per-quantum reference's in every
/// respect; the armed CPU's run is the plain one's, event for event, and
/// its spans add up as the reference's do.
void expect_twins(const Legs& legs) {
  const Outcome plain = outcome(legs.plain);
  expect_same(plain, outcome(legs.reference));
  expect_same(outcome(legs.armed), plain);
  EXPECT_EQ(legs.armed.sim.fired_events(), legs.plain.sim.fired_events());
  EXPECT_EQ(legs.armed.sim.steps_taken(), legs.plain.sim.steps_taken());
  EXPECT_EQ(legs.reference.sim.steps_taken(), 0u);

  const auto sums = span_sums(legs.armed.timeline);
  EXPECT_EQ(sums, span_sums(legs.reference.timeline));
  for (const auto& p : legs.armed.procs) {
    const auto it = sums.find({"compute", p->id()});
    EXPECT_EQ(it == sums.end() ? 0 : it->second, p->cpu_time().ns())
        << "compute spans of process " << p->id();
  }
  EXPECT_EQ(count_records(legs.armed.timeline, obs::RecordKind::kInstant,
                          "quantum-expiry"),
            0);
}

class SteppedChargeTwin
    : public ::testing::TestWithParam<std::tuple<Path, Timing>> {};

std::string twin_name(
    const ::testing::TestParamInfo<std::tuple<Path, Timing>>& info) {
  static constexpr const char* kPaths[] = {
      "MakeReady", "PostService", "CrashRestore",   "PostHigh",
      "Gang",      "ForceExit",   "AbortAccounting"};
  static constexpr const char* kTimings[] = {"Inside", "BeforeStep",
                                             "AfterStep"};
  return std::string(kPaths[static_cast<int>(std::get<0>(info.param))]) +
         "_" + kTimings[static_cast<int>(std::get<1>(info.param))];
}

TEST_P(SteppedChargeTwin, PlainMatchesPerQuantumReference) {
  const auto [path, timing] = GetParam();
  Legs legs;
  legs.run([path = path, timing = timing](auto& r) {
    scenario(r, path, timing);
  });

  // The production CPU really did skip boundaries.
  EXPECT_GT(legs.plain.sim.steps_taken(), 0u);
  expect_twins(legs);
}

INSTANTIATE_TEST_SUITE_P(
    EveryPathAndTiming, SteppedChargeTwin,
    ::testing::Combine(
        ::testing::Values(Path::kMakeReady, Path::kPostService,
                          Path::kCrashRestore, Path::kPostHigh, Path::kGang,
                          Path::kForceExit, Path::kAbortAccounting),
        ::testing::Values(Timing::kInside, Timing::kBeforeStep,
                          Timing::kAfterStep)),
    twin_name);

enum class SwitchTiming {
  kInside,
  kEndBeforeStep,
  kEndAfterStep,
  kFirstQuantum,
};

/// Runs `action` strictly inside the switch that opens the run ([0, kCtx)),
/// at its end with a sequence number below (scheduled at t=0, before the
/// dispatch draws the switch's) or above (scheduled mid-switch) the
/// kernel's step there, or strictly inside the first quantum after it.
template <class Cpu>
void at_switch(Rig<Cpu>& r, SwitchTiming timing, std::function<void()> action) {
  switch (timing) {
    case SwitchTiming::kInside:
      r.sim.schedule_at(kCtx / 2, std::move(action));
      return;
    case SwitchTiming::kEndBeforeStep:
      r.sim.schedule_at(kCtx, std::move(action));
      return;
    case SwitchTiming::kEndAfterStep:
      r.sim.schedule_at(kCtx / 2, [&r, action = std::move(action)]() mutable {
        r.sim.schedule_at(kCtx, std::move(action));
      });
      return;
    case SwitchTiming::kFirstQuantum:
      r.sim.schedule_at(kCtx + kQuantum / 4, std::move(action));
      return;
  }
}

/// Whether process 1 has the CPU to itself when it is switched in: then
/// its switch folds into a stepped burst; with a daemon item queued, into a
/// one-quantum charge.
enum class Shape { kAlone, kShared };

/// Process 1 computes 20 ms from the run's first switch; `path` interacts
/// with it once, at `timing`.
template <class Cpu>
void switch_scenario(Rig<Cpu>& r, Path path, SwitchTiming timing,
                     Shape shape) {
  Process& p1 = r.spawn(1, SimTime::milliseconds(20));
  Process& p2 = r.spawn(2, SimTime::milliseconds(3));
  r.cpu.make_ready(p1);
  if (shape == Shape::kShared) r.service(0, kFirstSlice);
  at_switch(r, timing, interaction(r, path, p1, p2));
  r.sim.run();
}

class FoldedSwitchTwin
    : public ::testing::TestWithParam<std::tuple<Path, SwitchTiming, Shape>> {
};

std::string folded_name(
    const ::testing::TestParamInfo<std::tuple<Path, SwitchTiming, Shape>>&
        info) {
  static constexpr const char* kPaths[] = {
      "MakeReady", "PostService", "CrashRestore",   "PostHigh",
      "Gang",      "ForceExit",   "AbortAccounting"};
  static constexpr const char* kTimings[] = {"Inside", "EndBeforeStep",
                                             "EndAfterStep", "FirstQuantum"};
  static constexpr const char* kShapes[] = {"Alone", "Shared"};
  return std::string(kPaths[static_cast<int>(std::get<0>(info.param))]) +
         "_" + kTimings[static_cast<int>(std::get<1>(info.param))] + "_" +
         kShapes[static_cast<int>(std::get<2>(info.param))];
}

TEST_P(FoldedSwitchTwin, PlainMatchesPerSwitchReference) {
  const auto [path, timing, shape] = GetParam();
  Legs legs;
  legs.run([path = path, timing = timing, shape = shape](auto& r) {
    switch_scenario(r, path, timing, shape);
  });

  // The production CPU steps silently unless an abort before the switch's
  // step leaves it nothing to run.
  const bool aborted_in_switch = path == Path::kAbortAccounting &&
                                 (timing == SwitchTiming::kInside ||
                                  timing == SwitchTiming::kEndBeforeStep);
  EXPECT_EQ(legs.plain.sim.steps_taken() > 0, !aborted_in_switch);
  expect_twins(legs);
}

INSTANTIATE_TEST_SUITE_P(
    EveryPathAndTiming, FoldedSwitchTwin,
    ::testing::Combine(
        ::testing::Values(Path::kMakeReady, Path::kPostService,
                          Path::kCrashRestore, Path::kPostHigh, Path::kGang,
                          Path::kForceExit, Path::kAbortAccounting),
        ::testing::Values(SwitchTiming::kInside, SwitchTiming::kEndBeforeStep,
                          SwitchTiming::kEndAfterStep,
                          SwitchTiming::kFirstQuantum),
        ::testing::Values(Shape::kAlone, Shape::kShared)),
    folded_name);

/// Ops whose switch keeps its own event: they are no pure CPU charge at
/// the switch's end.
enum class Unfolded {
  kZeroCostControl,
  kSend,
  kReceiveWaiting,
  kReceiveDuringSwitch,
};

/// Process 1 is switched in to run one op of that kind, then exits.
template <class Cpu>
void unfolded_scenario(Rig<Cpu>& r, Unfolded op) {
  r.cpu.set_send_dispatcher(
      [&r](Process& p, const SendOp& send, mem::Block /*buffer*/) {
        r.note("sent " + std::to_string(send.bytes) + " from " +
               std::to_string(p.id()));
      });
  Program prog;
  switch (op) {
    case Unfolded::kZeroCostControl:
      prog.control(SimTime::zero(), [&r](Process&) { r.note("control"); })
          .compute(SimTime::milliseconds(1));
      break;
    case Unfolded::kSend:
      prog.send(2, 7, 1000);
      break;
    case Unfolded::kReceiveWaiting:
    case Unfolded::kReceiveDuringSwitch:
      prog.receive(7);
      break;
  }
  prog.exit();
  Process& p1 = r.adopt(1, std::move(prog));
  auto deposit = [&r, &p1] {
    net::Message msg;
    msg.tag = 7;
    msg.bytes = 1000;
    r.cpu.deliver(p1, msg, *r.mmu.try_alloc(msg.bytes));
  };
  if (op == Unfolded::kReceiveWaiting) deposit();
  r.cpu.make_ready(p1);
  if (op == Unfolded::kReceiveDuringSwitch) {
    r.sim.schedule_at(kCtx / 2, deposit);
  }
  r.sim.run();
}

class UnfoldedSwitchTwin : public ::testing::TestWithParam<Unfolded> {};

TEST_P(UnfoldedSwitchTwin, SwitchKeepsItsOwnEvent) {
  Legs legs;
  legs.run([op = GetParam()](auto& r) { unfolded_scenario(r, op); });

  const Production& plain = legs.plain;
  EXPECT_EQ(plain.cpu.context_switches(), 1u);
  EXPECT_EQ(plain.sim.steps_taken(), 0u);
  ASSERT_FALSE(plain.log.empty());
  EXPECT_EQ(plain.log.back().substr(plain.log.back().find(' ')), " exit 1");
  expect_twins(legs);
}

std::string unfolded_name(const ::testing::TestParamInfo<Unfolded>& info) {
  static constexpr const char* kNames[] = {"ZeroCostControl", "Send",
                                           "ReceiveWaiting",
                                           "ReceiveDuringSwitch"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    ZeroCostControlSendAndReceive, UnfoldedSwitchTwin,
    ::testing::Values(Unfolded::kZeroCostControl, Unfolded::kSend,
                      Unfolded::kReceiveWaiting,
                      Unfolded::kReceiveDuringSwitch),
    unfolded_name);

// --- rotations ------------------------------------------------------------

/// Rings of compute-bound processes made ready together at t=0: unequal
/// quanta, bursts that end on different turns, and in the largest a
/// ControlOp between two bursts.
enum class Ring { kTwo, kThree, kFourWithControl };

template <class Cpu>
void spawn_ring(Rig<Cpu>& r, Ring ring) {
  switch (ring) {
    case Ring::kTwo:
      r.spawn(1, SimTime::milliseconds(20));
      r.spawn(2, SimTime::milliseconds(13), SimTime::milliseconds(3));
      break;
    case Ring::kThree:
      r.spawn(1, SimTime::milliseconds(20));
      r.spawn(2, SimTime::milliseconds(7), SimTime::microseconds(1500));
      r.spawn(3, SimTime::milliseconds(11), SimTime::microseconds(2500));
      break;
    case Ring::kFourWithControl: {
      r.spawn(1, SimTime::milliseconds(9));
      r.spawn(2, SimTime::milliseconds(6), SimTime::microseconds(1500));
      Program prog;
      prog.compute(SimTime::milliseconds(3))
          .control(SimTime::milliseconds(2),
                   [&r](Process& self) {
                     r.note("control " + std::to_string(self.id()));
                   })
          .compute(SimTime::milliseconds(4))
          .exit();
      r.adopt(3, std::move(prog), SimTime::milliseconds(1));
      r.spawn(4, SimTime::milliseconds(12), SimTime::microseconds(2500));
      break;
    }
  }
  for (const auto& p : r.procs) r.cpu.make_ready(*p);
}

std::size_t ring_size(Ring ring) {
  switch (ring) {
    case Ring::kTwo: return 2;
    case Ring::kThree: return 3;
    case Ring::kFourWithControl: return 4;
  }
  return 0;
}

/// A context switch of the reference's undisturbed run of the ring: when
/// it starts and whom it switches in.
struct SwitchIn {
  std::int64_t start_ns;
  net::EndpointId pid;
};

std::vector<SwitchIn> reference_switches(Ring ring) {
  Reference probe(true);
  spawn_ring(probe, ring);
  probe.sim.run();
  std::vector<SwitchIn> switches;
  for (const auto& rec : probe.timeline.records()) {
    if (rec.kind == obs::RecordKind::kSpan &&
        probe.timeline.name(rec.name) == "ctx-switch") {
      switches.push_back(
          {rec.start_ns, static_cast<net::EndpointId>(rec.value)});
    }
  }
  return switches;
}

enum class RotationTiming {
  kMidSwitch,
  kSwitchEnd,
  kMidTurn,
  kTurnEndBeforeStep,
  kTurnEndAfterStep,
};

enum class RotationPath {
  kMakeReady,
  kPostHigh,
  kPostService,
  kSuspendFirst,
  kSuspendSecond,
  kForceExitFirst,
  kForceExitSecond,
  kCrashRestore,
  kSettleRead,
};

/// Where a rotation scenario aims: the second rotation's second switch
/// (every member is still computing), switching in `first`; `second` is
/// switched in after it. Before that switch's turn ends, `first` holds the
/// CPU and `second` waits in the queue; after it, the other way round.
struct RotationAim {
  SimTime switch_start;
  SimTime turn_end;
  net::EndpointId first;
  net::EndpointId second;
};

RotationAim aim(Ring ring) {
  const auto switches = reference_switches(ring);
  const std::size_t k = ring_size(ring) + 1;
  EXPECT_GT(switches.size(), k + 1);
  return {SimTime::nanoseconds(switches[k].start_ns),
          SimTime::nanoseconds(switches[k + 1].start_ns), switches[k].pid,
          switches[k + 1].pid};
}

template <class Cpu>
void at_rotation(Rig<Cpu>& r, const RotationAim& a, RotationTiming timing,
                 std::function<void()> action) {
  const SimTime mid_turn = a.switch_start + kCtx + SimTime::microseconds(500);
  switch (timing) {
    case RotationTiming::kMidSwitch:
      r.sim.schedule_at(a.switch_start + kCtx / 2, std::move(action));
      return;
    case RotationTiming::kSwitchEnd:
      // Scheduled at t=0: before the kernel's step at the switch's end.
      r.sim.schedule_at(a.switch_start + kCtx, std::move(action));
      return;
    case RotationTiming::kMidTurn:
      r.sim.schedule_at(mid_turn, std::move(action));
      return;
    case RotationTiming::kTurnEndBeforeStep:
      r.sim.schedule_at(a.turn_end, std::move(action));
      return;
    case RotationTiming::kTurnEndAfterStep:
      r.sim.schedule_at(mid_turn, [&r, at = a.turn_end,
                                   action = std::move(action)]() mutable {
        r.sim.schedule_at(at, std::move(action));
      });
      return;
  }
}

template <class Cpu>
std::function<void()> rotation_interaction(Rig<Cpu>& r, RotationPath path,
                                           const RotationAim& a) {
  Process& first = r.proc(a.first);
  Process& second = r.proc(a.second);
  const auto suspend_resume = [&r](Process& p) {
    return [&r, &p] {
      r.cpu.suspend(p);
      r.sim.schedule(SimTime::milliseconds(5), [&r, &p] { r.cpu.resume(p); });
    };
  };
  const auto force_exit = [&r](Process& p) {
    return [&r, &p] {
      r.cpu.force_exit(p);
      r.note("aborted " + std::to_string(p.id()) + " cpu " +
             std::to_string(p.cpu_time().ns()));
    };
  };
  switch (path) {
    case RotationPath::kMakeReady:
      return [&r] { r.cpu.make_ready(r.proc(9)); };
    case RotationPath::kPostHigh:
      return [&r] {
        r.cpu.post_high(SimTime::microseconds(200), [&r] { r.note("high"); });
      };
    case RotationPath::kPostService:
      return [&r] {
        r.service(1, SimTime::microseconds(300));
        r.service(2, SimTime::milliseconds(3));
      };
    case RotationPath::kSuspendFirst: return suspend_resume(first);
    case RotationPath::kSuspendSecond: return suspend_resume(second);
    case RotationPath::kForceExitFirst: return force_exit(first);
    case RotationPath::kForceExitSecond: return force_exit(second);
    case RotationPath::kCrashRestore:
      return [&r] {
        r.cpu.crash();
        r.sim.schedule(SimTime::milliseconds(3), [&r] { r.cpu.restore(); });
      };
    case RotationPath::kSettleRead:
      // The unsettled counts first, then every member's settled account.
      return [&r] {
        r.note("expiries " + std::to_string(r.cpu.quantum_expiries()) +
               " switches " + std::to_string(r.cpu.context_switches()));
        r.cpu.settle();
        for (const auto& p : r.procs) {
          r.note(std::to_string(p->id()) + " cpu " +
                 std::to_string(p->cpu_time().ns()) + " dispatches " +
                 std::to_string(p->dispatches()));
        }
      };
  }
  return [] {};
}

/// The ring rotates from t=0, with a newcomer (process 9) spawned but not
/// ready; `path` interacts with the rotation once, at `timing`.
template <class Cpu>
void rotation_scenario(Rig<Cpu>& r, Ring ring, RotationPath path,
                       RotationTiming timing, const RotationAim& a) {
  spawn_ring(r, ring);
  r.spawn(9, SimTime::milliseconds(4));
  at_rotation(r, a, timing, rotation_interaction(r, path, a));
  r.sim.run();
}

class RotationTwin
    : public ::testing::TestWithParam<
          std::tuple<Ring, RotationPath, RotationTiming>> {};

std::string rotation_name(
    const ::testing::TestParamInfo<
        std::tuple<Ring, RotationPath, RotationTiming>>& info) {
  static constexpr const char* kRings[] = {"Two", "Three", "FourWithControl"};
  static constexpr const char* kPaths[] = {
      "MakeReady",       "PostHigh",         "PostService",
      "SuspendFirst",    "SuspendSecond",    "ForceExitFirst",
      "ForceExitSecond", "CrashRestore",     "SettleRead"};
  static constexpr const char* kTimings[] = {
      "MidSwitch", "SwitchEnd", "MidTurn", "TurnEndBeforeStep",
      "TurnEndAfterStep"};
  return std::string(kRings[static_cast<int>(std::get<0>(info.param))]) +
         "_" + kPaths[static_cast<int>(std::get<1>(info.param))] + "_" +
         kTimings[static_cast<int>(std::get<2>(info.param))];
}

TEST_P(RotationTwin, PlainMatchesPerQuantumReference) {
  const auto [ring, path, timing] = GetParam();
  const RotationAim a = aim(ring);
  Legs legs;
  legs.run([ring = ring, path = path, timing = timing, &a](auto& r) {
    rotation_scenario(r, ring, path, timing, a);
  });

  // The production CPU really did rotate silently.
  EXPECT_GT(legs.plain.sim.steps_taken(), 0u);
  EXPECT_LT(legs.plain.sim.fired_events(), legs.reference.sim.fired_events());
  expect_twins(legs);
}

INSTANTIATE_TEST_SUITE_P(
    EveryRingPathAndTiming, RotationTwin,
    ::testing::Combine(
        ::testing::Values(Ring::kTwo, Ring::kThree, Ring::kFourWithControl),
        ::testing::Values(RotationPath::kMakeReady, RotationPath::kPostHigh,
                          RotationPath::kPostService,
                          RotationPath::kSuspendFirst,
                          RotationPath::kSuspendSecond,
                          RotationPath::kForceExitFirst,
                          RotationPath::kForceExitSecond,
                          RotationPath::kCrashRestore,
                          RotationPath::kSettleRead),
        ::testing::Values(RotationTiming::kMidSwitch,
                          RotationTiming::kSwitchEnd, RotationTiming::kMidTurn,
                          RotationTiming::kTurnEndBeforeStep,
                          RotationTiming::kTurnEndAfterStep)),
    rotation_name);

TEST(Rotation, FiresAtEveryTurnBetweenProcesses) {
  Legs legs;
  legs.run([](auto& r) { spawn_ring(r, Ring::kThree); });
  legs.run([](auto& r) { r.sim.run(); });
  expect_twins(legs);
  // The reference fires one event per switch and per turn. The production
  // CPU fires the dispatch pump, then one event per turn end: each switch
  // is the silent first step of the turn behind it, and process 1,
  // switched back in after the last exit, runs its five remaining quanta
  // alone as one stepped charge.
  const Production& plain = legs.plain;
  EXPECT_EQ(plain.cpu.context_switches(), 16u);
  EXPECT_EQ(plain.sim.fired_events(), 17u);
  EXPECT_EQ(plain.sim.fired_events() + plain.sim.steps_taken(),
            legs.reference.sim.fired_events());
}

TEST(Rotation, ArmedRecordsEverySwitchAndTurn) {
  // Two processes whose bursts end on their last turns: every stretch is
  // a switch or a turn between two others, so the armed CPU's spans are
  // the reference's, one for one.
  Legs legs;
  legs.run([](auto& r) {
    r.spawn(1, SimTime::milliseconds(8));
    r.spawn(2, SimTime::milliseconds(9), SimTime::milliseconds(3));
    for (const auto& p : r.procs) r.cpu.make_ready(*p);
    r.sim.run();
  });
  expect_twins(legs);
  const auto spans = [](const obs::Timeline& timeline) {
    std::vector<std::tuple<std::int64_t, std::string, std::int64_t, double>>
        out;
    for (const auto& rec : timeline.records()) {
      if (rec.kind != obs::RecordKind::kSpan) continue;
      out.emplace_back(rec.start_ns, std::string(timeline.name(rec.name)),
                       rec.dur_ns, rec.value);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto armed = spans(legs.armed.timeline);
  EXPECT_EQ(armed, spans(legs.reference.timeline));
  EXPECT_EQ(armed.size(), 14u);  // 7 switches and 7 turns
  EXPECT_EQ(legs.armed.sim.fired_events(), 8u);
}

TEST(SteppedCharge, BoundariesLandWhereTheScenariosExpect) {
  // The reference CPU's quantum-expiry instants pin the timing constants
  // the twin scenarios aim at.
  Reference reference(true);
  Process& p1 = reference.spawn(1, SimTime::milliseconds(20));
  reference.cpu.make_ready(p1);
  reference.service(0, kFirstSlice);
  reference.sim.run();
  std::vector<std::int64_t> expiries;
  const obs::NameId name = reference.timeline.intern("quantum-expiry");
  for (const auto& rec : reference.timeline.records()) {
    if (rec.kind == obs::RecordKind::kInstant && rec.name == name) {
      expiries.push_back(rec.start_ns);
    }
  }
  ASSERT_GE(expiries.size(), 3u);
  EXPECT_EQ(expiries[0], (kCtx + kQuantum).ns());
  EXPECT_EQ(expiries[1], (kAloneFrom + kQuantum).ns());
  EXPECT_EQ(expiries[2], kBoundary.ns());
}

TEST(SteppedCharge, AloneBurstFiresOnceAndCountsEveryBoundary) {
  Production plain(false);
  Process& p1 = plain.spawn(1, SimTime::milliseconds(20));
  plain.cpu.make_ready(p1);
  plain.sim.run();
  // A switch, then ten quanta: the switch's end and nine boundaries are
  // silent steps, and the last quantum ends the op.
  EXPECT_EQ(plain.sim.steps_taken(), 10u);
  EXPECT_EQ(plain.cpu.quantum_expiries(), 9u);
  EXPECT_EQ(p1.cpu_time(), SimTime::milliseconds(20));
  // Fired events plus steps are the per-quantum reference's events.
  Reference reference(false);
  reference.cpu.make_ready(reference.spawn(1, SimTime::milliseconds(20)));
  reference.sim.run();
  EXPECT_EQ(plain.sim.fired_events() + plain.sim.steps_taken(),
            reference.sim.fired_events());
}

TEST(SteppedCharge, ArmedAloneBurstIsOneSwitchAndOneComputeSpan) {
  // Where the reference records a switch, ten compute spans and nine
  // quantum-expiry instants, the armed CPU records one span per stretch.
  Production armed(true);
  Process& p1 = armed.spawn(1, SimTime::milliseconds(20));
  armed.cpu.make_ready(p1);
  armed.sim.run();
  EXPECT_EQ(armed.sim.steps_taken(), 10u);
  const auto& records = armed.timeline.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(armed.timeline.name(records[0].name), "ctx-switch");
  EXPECT_EQ(records[0].start_ns, 0);
  EXPECT_EQ(records[0].dur_ns, kCtx.ns());
  EXPECT_EQ(armed.timeline.name(records[1].name), "compute");
  EXPECT_EQ(records[1].start_ns, kCtx.ns());
  EXPECT_EQ(records[1].dur_ns, SimTime::milliseconds(20).ns());
  EXPECT_EQ(records[1].value, 1.0);
  EXPECT_EQ(armed.timeline.name(records[2].name), "exit");
}

TEST(SteppedCharge, ExpiriesCountUnsettledStepsMidBurst) {
  Production armed(true);
  Process& p1 = armed.spawn(1, SimTime::milliseconds(20));
  armed.cpu.make_ready(p1);
  armed.sim.run_until(kCtx + 3 * kQuantum + kQuantum / 2);
  EXPECT_EQ(armed.cpu.quantum_expiries(), 3u);
  // Settling is accounting only: nothing about the run changes, and the
  // burst is still recorded as one compute span when it ends.
  EXPECT_EQ(p1.cpu_time(), SimTime::zero());
  armed.cpu.settle();
  EXPECT_EQ(p1.cpu_time(), 3 * kQuantum);
  EXPECT_EQ(armed.cpu.quantum_expiries(), 3u);
  armed.sim.run();
  EXPECT_EQ(p1.cpu_time(), SimTime::milliseconds(20));
  EXPECT_EQ(armed.cpu.quantum_expiries(), 9u);
  EXPECT_EQ(count_records(armed.timeline, obs::RecordKind::kSpan, "compute"),
            1);
  const auto sums = span_sums(armed.timeline);
  EXPECT_EQ(sums.at({"compute", 1}), SimTime::milliseconds(20).ns());
}

}  // namespace
}  // namespace tmc::node
