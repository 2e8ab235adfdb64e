// Twin tests of the Transputer's stepped charges.
//
// A process alone on its CPU runs a whole burst as one stepped kernel entry
// whose quantum boundaries pass silently (Transputer::plan_op). A CPU with a
// timeline attached keeps one event per quantum, so it is the reference:
// every scenario below runs on a plain CPU and on an armed one, and the two
// must agree on every counter, every completion instant and the order of
// the daemon's slices. Each interaction with the running burst lands
// strictly inside a quantum, and exactly on a boundary both before and
// after the kernel's step at that instant.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "mem/mmu.h"
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
struct Rig {
  explicit Rig(bool armed) : mmu(sim, 64 * 1024), cpu(sim, 0, mmu) {
    if (armed) {
      cpu.set_timeline(&timeline,
                       timeline.add_track(obs::TrackKind::kNode, "cpu0"));
    }
  }

  Process& spawn(net::EndpointId id, SimTime cost) {
    Program prog;
    prog.compute(cost).exit();
    auto p = std::make_unique<Process>(id, 1, std::move(prog));
    p->bind_to_node(0);
    p->set_quantum(kQuantum);
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

  sim::Simulation sim;
  mem::Mmu mmu;
  obs::Timeline timeline;
  Transputer cpu;
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<std::string> log;
};

enum class Timing { kInside, kBeforeStep, kAfterStep };

/// Runs `action` strictly inside the third quantum, or at kBoundary with a
/// sequence number below (scheduled at t=0) or above (scheduled after the
/// previous boundary) the kernel's step at that instant.
void at(Rig& r, Timing timing, std::function<void()> action) {
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

/// Process 1 computes 20 ms, first behind one daemon item, then alone;
/// `path` interacts with it once, at `timing`.
void scenario(Rig& r, Path path, Timing timing) {
  Process& p1 = r.spawn(1, SimTime::milliseconds(20));
  Process& p2 = r.spawn(2, SimTime::milliseconds(3));
  r.cpu.make_ready(p1);
  r.service(0, kFirstSlice);
  switch (path) {
    case Path::kMakeReady:
      at(r, timing, [&r, &p2] { r.cpu.make_ready(p2); });
      break;
    case Path::kPostService:
      at(r, timing, [&r] {
        r.service(1, SimTime::microseconds(300));
        r.service(2, SimTime::milliseconds(3));
      });
      break;
    case Path::kCrashRestore:
      at(r, timing, [&r] {
        r.cpu.crash();
        r.sim.schedule(SimTime::milliseconds(3), [&r] { r.cpu.restore(); });
      });
      break;
    case Path::kPostHigh:
      at(r, timing, [&r] {
        r.cpu.post_high(SimTime::microseconds(200), [&r] { r.note("high"); });
      });
      break;
    case Path::kGang:
      // A gang switch: p1's turn ends, p2's begins, and a message for the
      // daemon arrives at the same instant. Whose slice comes next depends
      // on the daemon's turn, which p1's silent boundaries handed it.
      at(r, timing, [&r, &p1, &p2] {
        r.cpu.suspend(p1);
        r.cpu.make_ready(p2);
        r.service(1, SimTime::microseconds(300));
        r.sim.schedule(SimTime::milliseconds(5), [&r, &p1, &p2] {
          r.cpu.suspend(p2);
          r.cpu.resume(p1);
        });
      });
      break;
    case Path::kForceExit:
      at(r, timing, [&r, &p1, &p2] {
        r.cpu.force_exit(p1);
        r.note("aborted 1 cpu " + std::to_string(p1.cpu_time().ns()));
        r.cpu.make_ready(p2);
      });
      break;
    case Path::kAbortAccounting:
      // PartitionScheduler::abort_job's order: settle, read the CPU time
      // into the job record, then tear down.
      at(r, timing, [&r, &p1] {
        r.note("expiries " + std::to_string(r.cpu.quantum_expiries()));
        r.cpu.settle();
        r.note("recorded cpu " + std::to_string(p1.cpu_time().ns()));
        r.cpu.force_exit(p1);
      });
      break;
  }
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
};

Outcome outcome(const Rig& r) {
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
  return o;
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
  Rig plain(false);
  Rig armed(true);
  scenario(plain, path, timing);
  scenario(armed, path, timing);

  // The plain CPU really did skip boundaries; the armed one never does.
  EXPECT_GT(plain.sim.steps_taken(), 0u);
  EXPECT_EQ(armed.sim.steps_taken(), 0u);

  const Outcome a = outcome(plain);
  const Outcome b = outcome(armed);
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
  EXPECT_EQ(plain.sim.now(), armed.sim.now());
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

TEST(SteppedCharge, BoundariesLandWhereTheScenariosExpect) {
  // The reference CPU's quantum-expiry instants pin the timing constants
  // the twin scenarios aim at.
  Rig armed(true);
  Process& p1 = armed.spawn(1, SimTime::milliseconds(20));
  armed.cpu.make_ready(p1);
  armed.service(0, kFirstSlice);
  armed.sim.run();
  std::vector<std::int64_t> expiries;
  const obs::NameId name = armed.timeline.intern("quantum-expiry");
  for (const auto& rec : armed.timeline.records()) {
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
  Rig plain(false);
  Process& p1 = plain.spawn(1, SimTime::milliseconds(20));
  plain.cpu.make_ready(p1);
  plain.sim.run();
  // Ten quanta: nine silent boundaries, and the last one ends the op.
  EXPECT_EQ(plain.sim.steps_taken(), 9u);
  EXPECT_EQ(plain.cpu.quantum_expiries(), 9u);
  EXPECT_EQ(p1.cpu_time(), SimTime::milliseconds(20));
}

TEST(SteppedCharge, ExpiriesCountUnsettledStepsMidBurst) {
  Rig plain(false);
  Process& p1 = plain.spawn(1, SimTime::milliseconds(20));
  plain.cpu.make_ready(p1);
  plain.sim.run_until(kCtx + 3 * kQuantum + kQuantum / 2);
  EXPECT_EQ(plain.cpu.quantum_expiries(), 3u);
  // Settling is accounting only: nothing about the run changes.
  EXPECT_EQ(p1.cpu_time(), SimTime::zero());
  plain.cpu.settle();
  EXPECT_EQ(p1.cpu_time(), 3 * kQuantum);
  EXPECT_EQ(plain.cpu.quantum_expiries(), 3u);
  plain.sim.run();
  EXPECT_EQ(p1.cpu_time(), SimTime::milliseconds(20));
  EXPECT_EQ(plain.cpu.quantum_expiries(), 9u);
}

}  // namespace
}  // namespace tmc::node
