// The per-quantum T805 CPU: the test reference for Transputer's stepped
// charges.
//
// It has the Transputer's interface and semantics without stepped charges
// or folded switches: every CPU charge is one kernel event of at most one
// quantum, every context switch is its own charge, and every quantum
// boundary runs the callback that renews the quantum or requeues the
// process. Transputer must agree with it on every counter, completion
// instant and daemon slice, and on the sum of its timeline spans per
// (name, pid). It also records a `quantum-expiry` instant at each
// boundary, which the tests use to aim their interactions; the production
// CPU records none.
#pragma once

#include <cstdint>
#include <optional>

#include "mem/mmu.h"
#include "node/process.h"
#include "node/program.h"
#include "node/transputer.h"
#include "obs/timeline.h"
#include "sim/ring_queue.h"
#include "sim/simulation.h"
#include "sim/stats.h"
#include "sim/unique_function.h"

namespace tmc::node {

class EagerTransputer {
 public:
  using Params = TransputerParams;
  using SendDispatcher = Transputer::SendDispatcher;

  EagerTransputer(sim::Simulation& sim, net::NodeId node, mem::Mmu& mmu,
                  Params params = {});
  EagerTransputer(const EagerTransputer&) = delete;
  EagerTransputer& operator=(const EagerTransputer&) = delete;

  void set_send_dispatcher(SendDispatcher dispatcher) {
    send_dispatcher_ = std::move(dispatcher);
  }
  void set_timeline(obs::Timeline* timeline, obs::TrackId track);

  void make_ready(Process& p);
  void post_high(sim::SimTime cost, sim::UniqueFunction<void()> done);
  void post_service(sim::SimTime cost, sim::UniqueFunction<void()> done);
  void deliver(Process& receiver, const net::Message& msg, mem::Block buffer);
  void suspend(Process& p);
  void resume(Process& p);
  void crash() { crashed_ = true; }
  void restore();
  void force_exit(Process& p);
  /// Every boundary fires its own event: there is nothing to settle.
  void settle() {}

  [[nodiscard]] sim::SimTime busy_time() const {
    return busy_tracker_.busy_time(sim_.now());
  }
  [[nodiscard]] std::uint64_t context_switches() const {
    return context_switches_;
  }
  [[nodiscard]] std::uint64_t quantum_expiries() const {
    return quantum_expiries_;
  }
  [[nodiscard]] std::uint64_t high_preemptions() const {
    return high_preemptions_;
  }

 private:
  enum class ChargeKind : std::uint8_t {
    kNone,
    kContext,
    kOp,
    kHigh,
    kService,
  };

  struct HighWork {
    sim::SimTime cost;
    sim::UniqueFunction<void()> done;
  };
  struct ServiceWork {
    sim::SimTime remaining;
    sim::UniqueFunction<void()> done;
  };

  void request_dispatch();
  void dispatch();
  void continue_low();
  void plan_charge(ChargeKind kind, sim::SimTime amount);
  static std::optional<sim::SimTime> cpu_cost(const Op& op);
  void on_charge_done();
  void interrupt_service();
  void consume_service(sim::SimTime amount);
  Process& interrupt_low_charge();
  void preempt_low();
  void complete_op(Process& p);
  void requeue(Process& p);
  void set_busy(bool b) { busy_tracker_.set_busy(sim_.now(), b); }
  void record_charge(ChargeKind kind, sim::SimTime start, sim::SimTime dur,
                     double value);

  sim::Simulation& sim_;
  net::NodeId node_;
  mem::Mmu& mmu_;
  Params params_;
  SendDispatcher send_dispatcher_;
  obs::Timeline* timeline_ = nullptr;
  obs::TrackId track_ = 0;
  obs::NameId name_compute_ = 0;
  obs::NameId name_context_ = 0;
  obs::NameId name_high_ = 0;
  obs::NameId name_daemon_ = 0;
  obs::NameId name_quantum_ = 0;
  obs::NameId name_exit_ = 0;

  sim::RingQueue<HighWork> high_queue_;
  sim::RingQueue<Process*> low_queue_;
  sim::RingQueue<ServiceWork> service_queue_;
  bool service_turn_ = false;
  Process* current_ = nullptr;
  Process* last_ran_ = nullptr;
  sim::SimTime quantum_left_;
  HighWork current_high_;

  sim::EventId charge_event_ = sim::kNoEvent;
  bool pump_scheduled_ = false;
  bool crashed_ = false;
  ChargeKind charge_kind_ = ChargeKind::kNone;
  sim::SimTime charge_started_;

  sim::BusyTracker busy_tracker_;
  std::uint64_t context_switches_ = 0;
  std::uint64_t quantum_expiries_ = 0;
  std::uint64_t high_preemptions_ = 0;
};

}  // namespace tmc::node
