// tmcsim -- the T805 processor model.
//
// The T805 schedules processes in hardware with two priority levels
// (paper section 3.1):
//
//  * High-priority processes run to completion (or until they block) and
//    preempt low-priority work immediately. The preempted low-priority
//    process loses the unfinished part of its quantum and rejoins the back
//    of the ready queue. We use the high queue for the communication
//    system's buffer management and mailbox work, as the paper's
//    implementation does.
//
//  * Low-priority processes time-share round-robin. The hardware quantum is
//    about 2 ms; the time-sharing policies override a process's quantum with
//    the RR-job value Q = (P/T) * q.
//
// The Transputer also interprets the op scripts (node/program.h): compute
// bursts are preemptible CPU charges; sends stage a buffer from the local
// MMU, pay a copy cost and hand off to the network; receives block on the
// mailbox; allocations block on the MMU.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "mem/mmu.h"
#include "node/process.h"
#include "node/program.h"
#include "obs/timeline.h"
#include "sim/ring_queue.h"
#include "sim/simulation.h"
#include "sim/stats.h"
#include "sim/unique_function.h"

namespace tmc::node {

struct TransputerParams {
  /// Cost of switching the CPU between two different low-pri processes.
  sim::SimTime context_switch = sim::SimTime::microseconds(10);
  /// Software overhead to initiate a mailbox send / finalise a receive.
  sim::SimTime send_setup = sim::SimTime::microseconds(50);
  sim::SimTime recv_setup = sim::SimTime::microseconds(50);
  /// On-node memory copy cost per byte (~25 MB/s on the T805).
  sim::SimTime copy_per_byte = sim::SimTime::nanoseconds(40);
  /// CPU slice granted to the comm daemon per turn (the hardware
  /// timeslice); it drains as many queued work items as fit.
  sim::SimTime daemon_slice = sim::SimTime::milliseconds(2);
};

class Transputer {
 public:
  using Params = TransputerParams;

  /// Installed by the communication system: takes the sending process, the
  /// send op, and the staged source buffer, and injects the message.
  using SendDispatcher =
      std::function<void(Process&, const SendOp&, mem::Block)>;

  Transputer(sim::Simulation& sim, net::NodeId node, mem::Mmu& mmu,
             Params params = {});
  Transputer(const Transputer&) = delete;
  Transputer& operator=(const Transputer&) = delete;

  void set_send_dispatcher(SendDispatcher dispatcher) {
    send_dispatcher_ = std::move(dispatcher);
  }

  /// Optional timeline recorder (null = off); it changes nothing in the
  /// run. Each charge becomes a span on `track` when it ends or is
  /// interrupted: a stepped charge is one `compute` span, a folded switch
  /// keeps its `ctx-switch` span, and both carry the process id as their
  /// value. Process exits (value = pid) become instants.
  void set_timeline(obs::Timeline* timeline, obs::TrackId track);

  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] mem::Mmu& mmu() { return mmu_; }
  [[nodiscard]] const Params& params() const { return params_; }

  // --- scheduler interface ----------------------------------------------
  // The entry points below schedule at most one zero-delay dispatch pump
  // per CPU (pump_scheduled_ dedups), so a partition-wide fan-out (gang
  // dispatch, job admission) costs one same-instant event per CPU touched.

  /// Makes a (new or unblocked) process runnable on this CPU.
  void make_ready(Process& p);

  /// Enqueues high-priority work costing `cost` CPU; `done` runs when it
  /// completes. Preempts any running low-priority process immediately.
  void post_high(sim::SimTime cost, sim::UniqueFunction<void()> done);

  /// Enqueues system-daemon work (mailbox management, store-and-forward
  /// copying). The daemon is a LOW-priority software process, as in the
  /// paper's implementation: it time-shares the CPU fairly with application
  /// processes instead of preempting them, so heavy message traffic slows
  /// the node's computation and vice versa -- the contention the paper
  /// attributes to its communication system.
  void post_service(sim::SimTime cost, sim::UniqueFunction<void()> done);

  /// Deposits a delivered message into `receiver`'s mailbox and wakes it if
  /// it is blocked on a matching receive. (Called from high-priority work.)
  void deliver(Process& receiver, const net::Message& msg, mem::Block buffer);

  // --- gang scheduling (partition scheduler interface) --------------------
  /// Takes `p` out of circulation for the rest of its job's rotation: a
  /// ready process parks as kSuspended, a running one is preempted off the
  /// CPU, and a blocked one will park instead of waking. Idempotent.
  void suspend(Process& p);
  /// Puts `p` back in circulation (enqueues it if it was parked ready).
  void resume(Process& p);

  // --- fault injection ----------------------------------------------------
  /// Fail-stop freeze: the CPU stops starting new work. The at-most-one
  /// in-flight charge completes and its side effects apply (the hardware's
  /// pipeline drains); the current process then parks on the ready queue.
  /// Queued work stays queued until restore(). Idempotent.
  void crash();
  /// Clears the crash; dispatching resumes with whatever is still queued.
  void restore();
  /// Scheduler-initiated teardown of `p` (job abort after a failure):
  /// removes the process from every CPU structure -- ready queue, in-flight
  /// charge, blocked MMU request -- releases its buffers and marks it done
  /// WITHOUT firing its exit handler (the scheduler is unwinding the job
  /// itself and must not see a completion).
  void force_exit(Process& p);
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Brings the running process's accounting up to date: replays the
  /// quantum boundaries its stepped charge has passed silently (see
  /// plan_op), so Process::cpu_time() is what the per-quantum charges would
  /// have recorded by now. The charge keeps running.
  void settle();

  // --- observability ------------------------------------------------------
  [[nodiscard]] std::size_t ready_count() const { return low_queue_.size(); }
  [[nodiscard]] bool busy() const { return charge_event_ != sim::kNoEvent; }
  [[nodiscard]] double utilization() const {
    return busy_tracker_.utilization(sim_.now());
  }
  [[nodiscard]] sim::SimTime busy_time() const {
    return busy_tracker_.busy_time(sim_.now());
  }
  [[nodiscard]] std::uint64_t context_switches() const { return context_switches_; }
  /// Includes the boundaries an in-flight stepped charge has passed but not
  /// yet settled.
  [[nodiscard]] std::uint64_t quantum_expiries() const;
  [[nodiscard]] std::uint64_t high_preemptions() const { return high_preemptions_; }
  [[nodiscard]] std::uint64_t high_items() const { return high_items_; }
  [[nodiscard]] std::uint64_t service_items() const { return service_items_; }
  [[nodiscard]] sim::SimTime service_time() const { return service_time_done_; }

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

  /// Schedules a zero-delay dispatch pump. External entry points (make_ready,
  /// post_high) never run the interpreter inline: this keeps op side effects
  /// (which can re-enter the same CPU, e.g. a self-send's delivery) from
  /// nesting inside an in-flight interpreter step.
  void request_dispatch();
  /// Picks the next work item if the CPU is idle.
  void dispatch();
  /// Interprets ops of `current_` until a charge is planned, the process
  /// blocks, or it exits.
  void continue_low();
  /// Schedules the end-of-charge event.
  void plan_charge(ChargeKind kind, sim::SimTime amount);
  /// Plans the next charge of the op at current_->pc_. With the CPU to
  /// itself (no queued competitor), the whole remaining burst becomes one
  /// stepped charge whose quantum boundaries the kernel steps silently;
  /// otherwise one quantum-bounded charge.
  void plan_op(Process& p);
  /// Plans the context switch to `p`. When the op at `p`'s pc is a pure CPU
  /// charge at the switch's end, the switch is folded into that charge: one
  /// stepped entry whose first step is the switch's end (switch_end_), a
  /// kContext charge until the kernel steps past it. Otherwise the switch is
  /// its own charge.
  void plan_switch(Process& p);
  /// True when the op at p's pc is a pure CPU charge: a Compute or Control
  /// op of positive cost (whose remaining cost it stages, entering the copy
  /// phase), or any op in its copy phase with cost left to pay.
  bool stage_cpu_charge(Process& p);
  /// Plans a stepped charge of current_ (steps of its quantum): kOp, or
  /// kContext for a folded switch.
  void plan_stepped(ChargeKind kind, sim::SimTime first,
                    sim::SimTime deadline);
  /// No queued competitor for the CPU: high work, daemon work or a ready
  /// process.
  [[nodiscard]] bool alone() const;
  /// The CPU cost of a Compute or Control op; nullopt for other ops.
  static std::optional<sim::SimTime> cpu_cost(const Op& op);
  /// A competitor arrived: a stepped charge must stop at its next boundary,
  /// where the per-quantum callback would find the CPU shared.
  void truncate_chain();
  /// Number of quantum boundaries of the stepped charge strictly before
  /// `next`: the ones the kernel has already stepped past.
  [[nodiscard]] std::int64_t boundaries_before(sim::SimTime next) const;
  /// Replays each boundary before `next` with every side effect of the
  /// per-quantum callback at that boundary. A folded switch whose end is
  /// before `next` is over: its span is recorded and the charge becomes the
  /// kOp charge behind it.
  void settle_chain(sim::SimTime next);
  void on_charge_done();
  /// Cancels an in-flight daemon charge, accounting the elapsed work.
  void interrupt_service();
  /// Applies `amount` of completed daemon CPU to the queue head(s),
  /// firing completions as items finish.
  void consume_service(sim::SimTime amount);
  /// Cancels the in-flight low charge and applies the elapsed work to the
  /// current process; leaves current_ cleared and the process off-queue in
  /// kRunning state for the caller to place (requeue or suspend).
  Process& interrupt_low_charge();
  /// Applies `elapsed` of an interrupted op charge, then requeues current_.
  void preempt_low();
  /// Completes the side effects of the op at current_->pc_ and advances.
  void complete_op(Process& p);
  /// Moves p out of the running state into the back of the ready queue.
  void requeue(Process& p);
  void set_busy(bool b) { busy_tracker_.set_busy(sim_.now(), b); }
  /// Records the in-flight charge's stretch [span_started_, end) as a span.
  void record_span(ChargeKind kind, sim::SimTime end);

  sim::Simulation& sim_;
  net::NodeId node_;
  mem::Mmu& mmu_;
  Params params_;
  SendDispatcher send_dispatcher_;
  obs::Timeline* timeline_ = nullptr;
  obs::TrackId track_ = 0;
  // Pre-interned span/instant names (set_timeline), so recording never
  // hashes a string.
  obs::NameId name_compute_ = 0;
  obs::NameId name_context_ = 0;
  obs::NameId name_high_ = 0;
  obs::NameId name_daemon_ = 0;
  obs::NameId name_exit_ = 0;

  // Ring-buffer FIFOs: these queues churn on every dispatch, and a deque
  // would pay a block allocation every few dozen pushes forever.
  sim::RingQueue<HighWork> high_queue_;
  sim::RingQueue<Process*> low_queue_;
  sim::RingQueue<ServiceWork> service_queue_;
  /// Alternates the low-priority domain between the comm daemon and the
  /// application processes so neither starves the other.
  bool service_turn_ = false;
  Process* current_ = nullptr;      // low process holding the CPU
  Process* last_ran_ = nullptr;     // for context-switch accounting
  sim::SimTime quantum_left_;
  HighWork current_high_;

  sim::EventId charge_event_ = sim::kNoEvent;
  bool pump_scheduled_ = false;
  bool crashed_ = false;
  ChargeKind charge_kind_ = ChargeKind::kNone;
  /// The in-flight charge is stepped (see plan_op and plan_switch).
  bool stepped_ = false;
  /// End of the switch folded in front of the in-flight stepped charge
  /// (plan_switch); the charge is still in that prefix while it is of kind
  /// kContext.
  sim::SimTime switch_end_;
  /// Start of the charge; for a stepped charge, of its unsettled part (for
  /// a folded switch, the switch's end).
  sim::SimTime charge_started_;
  /// Start of the charge's timeline span: settling moves charge_started_
  /// but not this, so a stepped charge is one span. A folded switch's span
  /// starts at the dispatch, its op charge's at the switch's end.
  sim::SimTime span_started_;

  sim::BusyTracker busy_tracker_;
  std::uint64_t service_items_ = 0;
  sim::SimTime service_time_done_;
  std::uint64_t context_switches_ = 0;
  std::uint64_t quantum_expiries_ = 0;
  std::uint64_t high_preemptions_ = 0;
  std::uint64_t high_items_ = 0;
};

}  // namespace tmc::node
