#include "node/transputer.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <variant>

namespace tmc::node {

std::string_view to_string(ProcessState s) {
  switch (s) {
    case ProcessState::kNew: return "new";
    case ProcessState::kReady: return "ready";
    case ProcessState::kRunning: return "running";
    case ProcessState::kBlockedRecv: return "blocked-recv";
    case ProcessState::kBlockedMem: return "blocked-mem";
    case ProcessState::kSuspended: return "suspended";
    case ProcessState::kDone: return "done";
  }
  return "?";
}

Transputer::Transputer(sim::Simulation& sim, net::NodeId node, mem::Mmu& mmu,
                       Params params)
    : sim_(sim), node_(node), mmu_(mmu), params_(params) {}

void Transputer::set_timeline(obs::Timeline* timeline, obs::TrackId track) {
  timeline_ = timeline;
  track_ = track;
  if (timeline_ == nullptr) return;
  name_compute_ = timeline_->intern("compute");
  name_context_ = timeline_->intern("ctx-switch");
  name_high_ = timeline_->intern("high-pri");
  name_daemon_ = timeline_->intern("daemon");
  name_exit_ = timeline_->intern("exit");
}

void Transputer::record_span(ChargeKind kind, sim::SimTime end) {
  if (timeline_ == nullptr || end == span_started_) return;
  obs::NameId name = name_compute_;
  switch (kind) {
    case ChargeKind::kOp: name = name_compute_; break;
    case ChargeKind::kContext: name = name_context_; break;
    case ChargeKind::kHigh: name = name_high_; break;
    case ChargeKind::kService: name = name_daemon_; break;
    case ChargeKind::kNone: return;
  }
  const bool low = kind == ChargeKind::kOp || kind == ChargeKind::kContext;
  timeline_->span(track_, name, span_started_, end - span_started_,
                  low ? static_cast<double>(current_->id()) : 0.0);
}

void Transputer::make_ready(Process& p) {
  assert(p.node() == node_ && "process bound to a different node");
  assert(p.state_ != ProcessState::kReady &&
         p.state_ != ProcessState::kRunning &&
         p.state_ != ProcessState::kDone);
  if (!p.gang_active_) {
    // Runnable, but its job's gang turn is over: park until resume().
    p.state_ = ProcessState::kSuspended;
    return;
  }
  p.state_ = ProcessState::kReady;
  low_queue_.push_back(&p);
  truncate_chain();
  request_dispatch();
}

void Transputer::suspend(Process& p) {
  p.gang_active_ = false;
  switch (p.state_) {
    case ProcessState::kReady:
      low_queue_.erase_value(&p);
      p.state_ = ProcessState::kSuspended;
      return;
    case ProcessState::kRunning: {
      Process& interrupted = interrupt_low_charge();
      assert(&interrupted == &p);
      interrupted.state_ = ProcessState::kSuspended;
      request_dispatch();
      return;
    }
    default:
      // New, blocked, already suspended, or done: the cleared flag makes
      // any future wake park instead of enqueue.
      return;
  }
}

void Transputer::resume(Process& p) {
  p.gang_active_ = true;
  if (p.state_ == ProcessState::kSuspended) make_ready(p);
}

void Transputer::post_high(sim::SimTime cost,
                           sim::UniqueFunction<void()> done) {
  ++high_items_;
  high_queue_.push_back(HighWork{cost, std::move(done)});
  if (charge_kind_ == ChargeKind::kOp || charge_kind_ == ChargeKind::kContext) {
    preempt_low();
  } else if (charge_kind_ == ChargeKind::kService) {
    interrupt_service();
  }
  request_dispatch();
}

void Transputer::post_service(sim::SimTime cost,
                              sim::UniqueFunction<void()> done) {
  ++service_items_;
  service_queue_.push_back(ServiceWork{cost, std::move(done)});
  truncate_chain();
  request_dispatch();
}

void Transputer::interrupt_service() {
  assert(charge_kind_ == ChargeKind::kService);
  const bool cancelled = sim_.cancel(charge_event_);
  assert(cancelled);
  (void)cancelled;
  charge_event_ = sim::kNoEvent;
  charge_kind_ = ChargeKind::kNone;
  record_span(ChargeKind::kService, sim_.now());
  consume_service(sim_.now() - charge_started_);
}

void Transputer::consume_service(sim::SimTime amount) {
  service_time_done_ += amount;
  while (!amount.is_zero()) {
    assert(!service_queue_.empty());
    ServiceWork& head = service_queue_.front();
    const sim::SimTime used = std::min(head.remaining, amount);
    head.remaining -= used;
    amount -= used;
    if (head.remaining.is_zero()) {
      ServiceWork finished = std::move(service_queue_.front());
      service_queue_.pop_front();
      if (finished.done) finished.done();
    }
  }
}

void Transputer::deliver(Process& receiver, const net::Message& msg,
                         mem::Block buffer) {
  assert(!receiver.done() && "message for an exited process");
  const int tag = msg.tag;
  receiver.mailbox().deposit(msg, std::move(buffer));
  if (receiver.state_ == ProcessState::kBlockedRecv &&
      (receiver.pending_recv_tag_ == kAnyTag ||
       receiver.pending_recv_tag_ == tag)) {
    make_ready(receiver);
  }
}

void Transputer::request_dispatch() {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  sim_.schedule(sim::SimTime::zero(), [this] {
    pump_scheduled_ = false;
    dispatch();
  });
}

void Transputer::crash() {
  crashed_ = true;
  truncate_chain();  // the next boundary parks the process
}

void Transputer::restore() {
  crashed_ = false;
  request_dispatch();
}

void Transputer::force_exit(Process& p) {
  assert(p.node() == node_ && "process bound to a different node");
  switch (p.state_) {
    case ProcessState::kRunning: {
      Process& interrupted = interrupt_low_charge();
      assert(&interrupted == &p);
      (void)interrupted;
      request_dispatch();
      break;
    }
    case ProcessState::kReady:
      low_queue_.erase_value(&p);
      break;
    case ProcessState::kBlockedMem:
      // Retract the staged-buffer / allocation request parked in the MMU so
      // its callback never fires into a destroyed process.
      mmu_.cancel_owner(&p);
      break;
    default:
      break;  // new, blocked-recv, suspended, done: nothing queued on the CPU
  }
  if (last_ran_ == &p) last_ran_ = nullptr;
  p.state_ = ProcessState::kDone;
  p.held_.clear();
  p.send_buffer_.release();
  if (p.staged_) {
    p.staged_->buffer.release();
    p.staged_.reset();
  }
  // on_exit_ deliberately NOT fired: the scheduler is unwinding the job.
}

void Transputer::dispatch() {
  if (charge_event_ != sim::kNoEvent) return;  // busy
  if (crashed_) {
    set_busy(false);
    return;  // frozen: nothing starts until restore()
  }
  if (!high_queue_.empty()) {
    // The item stays at the head of its queue until its charge ends.
    plan_charge(ChargeKind::kHigh, high_queue_.front().cost);
    return;
  }
  if (current_ == nullptr) {
    // The comm daemon shares the low-priority domain: it runs when it is
    // its turn (one timeslice per application slice) or when no
    // application process is ready, draining as many queued items as fit.
    if (!service_queue_.empty() && (service_turn_ || low_queue_.empty())) {
      sim::SimTime planned;
      for (std::size_t i = 0; i < service_queue_.size(); ++i) {
        planned += service_queue_[i].remaining;
        if (planned >= params_.daemon_slice) {
          planned = params_.daemon_slice;
          break;
        }
      }
      plan_charge(ChargeKind::kService, planned);
      return;
    }
    if (low_queue_.empty()) {
      set_busy(false);
      return;
    }
    current_ = low_queue_.front();
    low_queue_.pop_front();
    current_->state_ = ProcessState::kRunning;
    ++current_->dispatches_;
    quantum_left_ = current_->quantum();
    if (last_ran_ != current_) {
      last_ran_ = current_;
      ++context_switches_;
      plan_switch(*current_);
      return;
    }
  }
  continue_low();
}

void Transputer::continue_low() {
  assert(current_ != nullptr);
  Process& p = *current_;
  if (crashed_) {
    // The in-flight charge just drained on a crashed CPU: park the process
    // (kReady keeps its op state intact for a restart-free repair) and
    // freeze.
    requeue(p);
    current_ = nullptr;
    set_busy(false);
    return;
  }
  // High-priority work enqueued during op side effects takes the CPU first.
  if (!high_queue_.empty()) {
    requeue(p);
    current_ = nullptr;
    dispatch();
    return;
  }
  assert(p.pc_ < p.program_.ops.size() && "script must end with ExitOp");
  const Op& op = p.program_.ops[p.pc_];

  if (const auto cost = cpu_cost(op)) {
    // A compute burst, or a ControlOp: charged like one (preemptible, spans
    // quanta); its action runs in complete_op once the cost is fully paid.
    if (p.phase_ == Process::OpPhase::kInit) {
      p.compute_remaining_ = *cost;
      p.phase_ = Process::OpPhase::kCopy;
    }
    plan_op(p);
    return;
  }

  if (const auto* send = std::get_if<SendOp>(&op)) {
    if (p.phase_ == Process::OpPhase::kInit) {
      // Stage the outgoing mailbox buffer from the local MMU; the process
      // blocks if node memory is exhausted.
      p.state_ = ProcessState::kBlockedMem;
      current_ = nullptr;
      const std::size_t bytes = std::max<std::size_t>(1, send->bytes);
      mmu_.request(
          bytes,
          [this, &p, payload_bytes = send->bytes](mem::Block block) {
            p.send_buffer_ = std::move(block);
            p.phase_ = Process::OpPhase::kCopy;
            p.compute_remaining_ =
                params_.send_setup +
                params_.copy_per_byte *
                    static_cast<std::int64_t>(payload_bytes);
            make_ready(p);
          },
          &p);
      dispatch();
      return;
    }
    plan_op(p);
    return;
  }

  if (const auto* recv = std::get_if<ReceiveOp>(&op)) {
    if (p.phase_ == Process::OpPhase::kInit) {
      auto delivered = p.mailbox().take(recv->tag);
      if (!delivered) {
        p.state_ = ProcessState::kBlockedRecv;
        p.pending_recv_tag_ = recv->tag;
        current_ = nullptr;
        dispatch();
        return;
      }
      p.phase_ = Process::OpPhase::kCopy;
      p.compute_remaining_ =
          params_.recv_setup +
          params_.copy_per_byte *
              static_cast<std::int64_t>(delivered->message.bytes);
      p.staged_ = std::move(delivered);
    }
    plan_op(p);
    return;
  }

  if (const auto* alloc = std::get_if<AllocOp>(&op)) {
    p.state_ = ProcessState::kBlockedMem;
    current_ = nullptr;
    mmu_.request(
        alloc->bytes,
        [this, &p](mem::Block block) {
          p.held_.push_back(std::move(block));
          p.phase_ = Process::OpPhase::kInit;
          ++p.pc_;
          make_ready(p);
        },
        &p);
    dispatch();
    return;
  }

  assert(std::holds_alternative<ExitOp>(op));
  if (timeline_ != nullptr) {
    timeline_->instant(track_, name_exit_, sim_.now(),
                       static_cast<double>(p.id()));
  }
  p.state_ = ProcessState::kDone;
  p.held_.clear();  // releases job data; may unblock queued MMU requests
  current_ = nullptr;
  last_ran_ = nullptr;  // p may be destroyed by on_exit_
  if (p.on_exit_) p.on_exit_(p);
  dispatch();
}

void Transputer::plan_charge(ChargeKind kind, sim::SimTime amount) {
  assert(charge_event_ == sim::kNoEvent);
  assert(!amount.is_negative());
  charge_kind_ = kind;
  charge_started_ = sim_.now();
  span_started_ = charge_started_;
  set_busy(true);
  charge_event_ = sim_.schedule(amount, [this] { on_charge_done(); });
}

std::optional<sim::SimTime> Transputer::cpu_cost(const Op& op) {
  if (const auto* compute = std::get_if<ComputeOp>(&op)) return compute->cost;
  if (const auto* ctl = std::get_if<ControlOp>(&op)) return ctl->cost;
  return std::nullopt;
}

bool Transputer::alone() const {
  return low_queue_.empty() && high_queue_.empty() && service_queue_.empty();
}

void Transputer::plan_op(Process& p) {
  if (p.compute_remaining_ <= quantum_left_ || !alone()) {
    plan_charge(ChargeKind::kOp,
                std::min(p.compute_remaining_, quantum_left_));
    return;
  }
  // Alone on the CPU, every boundary of this burst would only renew the
  // quantum ("keep running" in on_charge_done) until a competitor arrives,
  // which truncates the charge back to its next boundary. The kernel steps
  // the boundaries with the draws the per-quantum events would make, so
  // event order is unchanged; settle_chain() replays their side effects.
  charge_started_ = sim_.now();
  plan_stepped(ChargeKind::kOp, quantum_left_, p.compute_remaining_);
}

void Transputer::plan_switch(Process& p) {
  const sim::SimTime ctx = params_.context_switch;
  if (ctx <= sim::SimTime::zero() || !stage_cpu_charge(p)) {
    plan_charge(ChargeKind::kContext, ctx);
    return;
  }
  // The op charge the switch's end would plan (plan_op, with the queues as
  // they are now) follows as the same stepped entry: the switch is its
  // first step, which draws the sequence number that charge's schedule
  // would draw, at the same moment. A competitor arriving during the
  // switch truncates the entry to the switch's end, where on_charge_done
  // takes the eager path; an interruption before the step is accounted as
  // an interrupted switch. The entry is a kContext charge until the kernel
  // steps past the switch's end (settle_chain).
  const sim::SimTime run = alone()
                               ? p.compute_remaining_
                               : std::min(p.compute_remaining_, quantum_left_);
  switch_end_ = sim_.now() + ctx;
  charge_started_ = switch_end_;
  plan_stepped(ChargeKind::kContext, ctx, ctx + run);
}

bool Transputer::stage_cpu_charge(Process& p) {
  if (p.phase_ == Process::OpPhase::kInit) {
    // Only a Compute or Control op starts as a pure CPU charge: every other
    // op touches the MMU or the mailbox when it starts.
    const auto cost = cpu_cost(p.program_.ops[p.pc_]);
    if (!cost || *cost <= sim::SimTime::zero()) return false;
    p.compute_remaining_ = *cost;
    p.phase_ = Process::OpPhase::kCopy;
  }
  return p.compute_remaining_ > sim::SimTime::zero();
}

void Transputer::plan_stepped(ChargeKind kind, sim::SimTime first,
                              sim::SimTime deadline) {
  assert(charge_event_ == sim::kNoEvent);
  charge_kind_ = kind;
  span_started_ = sim_.now();
  stepped_ = true;
  set_busy(true);
  charge_event_ = sim_.schedule_stepped(first, current_->quantum(), deadline,
                                        [this] { on_charge_done(); });
}

void Transputer::truncate_chain() {
  if (stepped_) sim_.truncate(charge_event_);
}

std::int64_t Transputer::boundaries_before(sim::SimTime next) const {
  const sim::SimTime first = charge_started_ + quantum_left_;
  if (next <= first) return 0;
  const std::int64_t q = current_->quantum().ns();
  return ((next - first).ns() + q - 1) / q;
}

void Transputer::settle_chain(sim::SimTime next) {
  if (charge_kind_ == ChargeKind::kContext) {
    // A folded switch ends when the kernel steps past its end; from there
    // on the entry is the op charge behind it.
    if (next == switch_end_) return;
    record_span(ChargeKind::kContext, switch_end_);
    charge_kind_ = ChargeKind::kOp;
    span_started_ = switch_end_;
  }
  const std::int64_t n = boundaries_before(next);
  if (n == 0) return;
  // n times the alone-on-the-CPU path of on_charge_done, in one go.
  Process& p = *current_;
  const sim::SimTime ran = quantum_left_ + p.quantum() * (n - 1);
  p.cpu_time_ += ran;
  p.compute_remaining_ -= ran;
  charge_started_ += ran;
  quantum_left_ = p.quantum();
  quantum_expiries_ += static_cast<std::uint64_t>(n);
  service_turn_ = true;
}

void Transputer::settle() {
  if (stepped_) settle_chain(sim_.pending_time(charge_event_));
}

std::uint64_t Transputer::quantum_expiries() const {
  if (!stepped_) return quantum_expiries_;
  return quantum_expiries_ + static_cast<std::uint64_t>(boundaries_before(
                                 sim_.pending_time(charge_event_)));
}

void Transputer::on_charge_done() {
  charge_event_ = sim::kNoEvent;
  if (stepped_) {
    stepped_ = false;
    // The kernel stepped every boundary before now. A folded switch
    // truncated before its first step stays a kContext charge: only the
    // switch ran.
    settle_chain(sim_.now());
  }
  const ChargeKind kind = charge_kind_;
  charge_kind_ = ChargeKind::kNone;
  const sim::SimTime amount = sim_.now() - charge_started_;
  record_span(kind, sim_.now());

  switch (kind) {
    case ChargeKind::kHigh: {
      auto done = std::move(high_queue_.front().done);
      high_queue_.pop_front();
      if (done) done();
      dispatch();
      return;
    }
    case ChargeKind::kContext:
      continue_low();
      return;
    case ChargeKind::kService: {
      consume_service(amount);
      service_turn_ = false;  // applications get the next slice
      dispatch();
      return;
    }
    case ChargeKind::kOp: {
      Process& p = *current_;
      service_turn_ = true;  // the daemon may take a slice at the next gap
      p.cpu_time_ += amount;
      p.compute_remaining_ -= amount;
      quantum_left_ -= amount;
      if (p.compute_remaining_.is_zero()) complete_op(p);
      // A process whose next op is Exit terminates now rather than riding
      // the ready queue for another round: termination is part of the same
      // instruction stream as the final burst.
      if (std::holds_alternative<ExitOp>(p.program_.ops[p.pc_])) {
        continue_low();
        return;
      }
      if (quantum_left_.is_zero()) {
        ++quantum_expiries_;
        if (!low_queue_.empty() || !high_queue_.empty() ||
            !service_queue_.empty()) {
          // The T805 puts the expired process at the back of the ready queue.
          requeue(p);
          current_ = nullptr;
          dispatch();
          return;
        }
        quantum_left_ = p.quantum();  // alone on the CPU: keep running
      }
      continue_low();
      return;
    }
    case ChargeKind::kNone:
      assert(false && "charge completion with no charge in flight");
      return;
  }
}

Process& Transputer::interrupt_low_charge() {
  assert(charge_kind_ == ChargeKind::kOp ||
         charge_kind_ == ChargeKind::kContext);
  // After settling, a folded switch whose first step is still pending is
  // a switch in progress, whichever order same-instant events at its end
  // arrive in.
  settle();
  stepped_ = false;
  const bool cancelled = sim_.cancel(charge_event_);
  assert(cancelled);
  (void)cancelled;
  charge_event_ = sim::kNoEvent;
  const ChargeKind kind = charge_kind_;
  charge_kind_ = ChargeKind::kNone;

  Process& p = *current_;
  ++p.preemptions_;
  record_span(kind, sim_.now());
  if (kind == ChargeKind::kContext) {
    // The interrupted context switch must be paid again later.
    last_ran_ = nullptr;
  } else {
    const sim::SimTime elapsed = sim_.now() - charge_started_;
    p.cpu_time_ += elapsed;
    p.compute_remaining_ -= elapsed;
    // The unfinished quantum is lost (T805 semantics); no need to track it.
    // A ControlOp is never completed here: its action must not run on the
    // interrupt path (a force_exit-driven abort would otherwise execute
    // application logic mid-teardown). A zero-remaining ControlOp instead
    // completes via a zero-length recharge at its next dispatch.
    if (p.compute_remaining_.is_zero() &&
        !std::holds_alternative<ControlOp>(p.program_.ops[p.pc_])) {
      complete_op(p);
    }
  }
  current_ = nullptr;
  return p;
}

void Transputer::preempt_low() {
  ++high_preemptions_;
  Process& p = interrupt_low_charge();
  requeue(p);
}

void Transputer::complete_op(Process& p) {
  const Op& op = p.program_.ops[p.pc_];
  if (const auto* send = std::get_if<SendOp>(&op)) {
    assert(send_dispatcher_ && "no send dispatcher installed");
    send_dispatcher_(p, *send, std::move(p.send_buffer_));
  } else if (std::holds_alternative<ReceiveOp>(op)) {
    assert(p.staged_.has_value());
    p.staged_->buffer.release();
    p.staged_.reset();
  } else if (const auto* ctl = std::get_if<ControlOp>(&op)) {
    // Copy the callback first: it appends ops, which may reallocate the
    // vector and invalidate `op`/`ctl`. Advance past the ControlOp before
    // invoking so the action sees a consistent pc and may append the next
    // ops (including an immediate ExitOp).
    auto action = ctl->action;
    p.phase_ = Process::OpPhase::kInit;
    ++p.pc_;
    if (action) action(p);
    assert(p.pc_ < p.program_.ops.size() &&
           "ControlOp action must leave a next op (script ends with ExitOp)");
    return;
  }
  p.phase_ = Process::OpPhase::kInit;
  ++p.pc_;
}

void Transputer::requeue(Process& p) {
  assert(p.state_ != ProcessState::kDone);
  p.state_ = ProcessState::kReady;
  low_queue_.push_back(&p);
}

}  // namespace tmc::node
