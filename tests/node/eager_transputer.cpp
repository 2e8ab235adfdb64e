#include "eager_transputer.h"

#include <algorithm>
#include <cassert>
#include <variant>

namespace tmc::node {

EagerTransputer::EagerTransputer(sim::Simulation& sim, net::NodeId node,
                                 mem::Mmu& mmu, Params params)
    : sim_(sim), node_(node), mmu_(mmu), params_(params) {}

void EagerTransputer::set_timeline(obs::Timeline* timeline,
                                   obs::TrackId track) {
  timeline_ = timeline;
  track_ = track;
  if (timeline_ == nullptr) return;
  name_compute_ = timeline_->intern("compute");
  name_context_ = timeline_->intern("ctx-switch");
  name_high_ = timeline_->intern("high-pri");
  name_daemon_ = timeline_->intern("daemon");
  name_quantum_ = timeline_->intern("quantum-expiry");
  name_exit_ = timeline_->intern("exit");
}

void EagerTransputer::record_charge(ChargeKind kind, sim::SimTime start,
                                    sim::SimTime dur, double value) {
  if (timeline_ == nullptr || dur.is_zero()) return;
  obs::NameId name = name_compute_;
  switch (kind) {
    case ChargeKind::kOp: name = name_compute_; break;
    case ChargeKind::kContext: name = name_context_; break;
    case ChargeKind::kHigh: name = name_high_; break;
    case ChargeKind::kService: name = name_daemon_; break;
    case ChargeKind::kNone: return;
  }
  timeline_->span(track_, name, start, dur, value);
}

void EagerTransputer::make_ready(Process& p) {
  assert(p.node() == node_);
  if (!p.gang_active_) {
    p.state_ = ProcessState::kSuspended;
    return;
  }
  p.state_ = ProcessState::kReady;
  low_queue_.push_back(&p);
  request_dispatch();
}

void EagerTransputer::suspend(Process& p) {
  p.gang_active_ = false;
  switch (p.state_) {
    case ProcessState::kReady:
      low_queue_.erase_value(&p);
      p.state_ = ProcessState::kSuspended;
      return;
    case ProcessState::kRunning:
      interrupt_low_charge().state_ = ProcessState::kSuspended;
      request_dispatch();
      return;
    default:
      return;
  }
}

void EagerTransputer::resume(Process& p) {
  p.gang_active_ = true;
  if (p.state_ == ProcessState::kSuspended) make_ready(p);
}

void EagerTransputer::post_high(sim::SimTime cost,
                                sim::UniqueFunction<void()> done) {
  high_queue_.push_back(HighWork{cost, std::move(done)});
  if (charge_kind_ == ChargeKind::kOp || charge_kind_ == ChargeKind::kContext) {
    preempt_low();
  } else if (charge_kind_ == ChargeKind::kService) {
    interrupt_service();
  }
  request_dispatch();
}

void EagerTransputer::post_service(sim::SimTime cost,
                                   sim::UniqueFunction<void()> done) {
  service_queue_.push_back(ServiceWork{cost, std::move(done)});
  request_dispatch();
}

void EagerTransputer::interrupt_service() {
  const bool cancelled = sim_.cancel(charge_event_);
  assert(cancelled);
  (void)cancelled;
  charge_event_ = sim::kNoEvent;
  charge_kind_ = ChargeKind::kNone;
  record_charge(ChargeKind::kService, charge_started_,
                sim_.now() - charge_started_, 0.0);
  consume_service(sim_.now() - charge_started_);
}

void EagerTransputer::consume_service(sim::SimTime amount) {
  while (!amount.is_zero()) {
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

void EagerTransputer::deliver(Process& receiver, const net::Message& msg,
                              mem::Block buffer) {
  const int tag = msg.tag;
  receiver.mailbox().deposit(msg, std::move(buffer));
  if (receiver.state_ == ProcessState::kBlockedRecv &&
      (receiver.pending_recv_tag_ == kAnyTag ||
       receiver.pending_recv_tag_ == tag)) {
    make_ready(receiver);
  }
}

void EagerTransputer::request_dispatch() {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  sim_.schedule(sim::SimTime::zero(), [this] {
    pump_scheduled_ = false;
    dispatch();
  });
}

void EagerTransputer::restore() {
  crashed_ = false;
  request_dispatch();
}

void EagerTransputer::force_exit(Process& p) {
  switch (p.state_) {
    case ProcessState::kRunning:
      interrupt_low_charge();
      request_dispatch();
      break;
    case ProcessState::kReady:
      low_queue_.erase_value(&p);
      break;
    case ProcessState::kBlockedMem:
      mmu_.cancel_owner(&p);
      break;
    default:
      break;
  }
  if (last_ran_ == &p) last_ran_ = nullptr;
  p.state_ = ProcessState::kDone;
  p.held_.clear();
  p.send_buffer_.release();
  if (p.staged_) {
    p.staged_->buffer.release();
    p.staged_.reset();
  }
}

void EagerTransputer::dispatch() {
  if (charge_event_ != sim::kNoEvent) return;
  if (crashed_) {
    set_busy(false);
    return;
  }
  if (!high_queue_.empty()) {
    current_high_ = std::move(high_queue_.front());
    high_queue_.pop_front();
    plan_charge(ChargeKind::kHigh, current_high_.cost);
    return;
  }
  if (current_ == nullptr) {
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
      plan_charge(ChargeKind::kContext, params_.context_switch);
      return;
    }
  }
  continue_low();
}

void EagerTransputer::continue_low() {
  Process& p = *current_;
  if (crashed_) {
    requeue(p);
    current_ = nullptr;
    set_busy(false);
    return;
  }
  if (!high_queue_.empty()) {
    requeue(p);
    current_ = nullptr;
    dispatch();
    return;
  }
  const Op& op = p.program_.ops[p.pc_];

  if (const auto cost = cpu_cost(op)) {
    if (p.phase_ == Process::OpPhase::kInit) {
      p.compute_remaining_ = *cost;
      p.phase_ = Process::OpPhase::kCopy;
    }
    plan_charge(ChargeKind::kOp, std::min(p.compute_remaining_, quantum_left_));
    return;
  }

  if (const auto* send = std::get_if<SendOp>(&op)) {
    if (p.phase_ == Process::OpPhase::kInit) {
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
    plan_charge(ChargeKind::kOp, std::min(p.compute_remaining_, quantum_left_));
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
    plan_charge(ChargeKind::kOp, std::min(p.compute_remaining_, quantum_left_));
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
  p.held_.clear();
  current_ = nullptr;
  last_ran_ = nullptr;
  if (p.on_exit_) p.on_exit_(p);
  dispatch();
}

void EagerTransputer::plan_charge(ChargeKind kind, sim::SimTime amount) {
  charge_kind_ = kind;
  charge_started_ = sim_.now();
  set_busy(true);
  charge_event_ = sim_.schedule(amount, [this] { on_charge_done(); });
}

std::optional<sim::SimTime> EagerTransputer::cpu_cost(const Op& op) {
  if (const auto* compute = std::get_if<ComputeOp>(&op)) return compute->cost;
  if (const auto* ctl = std::get_if<ControlOp>(&op)) return ctl->cost;
  return std::nullopt;
}

void EagerTransputer::on_charge_done() {
  charge_event_ = sim::kNoEvent;
  const ChargeKind kind = charge_kind_;
  charge_kind_ = ChargeKind::kNone;
  const sim::SimTime amount = sim_.now() - charge_started_;
  record_charge(kind, charge_started_, amount,
                kind == ChargeKind::kOp || kind == ChargeKind::kContext
                    ? static_cast<double>(current_->id())
                    : 0.0);

  switch (kind) {
    case ChargeKind::kHigh: {
      auto done = std::move(current_high_.done);
      if (done) done();
      dispatch();
      return;
    }
    case ChargeKind::kContext:
      continue_low();
      return;
    case ChargeKind::kService:
      consume_service(amount);
      service_turn_ = false;
      dispatch();
      return;
    case ChargeKind::kOp: {
      Process& p = *current_;
      service_turn_ = true;
      p.cpu_time_ += amount;
      p.compute_remaining_ -= amount;
      quantum_left_ -= amount;
      if (p.compute_remaining_.is_zero()) complete_op(p);
      if (std::holds_alternative<ExitOp>(p.program_.ops[p.pc_])) {
        continue_low();
        return;
      }
      if (quantum_left_.is_zero()) {
        ++quantum_expiries_;
        if (timeline_ != nullptr) {
          timeline_->instant(track_, name_quantum_, sim_.now(),
                             static_cast<double>(p.id()));
        }
        if (!low_queue_.empty() || !high_queue_.empty() ||
            !service_queue_.empty()) {
          requeue(p);
          current_ = nullptr;
          dispatch();
          return;
        }
        quantum_left_ = p.quantum();
      }
      continue_low();
      return;
    }
    case ChargeKind::kNone:
      return;
  }
}

Process& EagerTransputer::interrupt_low_charge() {
  const bool cancelled = sim_.cancel(charge_event_);
  assert(cancelled);
  (void)cancelled;
  charge_event_ = sim::kNoEvent;
  const ChargeKind kind = charge_kind_;
  charge_kind_ = ChargeKind::kNone;

  Process& p = *current_;
  ++p.preemptions_;
  record_charge(kind, charge_started_, sim_.now() - charge_started_,
                static_cast<double>(p.id()));
  if (kind == ChargeKind::kContext) {
    last_ran_ = nullptr;
  } else {
    const sim::SimTime elapsed = sim_.now() - charge_started_;
    p.cpu_time_ += elapsed;
    p.compute_remaining_ -= elapsed;
    if (p.compute_remaining_.is_zero() &&
        !std::holds_alternative<ControlOp>(p.program_.ops[p.pc_])) {
      complete_op(p);
    }
  }
  current_ = nullptr;
  return p;
}

void EagerTransputer::preempt_low() {
  ++high_preemptions_;
  requeue(interrupt_low_charge());
}

void EagerTransputer::complete_op(Process& p) {
  const Op& op = p.program_.ops[p.pc_];
  if (const auto* send = std::get_if<SendOp>(&op)) {
    send_dispatcher_(p, *send, std::move(p.send_buffer_));
  } else if (std::holds_alternative<ReceiveOp>(op)) {
    p.staged_->buffer.release();
    p.staged_.reset();
  } else if (const auto* ctl = std::get_if<ControlOp>(&op)) {
    auto action = ctl->action;
    p.phase_ = Process::OpPhase::kInit;
    ++p.pc_;
    if (action) action(p);
    return;
  }
  p.phase_ = Process::OpPhase::kInit;
  ++p.pc_;
}

void EagerTransputer::requeue(Process& p) {
  p.state_ = ProcessState::kReady;
  low_queue_.push_back(&p);
}

}  // namespace tmc::node
