#include "node/comm.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace tmc::node {

CommSystem::CommSystem(sim::Simulation& sim, net::Network& network,
                       std::vector<Transputer*> cpus, Params params)
    : sim_(sim), network_(network), cpus_(std::move(cpus)), params_(params) {
  network_.set_delivery_handler(
      [this](const net::Message& msg, mem::Block buffer) {
        on_delivery(msg, std::move(buffer));
      });
  network_.set_progress_gate([this](const net::Message& msg) {
    return msg.job == 0 || job_active(msg.job);
  });
  network_.set_hop_hook([this](net::NodeId hop, const net::Message& msg,
                               std::size_t bytes) {
    // Transit buffer management + software copy at intermediate nodes; the
    // destination's CPU cost is charged by on_delivery instead.
    if (hop != msg.dst_node) {
      const sim::SimTime cost =
          params_.hop_cpu +
          params_.hop_cpu_per_byte * static_cast<std::int64_t>(bytes);
      cpus_[static_cast<std::size_t>(hop)]->post_service(cost, nullptr);
    }
  });
  for (Transputer* cpu : cpus_) {
    cpu->set_send_dispatcher(
        [this](Process& src, const SendOp& op, mem::Block payload) {
          send_from(src, op, std::move(payload));
        });
  }
}

void CommSystem::open_job(JobId job, std::uint32_t processes) {
  assert(processes > 0 && processes <= 1u << net::kEndpointRankBits);
  if (jobs_.size() <= job) jobs_.resize(job + 1);
  JobWindow& window = jobs_[job];
  assert(window.cap == 0 && "job already holds an endpoint window");
  const auto size_class =
      static_cast<std::size_t>(std::bit_width(processes - 1));
  std::vector<std::uint32_t>& free = free_windows_[size_class];
  window.cap = std::uint32_t{1} << size_class;
  if (free.empty()) {
    window.off = static_cast<std::uint32_t>(slots_.size());
    slots_.resize(slots_.size() + window.cap, nullptr);
  } else {
    window.off = free.back();
    free.pop_back();
  }
}

void CommSystem::register_process(Process& p) {
  assert(p.node() != net::kInvalidNode && "bind process to a node first");
  const auto job = static_cast<std::size_t>(net::endpoint_job(p.id()));
  const auto rank = static_cast<std::uint32_t>(net::endpoint_rank(p.id()));
  if (job >= jobs_.size() || rank >= jobs_[job].cap) {
    throw std::logic_error("endpoint " + std::to_string(p.id()) +
                           " is outside its job's open window");
  }
  JobWindow& window = jobs_[job];
  Process*& slot = slots_[window.off + rank];
  if (slot != nullptr) {
    throw std::logic_error("endpoint " + std::to_string(p.id()) +
                           " already registered");
  }
  slot = &p;
  ++window.live;
}

void CommSystem::unregister_process(net::EndpointId id) {
  const auto job = static_cast<std::size_t>(net::endpoint_job(id));
  const auto rank = static_cast<std::uint32_t>(net::endpoint_rank(id));
  if (job >= jobs_.size() || rank >= jobs_[job].cap) return;
  JobWindow& window = jobs_[job];
  Process*& slot = slots_[window.off + rank];
  if (slot == nullptr) return;
  slot = nullptr;
  if (--window.live == 0) {
    // The job's last endpoint: its (now all-null) window is free for the
    // next job of its size class, and the job's ids resolve to nothing.
    free_windows_[static_cast<std::size_t>(std::countr_zero(window.cap))]
        .push_back(window.off);
    window = JobWindow{};
  }
}

Process* CommSystem::find(net::EndpointId id) const {
  const auto job = static_cast<std::size_t>(net::endpoint_job(id));
  const auto rank = static_cast<std::uint32_t>(net::endpoint_rank(id));
  if (job >= jobs_.size() || rank >= jobs_[job].cap) return nullptr;
  return slots_[jobs_[job].off + rank];
}

std::size_t CommSystem::open_windows() const {
  return static_cast<std::size_t>(
      std::count_if(jobs_.begin(), jobs_.end(),
                    [](const JobWindow& w) { return w.cap != 0; }));
}

void CommSystem::set_job_active(JobId job, bool active) {
  const auto it =
      std::find(suspended_jobs_.begin(), suspended_jobs_.end(), job);
  if (active) {
    if (it != suspended_jobs_.end()) {
      // Membership only -- order is irrelevant, so swap-and-pop.
      *it = suspended_jobs_.back();
      suspended_jobs_.pop_back();
      network_.kick();
    }
  } else if (it == suspended_jobs_.end()) {
    suspended_jobs_.push_back(job);
  }
}

void CommSystem::enable_faults(net::FaultPlane* plane, int retry_budget,
                               sim::SimTime retry_backoff,
                               std::function<double()> jitter,
                               std::function<void(JobId)> on_comm_failure) {
  fault_ = plane;
  retry_budget_ = retry_budget;
  retry_backoff_ = retry_backoff;
  jitter_ = std::move(jitter);
  on_comm_failure_ = std::move(on_comm_failure);
  network_.set_loss_hook(
      [this](const net::Message& msg) { on_loss(msg); });
}

void CommSystem::abort_job(JobId job) {
  if (incarnations_.size() <= job) incarnations_.resize(job + 1, 0);
  ++incarnations_[job];
  // The job may die mid-rotation with its traffic frozen: unfreeze so the
  // now-stale messages drain out of the parked sets and die at delivery
  // instead of pinning transit buffers forever. Nothing else needs a kick:
  // traffic parked on a downed link is kicked by the repair that frees it.
  set_job_active(job, true);
}

void CommSystem::on_loss(const net::Message& msg) {
  if (stale(msg)) {
    ++stale_discards_;
    return;
  }
  if (static_cast<int>(msg.attempts) >= retry_budget_) {
    ++messages_lost_;
    if (on_comm_failure_) on_comm_failure_(static_cast<JobId>(msg.job));
    return;
  }
  ++retries_;
  net::Message retry = msg;
  retry.attempts = static_cast<std::uint16_t>(msg.attempts + 1);
  // Exponential backoff, jittered from the fault library's seeded stream so
  // replays stay bit-identical: backoff * 2^attempts * (1 + jitter).
  const double scale =
      static_cast<double>(std::uint64_t{1} << std::min<unsigned>(msg.attempts, 20));
  const double spread = jitter_ ? jitter_() : 0.0;
  const sim::SimTime delay = sim::SimTime::nanoseconds(static_cast<std::int64_t>(
      retry_backoff_.to_seconds() * scale * (1.0 + spread) * 1e9));
  sim_.schedule(delay, [this, retry] { resend(retry); });
}

void CommSystem::resend(net::Message msg) {
  if (stale(msg)) {
    ++stale_discards_;
    return;
  }
  if (fault_ != nullptr && !fault_->node_alive(msg.src_node)) {
    // The retransmit daemon died with its node; the job abort that follows
    // the crash owns recovery from here.
    ++messages_lost_;
    return;
  }
  msg.id = next_message_id_++;
  if (timeline_ != nullptr) {
    // A fresh flow id: the lost attempt's flow-start stays unpaired (the
    // tooling counts those as fault-truncated flows).
    msg.flow = msg.id;
    timeline_->flow_start(
        node_track_base_ + static_cast<obs::TrackId>(msg.src_node),
        name_send_, sim_.now(), msg.flow, static_cast<double>(msg.job));
  } else {
    msg.flow = 0;
  }
  // The staging copy is not re-modelled: the retransmit daemon resends from
  // the original transit buffer, so the payload rides as accounting only.
  msg.unstaged = true;
  network_.send(msg, mem::Block{});
}

void CommSystem::inject(Process& src, net::EndpointId dst, int tag,
                        std::size_t bytes) {
  send_from(src, SendOp{dst, tag, bytes}, mem::Block{}, /*unstaged=*/true);
}

void CommSystem::send_from(Process& src, const SendOp& op,
                           mem::Block payload, bool unstaged) {
  Process* dst = find(op.dst);
  if (dst == nullptr) {
    if (fault_ != nullptr) {
      // Mid-abort race: force-exiting a process whose charge just completed
      // can fire one last send after its siblings were unregistered.
      ++messages_lost_;
      return;
    }
    throw std::logic_error("send to unregistered endpoint " +
                           std::to_string(op.dst));
  }
  net::Message msg;
  msg.id = next_message_id_++;
  msg.src_node = src.node();
  msg.dst_node = dst->node();
  msg.src_endpoint = src.id();
  msg.dst_endpoint = op.dst;
  msg.job = src.job();
  msg.tag = op.tag;
  msg.bytes = op.bytes;
  msg.unstaged = unstaged;
  if (fault_ != nullptr) {
    msg.incarnation = incarnation(static_cast<JobId>(msg.job));
  }
  if (timeline_ != nullptr) {
    msg.flow = msg.id;
    timeline_->flow_start(
        node_track_base_ + static_cast<obs::TrackId>(msg.src_node),
        name_send_, sim_.now(), msg.flow, static_cast<double>(msg.job));
  }
  ++sends_;
  if (msg.src_node == msg.dst_node) ++self_sends_;
  network_.send(msg, std::move(payload));
}

void CommSystem::finish_delivery(sim::SlotHandle slot) {
  assert(delivery_pool_.live(slot));
  DeliverySlot& d = delivery_pool_[slot.index];
  const net::Message msg = d.msg;
  mem::Block buffer = std::move(d.buffer);
  Process* dst = d.dst;
  // Retire before delivering: the deposit can wake the receiver, whose next
  // receive can trigger another delivery that reuses this slot.
  delivery_pool_.retire(slot.index);
  if (fault_ != nullptr) {
    // The job can be aborted (or the node can die) during the deposit CPU
    // charge: re-resolve the endpoint and re-check liveness before touching
    // the cached process pointer.
    if (stale(msg)) {
      ++stale_discards_;
      return;
    }
    if (find(msg.dst_endpoint) != dst ||
        !fault_->node_alive(msg.dst_node)) {
      on_loss(msg);
      return;
    }
  }
  if (timeline_ != nullptr && msg.flow != 0) {
    timeline_->flow_finish(
        node_track_base_ + static_cast<obs::TrackId>(dst->node()),
        name_recv_, sim_.now(), msg.flow, static_cast<double>(msg.job));
  }
  // Steal-protocol messages are consumed at the destination node by the
  // stealing runtime (which replies by injecting a grant/deny) instead of
  // being deposited into a mailbox. They still paid the full transport and
  // deposit costs above, and the fault re-checks already ran: a stale or
  // crater-addressed steal message never reaches the hook.
  if (steal_hook_ != nullptr && steal_hook_(msg)) return;
  cpus_[static_cast<std::size_t>(dst->node())]->deliver(*dst, msg,
                                                        std::move(buffer));
}

void CommSystem::on_delivery(const net::Message& msg, mem::Block buffer) {
  Process* dst = find(msg.dst_endpoint);
  if (fault_ != nullptr) {
    if (stale(msg)) {
      ++stale_discards_;
      return;  // `buffer` releases on return
    }
    if (dst == nullptr || !fault_->node_alive(msg.dst_node)) {
      // Delivered into a crater: the destination died (or its job was torn
      // down) while the message was in flight. Exactly one loss per
      // message fires here, whatever the transport fragmented it into.
      on_loss(msg);
      return;
    }
  } else if (dst == nullptr) {
    throw std::logic_error("delivery to unregistered endpoint " +
                           std::to_string(msg.dst_endpoint));
  }
  ++deliveries_;
  Transputer* cpu = cpus_[static_cast<std::size_t>(dst->node())];
  const sim::SlotHandle slot = delivery_pool_.acquire();
  delivery_pool_[slot.index] = DeliverySlot{msg, std::move(buffer), dst};
  cpu->post_service(params_.delivery_cpu,
                    [this, slot] { finish_delivery(slot); });
}

}  // namespace tmc::node
