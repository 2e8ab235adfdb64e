// tmcsim -- the mailbox-based asynchronous communication system.
//
// The paper's software stack (section 3.2) layers a mailbox communication
// package over the Transputer's adjacent-link channels so that any pair of
// processes can exchange messages. CommSystem is that package: it maps
// endpoint ids to processes, frames messages, injects them into the
// transport, charges per-hop and per-delivery CPU costs (as high-priority
// work, which preempts application processes -- a real overhead the paper
// measures), and deposits arrivals into the destination mailbox. Self-sends
// traverse the same buffered path, as the paper notes they must.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "mem/mmu.h"
#include "net/network.h"
#include "node/process.h"
#include "node/transputer.h"
#include "obs/timeline.h"
#include "sim/simulation.h"
#include "sim/slot_pool.h"

namespace tmc::node {

struct CommParams {
  /// CPU charged at each intermediate node for store-and-forward buffer
  /// management (comm-daemon work, sharing the CPU at low priority).
  sim::SimTime hop_cpu = sim::SimTime::microseconds(20);
  /// Per-byte CPU charged at each intermediate node: store-and-forward on
  /// the T805 is software -- the forwarding node's processor copies the
  /// message between link buffers and shares its memory bus with the link
  /// DMA engines (~4 MB/s effective). This is a real, load-dependent cost:
  /// it steals cycles from busy nodes, which is precisely why heavy
  /// multiprogramming suffers on long-diameter topologies (paper 5.2).
  sim::SimTime hop_cpu_per_byte = sim::SimTime::nanoseconds(250);
  /// CPU charged at the destination node to deposit into the mailbox.
  sim::SimTime delivery_cpu = sim::SimTime::microseconds(20);
};

class CommSystem {
 public:
  using Params = CommParams;

  /// `cpus[i]` must be node i's Transputer. Installs itself as every CPU's
  /// send dispatcher and as the network's delivery handler / hop hook.
  CommSystem(sim::Simulation& sim, net::Network& network,
             std::vector<Transputer*> cpus, Params params = {});

  CommSystem(const CommSystem&) = delete;
  CommSystem& operator=(const CommSystem&) = delete;

  /// Processes must be registered (after node binding) before any message
  /// addressed to them is sent.
  void register_process(Process& p);
  void unregister_process(net::EndpointId id);
  [[nodiscard]] Process* find(net::EndpointId id) const;

  /// Coscheduling hook: while a job is marked inactive its messages stop
  /// progressing through the network (parking where they are and pinning
  /// their buffers); marking it active again kicks its parked units loose,
  /// while jobs still frozen keep theirs parked, unretried. Called by the
  /// partition schedulers on gang turn boundaries.
  void set_job_active(JobId job, bool active);
  [[nodiscard]] bool job_active(JobId job) const {
    return std::find(suspended_jobs_.begin(), suspended_jobs_.end(), job) ==
           suspended_jobs_.end();
  }

  // --- fault mode ---------------------------------------------------------
  /// Arms delivery timeouts and bounded retry (core layer wiring). The fault
  /// plane answers liveness questions; a message lost to a fault is resent
  /// up to `retry_budget` times with exponential backoff (`retry_backoff`
  /// doubling per attempt, scaled by 1 + jitter() from a seeded stream)
  /// before `on_comm_failure(job)` declares the job's communication broken.
  void enable_faults(net::FaultPlane* plane, int retry_budget,
                     sim::SimTime retry_backoff,
                     std::function<double()> jitter,
                     std::function<void(JobId)> on_comm_failure);

  /// Fault-mode job teardown: bumps the job's incarnation so in-flight
  /// messages and queued resends addressed to its old life die quietly at
  /// delivery, and unfreezes its traffic so its parked units drain.
  void abort_job(JobId job);

  /// Resends attempted after a fault-induced loss.
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  /// Messages abandoned after exhausting the retry budget (or orphaned by a
  /// dead source).
  [[nodiscard]] std::uint64_t messages_lost() const { return messages_lost_; }
  /// Deliveries/resends discarded because their job was restarted.
  [[nodiscard]] std::uint64_t stale_discards() const { return stale_discards_; }

  /// Optional timeline recorder (null = off): every send stamps its message
  /// with a flow id and records a flow-start on the source node's track;
  /// the mailbox deposit records the matching flow-finish on the
  /// destination's, drawing the send->receive causality arrow in Perfetto.
  /// `node_track_base` is node 0's TrackId (node tracks are contiguous).
  void set_timeline(obs::Timeline* timeline, obs::TrackId node_track_base) {
    timeline_ = timeline;
    node_track_base_ = node_track_base;
    if (timeline_ != nullptr) {
      name_send_ = timeline_->intern("msg-send");
      name_recv_ = timeline_->intern("msg-recv");
    }
  }

  /// Work-stealing runtime hook (core layer wiring): invoked once per
  /// delivered message after the mailbox-deposit CPU charge and the fault
  /// liveness/staleness re-checks, immediately before the mailbox deposit.
  /// Returning true consumes the message (the steal protocol handled it at
  /// the destination node); false deposits it normally. Null (the default)
  /// is one untaken branch per delivery.
  void set_steal_hook(std::function<bool(const net::Message&)> hook) {
    steal_hook_ = std::move(hook);
  }

  /// Sends a message on behalf of `src` without `src` executing a SendOp.
  /// The stealing runtime's grant/deny replies originate at the victim's
  /// endpoint (its node, its incarnation, a real flow-start) but are
  /// produced by the delivery interceptor, not the victim's script; like
  /// fault resends the payload rides as accounting only -- transit and
  /// delivery costs are still charged from `bytes`.
  void inject(Process& src, net::EndpointId dst, int tag, std::size_t bytes);

  [[nodiscard]] std::uint64_t sends() const { return sends_; }
  [[nodiscard]] std::uint64_t self_sends() const { return self_sends_; }
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] const Params& params() const { return params_; }

  /// Messages currently waiting in registered processes' mailboxes
  /// (machine-wide mailbox queue depth; sampled by the obs layer).
  [[nodiscard]] std::size_t pending_mailbox_messages() const {
    std::size_t total = 0;
    for (const Process* p : slots_) {
      if (p != nullptr) total += p->mailbox().size();
    }
    return total;
  }
  /// Node memory pinned by those undelivered messages, in bytes.
  [[nodiscard]] std::size_t pending_mailbox_bytes() const {
    std::size_t total = 0;
    for (const Process* p : slots_) {
      if (p != nullptr) total += p->mailbox().buffered_bytes();
    }
    return total;
  }

 private:
  /// A delivered message parked while the destination CPU charges the
  /// mailbox-deposit cost. Pooled so the daemon work item captures only
  /// {this, handle} inline -- deliveries allocate nothing once the pool is
  /// warm.
  struct DeliverySlot {
    net::Message msg;
    mem::Block buffer;
    Process* dst = nullptr;
  };

  /// `unstaged` marks a send with no source buffer (see net::Message).
  void send_from(Process& src, const SendOp& op, mem::Block payload,
                 bool unstaged = false);
  void on_delivery(const net::Message& msg, mem::Block buffer);
  void finish_delivery(sim::SlotHandle slot);
  [[nodiscard]] std::uint32_t incarnation(JobId job) const {
    return job < incarnations_.size() ? incarnations_[job] : 0;
  }
  [[nodiscard]] bool stale(const net::Message& msg) const {
    return fault_ != nullptr &&
           msg.incarnation != incarnation(static_cast<JobId>(msg.job));
  }
  /// Loss reaction: schedule a backoff resend or declare comm failure.
  void on_loss(const net::Message& msg);
  void resend(net::Message msg);

  sim::Simulation& sim_;
  net::Network& network_;
  std::vector<Transputer*> cpus_;
  Params params_;
  /// Endpoint registry indexed [job][rank] via the canonical EndpointId
  /// encoding. JobIds are assigned densely by the workload generators and
  /// ranks are dense per job, so a per-job {offset, capacity} window into
  /// one flat slot arena resolves every send and delivery without hashing
  /// -- and without a heap vector per job. Windows grow geometrically by
  /// relocating to the arena tail (abandoned blocks are nulled; at 1024
  /// nodes the arena is one contiguous allocation instead of ~70 vectors).
  struct JobWindow {
    std::uint32_t off = 0;
    std::uint32_t cap = 0;
  };
  void grow_window(JobWindow& window, std::uint32_t need);
  std::vector<JobWindow> jobs_;
  std::vector<Process*> slots_;
  /// Jobs whose communication is frozen. At most the machine's total
  /// multiprogramming level entries, toggled on every gang turn: a flat
  /// vector with linear membership checks never allocates once warm, where
  /// a node-based set paid an allocation per suspension.
  std::vector<JobId> suspended_jobs_;
  sim::SlotPool<DeliverySlot> delivery_pool_;
  net::FaultPlane* fault_ = nullptr;
  int retry_budget_ = 0;
  sim::SimTime retry_backoff_;
  std::function<double()> jitter_;
  std::function<void(JobId)> on_comm_failure_;
  /// Per-job incarnation counters (dense job ids; grown only by abort_job,
  /// absent entries read as incarnation 0).
  std::vector<std::uint32_t> incarnations_;
  std::uint64_t retries_ = 0;
  std::uint64_t messages_lost_ = 0;
  std::uint64_t stale_discards_ = 0;
  std::function<bool(const net::Message&)> steal_hook_;
  obs::Timeline* timeline_ = nullptr;
  obs::TrackId node_track_base_ = 0;
  obs::NameId name_send_ = 0;
  obs::NameId name_recv_ = 0;
  std::uint64_t next_message_id_ = 1;
  std::uint64_t sends_ = 0;
  std::uint64_t self_sends_ = 0;
  std::uint64_t deliveries_ = 0;
};

}  // namespace tmc::node
