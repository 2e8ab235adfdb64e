// tmcsim -- a schedulable process.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mem/mmu.h"
#include "net/message.h"
#include "node/mailbox.h"
#include "node/program.h"
#include "sim/time.h"

namespace tmc::node {

using JobId = std::uint32_t;
inline constexpr JobId kNoJob = 0xffffffffu;

enum class ProcessState {
  kNew,          // created, not yet made runnable
  kReady,        // in a CPU's low-priority ready queue
  kRunning,      // currently holding the CPU
  kBlockedRecv,  // waiting for a message
  kBlockedMem,   // waiting for an MMU grant
  kSuspended,    // runnable, but its job's gang turn is over
  kDone,         // exited
};

[[nodiscard]] std::string_view to_string(ProcessState s);

/// A process: an op script bound to a node, executed by that node's
/// Transputer under the local scheduling discipline.
///
/// Processes are created by the partition scheduler when a job is dispatched
/// and are never migrated (as in the paper's system). All mutable execution
/// state lives here; the Transputer interprets it.
class Process {
 public:
  Process(net::EndpointId id, JobId job, Program program)
      : id_(id), job_(job), program_(std::move(program)) {}

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] net::EndpointId id() const { return id_; }
  [[nodiscard]] JobId job() const { return job_; }
  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] ProcessState state() const { return state_; }
  [[nodiscard]] bool done() const { return state_ == ProcessState::kDone; }
  /// False while the owning job's gang turn is over (see
  /// Transputer::suspend/resume); a woken process then parks as kSuspended
  /// instead of entering the ready queue.
  [[nodiscard]] bool gang_active() const { return gang_active_; }
  [[nodiscard]] const Program& program() const { return program_; }
  /// Mutable script access for dynamic-control runtimes (see ControlOp):
  /// callbacks running from `complete_op` append the process's next ops
  /// here. Never reorder or erase ops at or before the current pc.
  [[nodiscard]] Program& mutable_program() { return program_; }
  [[nodiscard]] Mailbox& mailbox() { return mailbox_; }
  [[nodiscard]] const Mailbox& mailbox() const { return mailbox_; }

  /// Per-dispatch CPU quantum. The hardware default is 2 ms; time-sharing
  /// policies override it with the RR-job quantum Q = (P/T) * q.
  [[nodiscard]] sim::SimTime quantum() const { return quantum_; }
  void set_quantum(sim::SimTime q) { quantum_ = q; }

  /// Invoked (by the Transputer) when the process exits.
  void set_on_exit(std::function<void(Process&)> cb) { on_exit_ = std::move(cb); }

  /// Placement; set once by the partition scheduler before the process runs.
  void bind_to_node(net::NodeId node) { node_ = node; }

  // --- accounting -------------------------------------------------------
  [[nodiscard]] sim::SimTime cpu_time() const { return cpu_time_; }
  [[nodiscard]] std::uint64_t dispatches() const { return dispatches_; }
  [[nodiscard]] std::uint64_t preemptions() const { return preemptions_; }
  [[nodiscard]] std::size_t held_bytes() const {
    std::size_t total = 0;
    for (const auto& b : held_) total += b.size();
    return total;
  }

 private:
  friend class Transputer;
  friend class EagerTransputer;  // the per-quantum test reference

  /// Per-op interpreter state.
  enum class OpPhase : std::uint8_t {
    kInit,  // op not yet started
    kCopy,  // paying a CPU copy/compute cost (compute_remaining_ counts down)
  };

  net::EndpointId id_;
  JobId job_;
  net::NodeId node_ = net::kInvalidNode;
  Program program_;
  Mailbox mailbox_;

  // Interpreter registers (owned by the Transputer while running).
  std::size_t pc_ = 0;
  OpPhase phase_ = OpPhase::kInit;
  sim::SimTime compute_remaining_;
  mem::Block send_buffer_;                     // staged outgoing buffer
  std::optional<Mailbox::Delivered> staged_;   // matched incoming message
  std::vector<mem::Block> held_;               // job data allocations
  int pending_recv_tag_ = kAnyTag;             // valid while kBlockedRecv

  ProcessState state_ = ProcessState::kNew;
  bool gang_active_ = true;
  sim::SimTime quantum_ = sim::SimTime::milliseconds(2);
  std::function<void(Process&)> on_exit_;

  // Accounting.
  sim::SimTime cpu_time_;
  std::uint64_t dispatches_ = 0;
  std::uint64_t preemptions_ = 0;
};

}  // namespace tmc::node
