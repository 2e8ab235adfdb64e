// tmcsim -- per-partition scheduler (middle tier of the paper's hierarchy).
//
// The partition scheduler owns the processors of one partition. When the
// super scheduler hands it a job it instantiates the job's processes (the
// adaptive architecture's builder sees the partition size here -- the
// "processors allocated" run-time call), assigns the RR-job quantum under
// the time-sharing policies, places processes round-robin over the
// partition's CPUs, and notifies the local schedulers (the Transputers'
// ready queues). It tears the job down when the last process exits.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "node/comm.h"
#include "node/transputer.h"
#include "obs/job_trace.h"
#include "obs/timeline.h"
#include "sched/job.h"
#include "sched/partition.h"
#include "sched/policy.h"
#include "sim/simulation.h"

namespace tmc::sched {

struct PartitionSchedParams {
  /// High-priority CPU charged on each node a process is placed on,
  /// modelling the partition/local scheduler software overhead.
  sim::SimTime dispatch_overhead = sim::SimTime::microseconds(100);
  /// Software cost of a gang switch, charged on every partition CPU when
  /// the rotation advances (partition scheduler messages to the local
  /// schedulers plus ready-queue surgery on a 25 MHz CPU).
  sim::SimTime gang_switch_overhead = sim::SimTime::microseconds(500);
  /// The paper's system maps rank i of every job to partition processor i,
  /// so under time-sharing all coordinators (rank 0) stack on the same node
  /// -- which is why the job sizes had to be restricted to just fit MPL 16
  /// in 4 MB, and a major source of the memory and link contention the
  /// paper measures. Set true to rotate each job's placement instead (the
  /// smarter-placement extension studied by bench A7).
  bool rotate_placement = false;
};

class PartitionScheduler {
 public:
  using CompletionHandler = std::function<void(PartitionScheduler&, Job&)>;
  using Params = PartitionSchedParams;

  /// `cpus[i]` must be node i's Transputer: the whole machine's table, not
  /// the partition's, since processes are placed by machine node id. The
  /// scheduler keeps a view of it, so every partition shares one table and
  /// its owner must outlive the scheduler.
  PartitionScheduler(sim::Simulation& sim, Partition partition,
                     std::span<node::Transputer* const> cpus,
                     node::CommSystem& comm, PolicyConfig policy,
                     Params params = {});

  PartitionScheduler(const PartitionScheduler&) = delete;
  PartitionScheduler& operator=(const PartitionScheduler&) = delete;

  void set_completion_handler(CompletionHandler handler) {
    on_complete_ = std::move(handler);
  }

  /// Optional timeline recorder (null = off): job admissions, completions
  /// and gang switches become instants on `track` (value = job id).
  void set_timeline(obs::Timeline* timeline, obs::TrackId track) {
    timeline_ = timeline;
    track_ = track;
    if (timeline_ != nullptr) {
      name_admit_ = timeline_->intern("admit");
      name_complete_ = timeline_->intern("job-complete");
      name_gang_ = timeline_->intern("gang-switch");
    }
  }

  /// Optional per-job lifecycle tracer (null = off): admissions open the
  /// dispatch span, gang turns open/close run and rotation spans, teardown
  /// closes the job. Shares the machine-wide tracer installed through
  /// Scheduler::set_job_tracer.
  void set_job_tracer(obs::JobTracer* tracer) { job_tracer_ = tracer; }

  /// Accepts a job for immediate execution in this partition. Under the
  /// time-sharing policies several jobs may be active at once.
  void admit(Job& job);

  // --- fault path ---------------------------------------------------------
  /// Tears `job` down without a completion: force-exits its processes off
  /// the CPUs, retracts its in-flight communication (incarnation bump) and
  /// releases its slot. The job must be resident; what happens to it next
  /// (requeue or permanent failure) is the caller's decision.
  void abort_job(Job& job);
  /// Aborts every resident job (the partition lost a node), appending them
  /// to `doomed` for the caller to requeue or fail.
  void abort_all(std::vector<Job*>& doomed);
  /// Resident job lookup (nullptr if the job does not run here).
  [[nodiscard]] Job* find_resident(JobId id) const;

  [[nodiscard]] const Partition& partition() const { return partition_; }
  [[nodiscard]] int active_jobs() const { return active_; }
  [[nodiscard]] int peak_multiprogramming() const { return peak_mpl_; }
  [[nodiscard]] std::uint64_t jobs_completed() const { return completed_; }

  /// Job whose gang turn is running (nullptr when idle or not gang-mode).
  [[nodiscard]] const Job* gang_current() const { return gang_current_; }
  [[nodiscard]] std::uint64_t gang_switches() const { return gang_switches_; }

 private:
  void on_process_exit(Job& job);
  void teardown(Job& job);

  // --- gang rotation (time-shared policies) ------------------------------
  [[nodiscard]] bool gang_mode() const {
    return policy_.time_shared() && policy_.gang_scheduling;
  }
  void gang_start_turn(Job& job, bool charge_switch);
  void gang_end_turn();
  void gang_set_active(Job& job, bool active);
  void gang_leave(Job& job);

  sim::Simulation& sim_;
  Partition partition_;
  std::span<node::Transputer* const> cpus_;
  node::CommSystem& comm_;
  PolicyConfig policy_;
  Params params_;
  CompletionHandler on_complete_;
  obs::Timeline* timeline_ = nullptr;
  obs::JobTracer* job_tracer_ = nullptr;
  obs::TrackId track_ = 0;
  obs::NameId name_admit_ = 0;
  obs::NameId name_complete_ = 0;
  obs::NameId name_gang_ = 0;

  /// Outstanding process count per resident job. A partition hosts at most
  /// set_size jobs, so a flat array beats hashing (and never allocates once
  /// its capacity covers the multiprogramming level).
  std::vector<std::pair<Job*, int>> live_processes_;
  /// Round-robin ring of resident jobs and the current turn.
  std::vector<Job*> gang_ring_;
  std::size_t gang_index_ = 0;
  Job* gang_current_ = nullptr;
  sim::EventId gang_timer_ = sim::kNoEvent;
  std::uint64_t gang_switches_ = 0;
  /// Rotates each admitted job's rank-0 placement across the partition so
  /// coordinators of multiprogrammed jobs do not pile onto one node.
  int placement_rotation_ = 0;
  int active_ = 0;
  int peak_mpl_ = 0;
  std::uint64_t completed_ = 0;
};

}  // namespace tmc::sched
