// tmcsim -- top-level scheduler interface.
//
// The experiment harness talks to the system scheduler through this
// interface; SuperScheduler implements the paper's three policies over
// fixed equal partitions, AdaptiveScheduler the buddy-allocated adaptive
// space-sharing extension. The base owns the job lifecycle both share --
// the FCFS queue, submission, completion and fault restarts -- so each
// subclass supplies only its placement (pump) and its fault topology.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "sched/job.h"
#include "sim/simulation.h"

namespace tmc::obs {
class JobTracer;
}

namespace tmc::sched {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Submits a job (arrival instant = now): it joins the FCFS queue and is
  /// dispatched as the placement allows.
  void submit(Job& job);

  [[nodiscard]] std::size_t queued_jobs() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }

  [[nodiscard]] bool all_done() const {
    return queued_jobs() == 0 && completed() == submitted();
  }

  /// Observer invoked after each job completes (for the harness).
  void set_completion_observer(std::function<void(Job&)> observer) {
    observer_ = std::move(observer);
  }

  /// Optional per-job lifecycle tracer (null = off). The machine installs
  /// one only when a timeline is recording; implementations forward it to
  /// their partition schedulers, which emit the phase spans.
  virtual void set_job_tracer(obs::JobTracer* tracer) { job_tracer_ = tracer; }

  // --- fault mode ---------------------------------------------------------
  // All no-ops by default so fault-free runs (and schedulers that predate
  // the fault layer) are untouched. The machine wires these to the fault
  // manager's heartbeat detector and the comm system's retry machinery.

  /// Arms failure-aware scheduling: a job torn down by a failure is
  /// restarted from its queue up to `restart_budget` times before being
  /// declared failed (failed jobs still count as completed for all_done).
  /// Overrides add their fault topology and call this first.
  virtual void enable_fault_mode(int restart_budget) {
    restart_budget_ = restart_budget;
  }
  /// A heartbeat round detected `node` as newly dead / newly repaired.
  virtual void on_node_down(net::NodeId node) { (void)node; }
  virtual void on_node_up(net::NodeId node) { (void)node; }
  /// The comm layer exhausted a message's retry budget for this job.
  virtual void on_job_comm_failure(JobId job) { (void)job; }

  /// Jobs whose restart budget ran out (they count as completed).
  [[nodiscard]] std::uint64_t jobs_failed() const { return jobs_failed_; }
  /// Fault-triggered restarts performed across all jobs.
  [[nodiscard]] std::uint64_t job_restarts() const { return job_restarts_; }

 protected:
  explicit Scheduler(sim::Simulation& sim) : sim_(sim) {}

  /// Dispatches queued jobs (front first) while the placement has room.
  virtual void pump() = 0;
  /// Counts a finished job, tells the observer, and pumps the queue.
  void finish(Job& job);
  /// Requeues a fault-aborted job ahead of new arrivals while its restart
  /// budget lasts; otherwise fails it (a failed job counts as completed).
  void handle_aborted(Job& job);

  sim::Simulation& sim_;
  std::deque<Job*> queue_;
  std::function<void(Job&)> observer_;
  obs::JobTracer* job_tracer_ = nullptr;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  int restart_budget_ = 0;
  std::uint64_t jobs_failed_ = 0;
  std::uint64_t job_restarts_ = 0;
};

}  // namespace tmc::sched
