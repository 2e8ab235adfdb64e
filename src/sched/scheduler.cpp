#include "sched/scheduler.h"

#include "obs/job_trace.h"

namespace tmc::sched {

void Scheduler::submit(Job& job) {
  job.mark_arrival(sim_.now());
  if (job_tracer_ != nullptr) {
    job_tracer_->arrival(job.id(), job.spec().job_class, sim_.now());
  }
  ++submitted_;
  queue_.push_back(&job);
  pump();
}

void Scheduler::finish(Job& job) {
  ++completed_;
  if (observer_) observer_(job);
  pump();
}

void Scheduler::handle_aborted(Job& job) {
  if (job.restarts() < restart_budget_) {
    job.count_restart();
    ++job_restarts_;
    // Restart ahead of new arrivals: the job already waited its turn once.
    queue_.push_front(&job);
    return;
  }
  ++jobs_failed_;
  job.mark_failed();
  job.mark_completion(sim_.now());
  if (job_tracer_ != nullptr) job_tracer_->completion(job.id(), sim_.now());
  ++completed_;
  if (observer_) observer_(job);
}

}  // namespace tmc::sched
