#include "sched/partition_scheduler.h"
#include <algorithm>

#include <cassert>
#include <stdexcept>
#include <utility>

namespace tmc::sched {

std::string_view to_string(SoftwareArch arch) {
  switch (arch) {
    case SoftwareArch::kFixed: return "fixed";
    case SoftwareArch::kAdaptive: return "adaptive";
    case SoftwareArch::kStealing: return "stealing";
  }
  return "?";
}

std::string_view to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kStatic: return "static";
    case PolicyKind::kTimeSharing: return "time-sharing";
    case PolicyKind::kHybrid: return "hybrid";
    case PolicyKind::kAdaptiveStatic: return "adaptive-static";
  }
  return "?";
}

PartitionScheduler::PartitionScheduler(sim::Simulation& sim,
                                       Partition partition,
                                       std::span<node::Transputer* const> cpus,
                                       node::CommSystem& comm,
                                       PolicyConfig policy, Params params)
    : sim_(sim),
      partition_(std::move(partition)),
      cpus_(cpus),
      comm_(comm),
      policy_(policy),
      params_(params) {}

void PartitionScheduler::admit(Job& job) {
  job.mark_dispatch(sim_.now());
  ++active_;
  peak_mpl_ = std::max(peak_mpl_, active_);
  if (timeline_ != nullptr) {
    timeline_->instant(track_, name_admit_, sim_.now(),
                       static_cast<double>(job.id()));
  }
  if (job_tracer_ != nullptr) job_tracer_->dispatch(job.id(), sim_.now());

  auto programs = job.spec().builder(job, partition_.size());
  if (programs.empty()) {
    throw std::logic_error("job " + std::to_string(job.id()) +
                           " built no processes");
  }
  const int procs = static_cast<int>(programs.size());
  live_processes_.emplace_back(&job, procs);

  const sim::SimTime quantum =
      policy_.time_shared()
          ? policy_.rr_job_quantum(partition_.size(), procs)
          : policy_.min_quantum;  // hardware timeslice under space-sharing

  const int rotation = params_.rotate_placement ? placement_rotation_++ : 0;
  job.processes().reserve(static_cast<std::size_t>(procs));
  comm_.open_job(job.id(), static_cast<std::uint32_t>(procs));
  for (int rank = 0; rank < procs; ++rank) {
    auto process = std::make_unique<node::Process>(
        endpoint_of(job.id(), rank), job.id(), std::move(programs[static_cast<std::size_t>(rank)]));
    const net::NodeId node = partition_.node_for_rank(rank + rotation);
    process->bind_to_node(node);
    process->set_quantum(quantum);
    process->set_on_exit([this, &job](node::Process&) { on_process_exit(job); });
    comm_.register_process(*process);
    job.processes().push_back(std::move(process));
  }
  // Placement: notify each local scheduler. The scheduler software itself
  // costs CPU, charged as high-priority work on the target node.
  const bool gang = gang_mode();
  for (auto& process : job.processes()) {
    node::Transputer* cpu = cpus_[static_cast<std::size_t>(process->node())];
    if (!params_.dispatch_overhead.is_zero()) {
      cpu->post_high(params_.dispatch_overhead, nullptr);
    }
    // Under gang rotation a job is admitted parked; its first turn (or the
    // sole-job fast path below) resumes it.
    if (gang) cpu->suspend(*process);
    cpu->make_ready(*process);
  }
  // Space-sharing runs the job from placement to completion: its single
  // service span opens here. Gang mode opens one per turn instead.
  if (!gang && job_tracer_ != nullptr) {
    job_tracer_->run_begin(job.id(), sim_.now());
  }
  if (gang) {
    gang_ring_.push_back(&job);
    if (gang_current_ == nullptr) {
      gang_index_ = gang_ring_.size() - 1;
      gang_start_turn(job, /*charge_switch=*/false);
    } else if (gang_timer_ == sim::kNoEvent && gang_ring_.size() > 1) {
      // The running job was alone (no rotation armed); give it one more
      // quantum from now, then rotate.
      gang_timer_ = sim_.schedule(policy_.basic_quantum,
                                  [this] { gang_end_turn(); });
    }
  }
}

void PartitionScheduler::gang_set_active(Job& job, bool active) {
  // Freeze/thaw the job's in-flight communication along with its processes.
  comm_.set_job_active(job.id(), active);
  for (auto& process : job.processes()) {
    node::Transputer* cpu = cpus_[static_cast<std::size_t>(process->node())];
    if (active) {
      cpu->resume(*process);
    } else {
      cpu->suspend(*process);
    }
  }
}

void PartitionScheduler::gang_start_turn(Job& job, bool charge_switch) {
  gang_current_ = &job;
  if (job_tracer_ != nullptr) job_tracer_->run_begin(job.id(), sim_.now());
  if (charge_switch) {
    ++gang_switches_;
    if (timeline_ != nullptr) {
      timeline_->instant(track_, name_gang_, sim_.now(),
                         static_cast<double>(job.id()));
    }
    if (!params_.gang_switch_overhead.is_zero()) {
      for (const net::NodeId node : partition_.nodes) {
        cpus_[static_cast<std::size_t>(node)]->post_high(
            params_.gang_switch_overhead, nullptr);
      }
    }
  }
  gang_set_active(job, true);
  gang_timer_ = gang_ring_.size() > 1
                    ? sim_.schedule(policy_.basic_quantum,
                                    [this] { gang_end_turn(); })
                    : sim::kNoEvent;
}

void PartitionScheduler::gang_end_turn() {
  gang_timer_ = sim::kNoEvent;
  if (gang_current_ != nullptr) {
    gang_set_active(*gang_current_, false);
    if (job_tracer_ != nullptr) {
      job_tracer_->run_end(gang_current_->id(), sim_.now());
    }
  }
  gang_current_ = nullptr;
  if (gang_ring_.empty()) return;
  gang_index_ = (gang_index_ + 1) % gang_ring_.size();
  gang_start_turn(*gang_ring_[gang_index_], /*charge_switch=*/true);
}

void PartitionScheduler::gang_leave(Job& job) {
  const auto it = std::find(gang_ring_.begin(), gang_ring_.end(), &job);
  if (it == gang_ring_.end()) return;
  const auto pos = static_cast<std::size_t>(it - gang_ring_.begin());
  gang_ring_.erase(it);
  if (pos < gang_index_) {
    --gang_index_;
  } else if (gang_index_ >= gang_ring_.size()) {
    gang_index_ = 0;
  }
  if (gang_current_ == &job) {
    gang_current_ = nullptr;
    if (gang_timer_ != sim::kNoEvent) {
      sim_.cancel(gang_timer_);
      gang_timer_ = sim::kNoEvent;
    }
    if (!gang_ring_.empty()) {
      gang_start_turn(*gang_ring_[gang_index_], /*charge_switch=*/true);
    }
  }
}

void PartitionScheduler::on_process_exit(Job& job) {
  auto it = live_processes_.begin();
  while (it != live_processes_.end() && it->first != &job) ++it;
  assert(it != live_processes_.end());
  if (--it->second > 0) return;
  live_processes_.erase(it);
  job.mark_completion(sim_.now());
  // Teardown is deferred one event: the exiting process's stack frame (and
  // its on_exit std::function) must unwind before the Process is destroyed.
  sim_.schedule(sim::SimTime::zero(), [this, &job] { teardown(job); });
}

void PartitionScheduler::teardown(Job& job) {
  gang_leave(job);
  job.record_cpu(job.total_cpu_time());
  for (auto& process : job.processes()) {
    assert(process->done());
    assert(process->mailbox().empty() && "job exited with undrained mailbox");
    comm_.unregister_process(process->id());
  }
  job.processes().clear();
  --active_;
  ++completed_;
  if (timeline_ != nullptr) {
    timeline_->instant(track_, name_complete_, sim_.now(),
                       static_cast<double>(job.id()));
  }
  if (job_tracer_ != nullptr) job_tracer_->completion(job.id(), sim_.now());
  if (on_complete_) on_complete_(*this, job);
}

void PartitionScheduler::abort_job(Job& job) {
  auto it = live_processes_.begin();
  while (it != live_processes_.end() && it->first != &job) ++it;
  assert(it != live_processes_.end() && "aborting a non-resident job");
  live_processes_.erase(it);
  gang_leave(job);
  for (auto& process : job.processes()) {
    cpus_[static_cast<std::size_t>(process->node())]->settle();
  }
  job.record_cpu(job.total_cpu_time());
  for (auto& process : job.processes()) {
    cpus_[static_cast<std::size_t>(process->node())]->force_exit(*process);
    comm_.unregister_process(process->id());
  }
  job.processes().clear();
  // Bump the incarnation last: force-exiting a mid-charge process can fire
  // one final send, which must carry the dying incarnation so it is
  // discarded at delivery rather than reaching a restarted life.
  comm_.abort_job(job.id());
  --active_;
  if (job_tracer_ != nullptr) job_tracer_->abort(job.id(), sim_.now());
  // No completion instant or handler: the job did not finish here.
}

void PartitionScheduler::abort_all(std::vector<Job*>& doomed) {
  while (!live_processes_.empty()) {
    Job& job = *live_processes_.back().first;
    abort_job(job);
    doomed.push_back(&job);
  }
}

Job* PartitionScheduler::find_resident(JobId id) const {
  for (const auto& entry : live_processes_) {
    if (entry.first->id() == id) return entry.first;
  }
  return nullptr;
}

}  // namespace tmc::sched
