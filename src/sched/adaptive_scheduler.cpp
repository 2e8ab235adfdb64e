#include "sched/adaptive_scheduler.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace tmc::sched {

AdaptiveScheduler::AdaptiveScheduler(sim::Simulation& sim,
                                     std::vector<node::Transputer*> cpus,
                                     node::CommSystem& comm,
                                     PolicyConfig policy,
                                     PartitionSchedParams params)
    : Scheduler(sim),
      cpus_(std::move(cpus)),
      comm_(comm),
      policy_(policy),
      params_(params),
      buddy_(static_cast<int>(cpus_.size())) {}

int AdaptiveScheduler::target_size() const {
  const int in_system =
      static_cast<int>(queue_.size()) + static_cast<int>(running_.size());
  const int share = buddy_.total() / std::max(in_system, 1);
  const int floored = std::max(share, policy_.adaptive_min_partition);
  return static_cast<int>(
      std::bit_floor(static_cast<unsigned>(std::max(floored, 1))));
}

void AdaptiveScheduler::pump() {
  while (!queue_.empty()) {
    auto block = buddy_.allocate_at_most(target_size());
    if (!block) return;  // machine full: wait for a departure
    if (dead_count_ > 0 && !block_usable(*block)) {
      // The buddy handed back capacity spanning a dead node: park it in
      // quarantine (returned on repair) and try the rest of the pool.
      quarantined_.push_back(*block);
      continue;
    }
    Job* job = queue_.front();
    queue_.pop_front();

    Partition partition;
    partition.id = partition_seq_++;
    for (int i = 0; i < block->size; ++i) {
      partition.nodes.push_back(block->base + i);
    }
    // Within its allocation the job runs exactly as under the static
    // policy: exclusive use, run to completion.
    PolicyConfig local = policy_;
    local.kind = PolicyKind::kStatic;
    local.partition_size = block->size;
    auto scheduler = std::make_unique<PartitionScheduler>(
        sim_, std::move(partition), cpus_, comm_, local, params_);
    scheduler->set_completion_handler(
        [this](PartitionScheduler&, Job& done) { on_job_complete(done); });
    scheduler->set_job_tracer(job_tracer_);

    alloc_sizes_.add(static_cast<double>(block->size));
    Running& entry = running_[job->id()];
    entry.block = *block;
    entry.scheduler = std::move(scheduler);
    entry.scheduler->admit(*job);
  }
}

void AdaptiveScheduler::on_job_complete(Job& job) {
  const auto it = running_.find(job.id());
  assert(it != running_.end());
  release_block(it->second.block);
  // Reclaim schedulers retired by *earlier* completions. Safe here:
  // teardown only runs as its own deferred event with this handler in tail
  // position, so a previously retired scheduler has no pending events and
  // no frame on the stack. Keeping only the current one bounds memory over
  // sustained runs (it used to grow by one scheduler per completed job).
  retired_.clear();
  retired_.push_back(std::move(it->second.scheduler));
  running_.erase(it);
  finish(job);
}

void AdaptiveScheduler::enable_fault_mode(int restart_budget) {
  Scheduler::enable_fault_mode(restart_budget);
  dead_nodes_.assign(cpus_.size(), 0);
}

bool AdaptiveScheduler::block_usable(const ProcessorBlock& block) const {
  for (int i = 0; i < block.size; ++i) {
    if (dead_nodes_[static_cast<std::size_t>(block.base + i)] != 0) {
      return false;
    }
  }
  return true;
}

void AdaptiveScheduler::release_block(const ProcessorBlock& block) {
  if (dead_count_ == 0 || block_usable(block)) {
    buddy_.free(block);
  } else {
    quarantined_.push_back(block);
  }
}

void AdaptiveScheduler::abort_running(JobId id) {
  const auto it = running_.find(id);
  assert(it != running_.end());
  Job* job = it->second.scheduler->find_resident(id);
  if (job == nullptr) {
    // The job's last process already exited; its deferred teardown owns the
    // cleanup (and release_block keeps its dead-spanning block quarantined).
    return;
  }
  it->second.scheduler->abort_job(*job);
  release_block(it->second.block);
  // Retire rather than destroy: on_job_complete reclaims retired schedulers
  // at a point where no frame of theirs can be on the stack.
  retired_.push_back(std::move(it->second.scheduler));
  running_.erase(it);
  handle_aborted(*job);
}

void AdaptiveScheduler::on_node_down(net::NodeId node) {
  if (dead_nodes_.empty()) return;
  char& flag = dead_nodes_[static_cast<std::size_t>(node)];
  if (flag != 0) return;
  flag = 1;
  ++dead_count_;
  // Buddy blocks are disjoint, so at most one running job spans this node.
  const auto hit = std::find_if(running_.begin(), running_.end(),
                                [node](const auto& entry) {
                                  const ProcessorBlock& b = entry.second.block;
                                  return node >= b.base &&
                                         node < b.base + b.size;
                                });
  if (hit != running_.end()) abort_running(hit->first);
  pump();
}

void AdaptiveScheduler::on_node_up(net::NodeId node) {
  if (dead_nodes_.empty()) return;
  char& flag = dead_nodes_[static_cast<std::size_t>(node)];
  if (flag == 0) return;
  flag = 0;
  --dead_count_;
  // Return quarantined blocks whose nodes have all recovered.
  for (auto it = quarantined_.begin(); it != quarantined_.end();) {
    if (block_usable(*it)) {
      buddy_.free(*it);
      it = quarantined_.erase(it);
    } else {
      ++it;
    }
  }
  pump();
}

void AdaptiveScheduler::on_job_comm_failure(JobId job) {
  if (running_.find(job) == running_.end()) return;
  abort_running(job);
  pump();
}

}  // namespace tmc::sched
