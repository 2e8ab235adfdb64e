#include "sched/super_scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace tmc::sched {

SuperScheduler::SuperScheduler(sim::Simulation& sim,
                               std::vector<PartitionScheduler*> partitions,
                               PolicyConfig policy)
    : Scheduler(sim), partitions_(std::move(partitions)), policy_(policy) {
  assert(!partitions_.empty());
  for (PartitionScheduler* ps : partitions_) {
    ps->set_completion_handler(
        [this](PartitionScheduler&, Job& job) { finish(job); });
  }
}

void SuperScheduler::set_job_tracer(obs::JobTracer* tracer) {
  job_tracer_ = tracer;
  for (PartitionScheduler* ps : partitions_) {
    ps->set_job_tracer(tracer);
  }
}

PartitionScheduler* SuperScheduler::pick_partition() const {
  if (policy_.kind == PolicyKind::kStatic) {
    // One job per partition, run to completion.
    for (std::size_t i = 0; i < partitions_.size(); ++i) {
      if (degraded(i)) continue;
      if (partitions_[i]->active_jobs() == 0) return partitions_[i];
    }
    return nullptr;
  }
  // Time-sharing/hybrid: deal to the least-loaded partition (lowest id on
  // ties), bounded by the set size. For a batch arriving together this is
  // exactly the paper's equitable round-robin distribution.
  PartitionScheduler* best = nullptr;
  int best_load = std::numeric_limits<int>::max();
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    if (degraded(i)) continue;
    if (partitions_[i]->active_jobs() < best_load) {
      best_load = partitions_[i]->active_jobs();
      best = partitions_[i];
    }
  }
  if (best == nullptr || best_load >= policy_.set_size) return nullptr;
  return best;
}

void SuperScheduler::enable_fault_mode(int restart_budget) {
  Scheduler::enable_fault_mode(restart_budget);
  dead_nodes_.assign(partitions_.size(), 0);
  net::NodeId max_node = -1;
  for (const PartitionScheduler* ps : partitions_) {
    for (const net::NodeId node : ps->partition().nodes) {
      max_node = std::max(max_node, node);
    }
  }
  node_partition_.assign(static_cast<std::size_t>(max_node + 1), -1);
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    for (const net::NodeId node : partitions_[i]->partition().nodes) {
      node_partition_[static_cast<std::size_t>(node)] = static_cast<int>(i);
    }
  }
}

int SuperScheduler::partition_of(net::NodeId node) const {
  const auto idx = static_cast<std::size_t>(node);
  if (node < 0 || idx >= node_partition_.size()) return -1;
  return node_partition_[idx];
}

void SuperScheduler::on_node_down(net::NodeId node) {
  const int p = partition_of(node);
  if (p < 0) return;
  ++dead_nodes_[static_cast<std::size_t>(p)];
  // The partition can no longer run gangs to completion: tear down every
  // resident job and decide each one's fate against its restart budget.
  doomed_.clear();
  partitions_[static_cast<std::size_t>(p)]->abort_all(doomed_);
  for (Job* job : doomed_) handle_aborted(*job);
  doomed_.clear();
  pump();  // surviving partitions pick up the requeued work
}

void SuperScheduler::on_node_up(net::NodeId node) {
  const int p = partition_of(node);
  if (p < 0) return;
  if (--dead_nodes_[static_cast<std::size_t>(p)] == 0) {
    pump();  // the partition re-forms and can accept work again
  }
}

void SuperScheduler::on_job_comm_failure(JobId job) {
  for (PartitionScheduler* ps : partitions_) {
    if (Job* resident = ps->find_resident(job)) {
      ps->abort_job(*resident);
      handle_aborted(*resident);
      pump();
      return;
    }
  }
  // Not resident (already torn down by a node death, or queued): nothing to
  // abort; the pending restart owns recovery.
}

void SuperScheduler::pump() {
  while (!queue_.empty()) {
    PartitionScheduler* target = pick_partition();
    if (target == nullptr) return;
    Job* job = queue_.front();
    queue_.pop_front();
    target->admit(*job);
  }
}

}  // namespace tmc::sched
