// tmcsim -- adaptive space-sharing (extension; bench A9).
//
// The paper's taxonomy (section 2.1) divides space-sharing into static,
// semi-static and dynamic families but implements only the static one.
// This scheduler implements the classic *adaptive* variant studied by the
// works the paper cites ([5] Dussa et al., [10] Rosti et al.): partitions
// are sized at dispatch time to the current load -- target = P / jobs in
// system, rounded to a power of two -- and carved from a buddy allocator,
// so a lightly loaded machine gives each job many processors while a
// backlogged one degrades toward one processor per job. Jobs still run to
// completion (no repartitioning of running jobs).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "node/comm.h"
#include "node/transputer.h"
#include "sched/buddy.h"
#include "sched/partition_scheduler.h"
#include "sched/policy.h"
#include "sched/scheduler.h"
#include "sim/simulation.h"
#include "sim/stats.h"

namespace tmc::sched {

class AdaptiveScheduler final : public Scheduler {
 public:
  AdaptiveScheduler(sim::Simulation& sim, std::vector<node::Transputer*> cpus,
                    node::CommSystem& comm, PolicyConfig policy,
                    PartitionSchedParams params = {});

  [[nodiscard]] const BuddyAllocator& buddy() const { return buddy_; }
  [[nodiscard]] int running_jobs() const {
    return static_cast<int>(running_.size());
  }
  /// Distribution of granted partition sizes.
  [[nodiscard]] const sim::OnlineStats& allocation_sizes() const {
    return alloc_sizes_;
  }

  // --- fault mode ---------------------------------------------------------
  /// A dead node kills the job running on its buddy block; the block sits
  /// in quarantine (capacity the allocator cannot hand out) until every one
  /// of its nodes recovers.
  void enable_fault_mode(int restart_budget) override;
  void on_node_down(net::NodeId node) override;
  void on_node_up(net::NodeId node) override;
  void on_job_comm_failure(JobId job) override;

 private:
  struct Running {
    std::unique_ptr<PartitionScheduler> scheduler;
    ProcessorBlock block;
  };

  /// Equipartition target for the next dispatch.
  [[nodiscard]] int target_size() const;
  void pump() override;
  void on_job_complete(Job& job);
  [[nodiscard]] bool block_usable(const ProcessorBlock& block) const;
  /// Frees `block` to the buddy pool, or quarantines it while it spans a
  /// dead node.
  void release_block(const ProcessorBlock& block);
  /// Aborts the running job `id` (no-op if its completion is already in
  /// flight) and requeues or fails it.
  void abort_running(JobId id);

  /// Machine-wide CPU table, shared by every partition scheduler created
  /// here (declared before running_ and retired_, so it outlives them).
  std::vector<node::Transputer*> cpus_;
  node::CommSystem& comm_;
  PolicyConfig policy_;
  PartitionSchedParams params_;
  BuddyAllocator buddy_;

  std::unordered_map<JobId, Running> running_;
  /// Completed jobs' partition schedulers; destroying one inside its own
  /// completion callback would be use-after-free, so they retire here.
  std::vector<std::unique_ptr<PartitionScheduler>> retired_;
  int partition_seq_ = 0;
  sim::OnlineStats alloc_sizes_;
  /// Per-node dead flags (empty = fault mode off) and the live dead count.
  std::vector<char> dead_nodes_;
  int dead_count_ = 0;
  /// Buddy blocks withheld from the pool because they span a dead node.
  std::vector<ProcessorBlock> quarantined_;
};

}  // namespace tmc::sched
