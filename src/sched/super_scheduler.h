// tmcsim -- system-wide scheduler (top tier of the paper's hierarchy).
//
// The super scheduler owns the global ready queue. Under the static policy
// it is a FCFS dispatcher: a queued job starts when a partition becomes
// free and runs there exclusively to completion. Under the time-sharing
// policies it deals arriving jobs equitably over the partitions (bounded by
// the hybrid set size) and they multiprogram within each partition.
#pragma once

#include <vector>

#include "sched/job.h"
#include "sched/partition_scheduler.h"
#include "sched/policy.h"
#include "sched/scheduler.h"
#include "sim/simulation.h"

namespace tmc::sched {

class SuperScheduler final : public Scheduler {
 public:
  SuperScheduler(sim::Simulation& sim,
                 std::vector<PartitionScheduler*> partitions,
                 PolicyConfig policy);

  SuperScheduler(const SuperScheduler&) = delete;
  SuperScheduler& operator=(const SuperScheduler&) = delete;

  /// Forwards the tracer to every partition scheduler (they emit the
  /// dispatch/run/rotation spans; this tier emits arrivals).
  void set_job_tracer(obs::JobTracer* tracer) override;

  // --- fault mode ---------------------------------------------------------
  /// A dead node degrades its whole partition: resident jobs are aborted
  /// and requeued at the head of the FCFS queue (within the restart
  /// budget); no new work is dealt there until every node recovers.
  void enable_fault_mode(int restart_budget) override;
  void on_node_down(net::NodeId node) override;
  void on_node_up(net::NodeId node) override;
  void on_job_comm_failure(JobId job) override;

 private:
  void pump() override;
  /// Dispatch target per policy, or nullptr if no partition can accept work.
  PartitionScheduler* pick_partition() const;
  [[nodiscard]] bool degraded(std::size_t i) const {
    return !dead_nodes_.empty() && dead_nodes_[i] > 0;
  }
  /// Partition index hosting `node`, or -1.
  [[nodiscard]] int partition_of(net::NodeId node) const;

  std::vector<PartitionScheduler*> partitions_;
  PolicyConfig policy_;
  /// node id -> partition index (-1 outside any partition); built only when
  /// fault mode is armed, so fault-free runs never touch it.
  std::vector<int> node_partition_;
  /// Currently-dead node count per partition (empty = fault mode off).
  std::vector<int> dead_nodes_;
  std::vector<Job*> doomed_;  // scratch for abort_all
};

}  // namespace tmc::sched
