// tmcsim -- the assembled multicomputer.
//
// Multicomputer wires the full system the paper describes: sixteen T805
// nodes (CPU + 4 MB MMU each), the partition-local interconnect, the
// mailbox communication system, and the three-tier scheduling hierarchy
// configured for one policy. It is the top-level object examples and the
// experiment harness interact with.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/node_array.h"
#include "fault/fault.h"
#include "mem/mmu.h"
#include "net/network.h"
#include "net/topology.h"
#include "node/comm.h"
#include "node/transputer.h"
#include "sched/job.h"
#include "sched/partition.h"
#include "sched/partition_scheduler.h"
#include "sched/policy.h"
#include "sched/adaptive_scheduler.h"
#include "sched/scheduler.h"
#include "sched/stealing/engine.h"
#include "sched/super_scheduler.h"
#include "sim/simulation.h"

namespace tmc::obs {
class Hub;
class JobTracer;
}

namespace tmc::core {

struct MachineConfig {
  /// Total processors P. The paper's system has 16 (one more T805 serves as
  /// the host link and is not schedulable).
  int processors = 16;
  /// Topology wired *within each partition*; partitions are disjoint
  /// networks (paper figure labels like "8L" = two 8-node linear arrays).
  net::TopologyKind topology = net::TopologyKind::kMesh;
  std::size_t memory_per_node = std::size_t{4} << 20;  // 4 MB
  sim::SimTime mmu_service = sim::SimTime::microseconds(2);
  mem::MmuDiscipline mmu_discipline = mem::MmuDiscipline::kFirstFit;
  /// Watchdog for run_to_completion(): self-perpetuating activity (e.g. a
  /// gang rotation whose jobs can never allocate memory) would otherwise
  /// keep the event loop alive forever. Generous: every modelled batch
  /// finishes in well under a minute of simulated time.
  sim::SimTime max_sim_time = sim::SimTime::seconds(600);
  /// Store-and-forward (the T805's switching) or the wormhole extension.
  bool wormhole = false;

  net::NetworkParams network{};
  node::Transputer::Params cpu{};
  node::CommSystem::Params comm{};
  sched::PartitionScheduler::Params partition_sched{};
  sched::PolicyConfig policy{};
  /// Fault-injection processes (all rates zero = perfectly reliable
  /// hardware; the fault subsystem is then not even instantiated and every
  /// hook is one untaken null-pointer branch).
  fault::FaultConfig faults{};
  /// Work-stealing runtime (steal_rate zero = no engine is instantiated;
  /// kStealing jobs then run their fallback fixed-architecture scripts
  /// byte-identically).
  sched::stealing::StealParams stealing{};

  /// Optional observability hub (owned by the caller -- tmc_cli or a bench
  /// harness). When set, the constructor registers metric probes and
  /// timeline tracks for every component and run_to_completion() drives the
  /// hub's interval sampler. Null (the default) is fully inert: components
  /// keep null handles and every recording site is one untaken branch.
  obs::Hub* obs = nullptr;

  /// Tenant class names for the per-job timeline tracks (one kJob track per
  /// class; empty = a single "jobs" track). The serving harness fills this
  /// from its class mix; closed batches leave it empty. Only read when a
  /// timeline is recording.
  std::vector<std::string> job_class_names;

  /// Figure label of this configuration, e.g. "8L".
  [[nodiscard]] std::string label() const;
};

/// Aggregate machine counters collected after a run.
struct MachineStats {
  /// Events fired. The silent steps of stepped CPU charges are counted
  /// apart, in quantum_steps: events + quantum_steps is the count of a run
  /// that fires one event per quantum and one per context switch.
  std::uint64_t events = 0;
  /// Silent steps: the quantum boundaries of stepped charges, and the ends
  /// of the context switches folded into the charge behind them.
  std::uint64_t quantum_steps = 0;
  /// Events ever scheduled, cancelled ones included.
  std::uint64_t scheduled_events = 0;
  /// High-water mark of the kernel's pending-event set (scaling studies:
  /// grows with machine size, and heap operations cost O(log) of it).
  std::size_t peak_pending_events = 0;
  std::uint64_t messages = 0;
  std::uint64_t self_sends = 0;
  std::uint64_t total_hops = 0;
  double avg_cpu_utilization = 0.0;
  double max_link_utilization = 0.0;
  std::size_t peak_node_memory = 0;      // max high watermark over nodes
  std::uint64_t mem_blocked_requests = 0;
  sim::SimTime mem_block_time;           // summed over nodes
  std::uint64_t context_switches = 0;
  std::uint64_t high_preemptions = 0;
  std::uint64_t quantum_expiries = 0;
  /// Fault subsystem counters (all zero on reliable runs), merged from the
  /// fault manager (crashes, repairs, MTBF/MTTR), the comm system (retries,
  /// lost messages) and the scheduler (restarts, failed jobs).
  fault::FaultStats faults{};
  /// Steal-protocol counters (all zero without an engine).
  sched::stealing::StealStats steals{};
};

class Multicomputer {
 public:
  explicit Multicomputer(MachineConfig config);
  ~Multicomputer();
  Multicomputer(const Multicomputer&) = delete;
  Multicomputer& operator=(const Multicomputer&) = delete;

  [[nodiscard]] const MachineConfig& config() const { return cfg_; }
  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] sched::Scheduler& scheduler() { return *scheduler_; }
  /// The adaptive space-sharing scheduler, or nullptr under the paper's
  /// fixed-partition policies.
  [[nodiscard]] sched::AdaptiveScheduler* adaptive_scheduler() {
    return dynamic_cast<sched::AdaptiveScheduler*>(scheduler_.get());
  }
  [[nodiscard]] node::CommSystem& comm() { return *comm_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  /// The fault manager, or nullptr on a reliable (fault-free) machine.
  [[nodiscard]] fault::FaultManager* fault_manager() {
    return fault_mgr_.get();
  }
  [[nodiscard]] const net::Topology& topology() const { return topo_; }
  [[nodiscard]] node::Transputer& cpu(net::NodeId node) {
    return cpus_[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] mem::Mmu& mmu(net::NodeId node) {
    return mmus_[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] int partition_count() const {
    return static_cast<int>(partition_scheds_.size());
  }
  [[nodiscard]] sched::PartitionScheduler& partition_scheduler(int i) {
    return *partition_scheds_[static_cast<std::size_t>(i)];
  }

  /// Submits a job now (arrival = current simulated time). A kStealing job
  /// with a decomposer is adopted by the steal engine first (when one
  /// exists) so its program builder becomes the tasklet-driven one.
  void submit(sched::Job& job);

  /// The work-stealing engine, or nullptr when stealing is disabled.
  [[nodiscard]] sched::stealing::Engine* steal_engine() {
    return steal_engine_.get();
  }

  /// Runs the event loop until quiescent; throws if jobs remain unfinished
  /// (deadlock in the modelled system). Returns events fired.
  std::uint64_t run_to_completion();

  [[nodiscard]] MachineStats stats();

 private:
  void wire_observability();

  MachineConfig cfg_;
  sim::Simulation sim_;
  net::Topology topo_;
  /// Per-node components, placement-constructed back to back (Mmu and
  /// Transputer are non-movable; see core/node_array.h).
  NodeArray<mem::Mmu> mmus_;
  NodeArray<node::Transputer> cpus_;
  /// cpus_ by node id. Every partition scheduler indexes this one table,
  /// so it is declared before them and outlives them.
  std::vector<node::Transputer*> cpu_ptrs_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<node::CommSystem> comm_;
  std::vector<std::unique_ptr<sched::PartitionScheduler>> partition_scheds_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  /// Created only when cfg_.faults.enabled(); drives the failure/repair
  /// processes and answers the transport's liveness queries.
  std::unique_ptr<fault::FaultManager> fault_mgr_;
  /// Created only when cfg_.stealing.enabled(); owns the steal protocol.
  std::unique_ptr<sched::stealing::Engine> steal_engine_;
  /// Per-job lifecycle tracer, created only when a timeline is recording
  /// (see wire_observability); the schedulers hold a pointer to it.
  std::unique_ptr<obs::JobTracer> job_tracer_;
};

}  // namespace tmc::core
