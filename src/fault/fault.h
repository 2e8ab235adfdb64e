// tmcsim -- deterministic fault injection and recovery.
//
// FaultManager drives every modelled failure through the ordinary event
// queue: seeded Poisson or Weibull time-to-failure node crashes with
// exponential repair, link down/up episodes, and probabilistic message
// drop. All randomness comes from split child streams of one seed, initial
// episodes are armed in resource-id order and every later draw happens in
// event order inside one (sequential, deterministic) machine, so a faulty
// run replays bit-identically at any --threads count -- the sweep runner
// farms whole machines, never events.
//
// The failure model is fail-stop: a crashed node freezes (no new work
// dispatches until repair; the at-most-one charge in flight at the crash
// instant completes), a downed link stalls traffic (messages park and are
// re-kicked on repair), and a message drop surfaces to the comm system's
// retry machinery. Detection is by heartbeat: every heartbeat_s the manager
// compares ground truth against the detected state and reports edges to the
// scheduler, which aborts and requeues the affected jobs under a per-job
// restart budget.
//
// When FaultConfig::enabled() is false no FaultManager is constructed and
// every hook in net/node/sched/core stays a null-pointer branch, keeping
// fault-free output byte-identical to a build without this subsystem.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cli/flags.h"
#include "net/network.h"
#include "net/topology.h"
#include "obs/timeline.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace tmc::fault {

/// Time-to-failure distribution for node crashes.
enum class FaultDist : std::uint8_t {
  kPoisson,  // exponential TTF (memoryless)
  kWeibull,  // shape < 1 gives infant-mortality clustering
};

struct FaultConfig {
  /// Node crash rate, failures per node-second (0 = nodes never crash).
  /// The per-node MTBF is 1/node_rate.
  double node_rate = 0.0;
  FaultDist node_dist = FaultDist::kPoisson;
  /// Weibull shape for node TTF (used when node_dist == kWeibull).
  double node_weibull_shape = 0.7;
  /// Mean node repair time, seconds (exponential).
  double node_mttr_s = 2.0;
  /// Link down rate, episodes per link-second (0 = links never fail).
  double link_rate = 0.0;
  /// Mean link repair time, seconds (exponential).
  double link_mttr_s = 1.0;
  /// Probability an injected message is dropped at the source.
  double drop_prob = 0.0;
  /// Scheduler heartbeat period, seconds: dead/recovered nodes are
  /// detected at the first tick after the state change.
  double heartbeat_s = 0.25;
  /// Resend attempts per message before the delivery is abandoned and the
  /// owning job aborted.
  int retry_budget = 8;
  /// Base resend backoff, seconds; attempt k waits backoff * 2^k, plus a
  /// seeded jitter of up to +100%.
  double retry_backoff_s = 0.005;
  /// Restarts allowed per job before it is failed instead of requeued.
  int restart_budget = 3;
  /// Seed for the fault streams (independent of the workload seed).
  std::uint64_t seed = 42;

  [[nodiscard]] bool enabled() const {
    return node_rate > 0.0 || link_rate > 0.0 || drop_prob > 0.0;
  }
};

/// Counters of the fault plane. FaultManager fills the injection side;
/// Multicomputer::stats() merges the comm retry and scheduler restart
/// counters so reports have one place to look.
struct FaultStats {
  std::uint64_t crashes = 0;
  std::uint64_t repairs = 0;
  std::uint64_t link_downs = 0;
  std::uint64_t link_ups = 0;
  std::uint64_t drops = 0;          // messages dropped at injection
  std::uint64_t retries = 0;        // comm resend attempts
  std::uint64_t messages_lost = 0;  // deliveries abandoned (budget spent)
  std::uint64_t job_restarts = 0;
  std::uint64_t jobs_failed = 0;
  /// Realized means over the injected episodes (0 when none happened).
  double mtbf_observed_s = 0.0;
  double mttr_observed_s = 0.0;
};

/// Edge notifications out of the fault plane, wired by the machine.
struct FaultCallbacks {
  /// Ground-truth transitions (the instant the hardware changes state).
  std::function<void(net::NodeId)> node_crash;
  std::function<void(net::NodeId)> node_repair;
  /// Heartbeat-detected transitions (what the scheduler learns, late).
  std::function<void(net::NodeId, bool down)> node_detected;
  /// Link state changed; `up` episodes should kick parked traffic.
  std::function<void(net::LinkId, bool up)> link_changed;
};

/// Flag rows (family kFault) for `config`: --fault-rate, --fault-dist,
/// --fault-shape, --fault-mttr, --fault-link-rate, --fault-link-mttr,
/// --fault-drop, --heartbeat, --retry-budget, --retry-backoff,
/// --fault-restart-budget and --fault-seed.
[[nodiscard]] std::vector<cli::Flag> cli_flags(FaultConfig& config);

class FaultManager final : public net::FaultPlane {
 public:
  FaultManager(sim::Simulation& sim, const net::Topology& topo,
               FaultConfig config);

  FaultManager(const FaultManager&) = delete;
  FaultManager& operator=(const FaultManager&) = delete;

  void set_callbacks(FaultCallbacks callbacks) {
    callbacks_ = std::move(callbacks);
  }

  /// Optional timeline track: fault/recover instants land on it
  /// (node-down/node-up/link-down/link-up, value = resource id).
  void set_timeline(obs::Timeline* timeline, obs::TrackId track);

  /// Arms the initial per-node and per-link episodes (in id order) and the
  /// heartbeat. Call once, before the run starts.
  void start();

  // --- net::FaultPlane ---------------------------------------------------
  [[nodiscard]] bool node_alive(net::NodeId node) const override {
    return alive_[static_cast<std::size_t>(node)] != 0;
  }
  [[nodiscard]] bool link_usable(net::LinkId link) const override;
  bool should_drop(const net::Message& msg) override;

  /// Pending fault events (constant while running: one per armed node
  /// chain, one per armed link chain, one heartbeat). The machine's run
  /// loop stops when only these remain and all jobs are done.
  [[nodiscard]] std::size_t pending_events() const { return pending_; }

  [[nodiscard]] int alive_nodes() const { return alive_count_; }
  [[nodiscard]] int node_count() const {
    return static_cast<int>(alive_.size());
  }
  /// Seeded resend jitter in [0, 1), drawn in event order.
  [[nodiscard]] double jitter() { return jitter_rng_.uniform01(); }

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }
  /// Injection-side counters and realized MTBF/MTTR.
  [[nodiscard]] FaultStats stats() const;

 private:
  void arm_node(net::NodeId node);
  void crash_node(net::NodeId node);
  void repair_node(net::NodeId node);
  void arm_link(net::LinkId link);
  void flip_link(net::LinkId link);
  void heartbeat();
  [[nodiscard]] double draw_node_ttf();

  sim::Simulation& sim_;
  const net::Topology& topo_;
  FaultConfig cfg_;
  FaultCallbacks callbacks_;
  sim::Rng node_rng_;
  sim::Rng link_rng_;
  sim::Rng drop_rng_;
  sim::Rng jitter_rng_;
  std::vector<char> alive_;     // ground truth, per node
  std::vector<char> detected_;  // heartbeat view, per node
  std::vector<char> link_ok_;   // ground truth, per link
  int alive_count_ = 0;
  std::size_t pending_ = 0;
  FaultStats stats_;
  double sum_ttf_s_ = 0.0;
  double sum_repair_s_ = 0.0;
  obs::Timeline* timeline_ = nullptr;
  obs::TrackId track_ = 0;
  obs::NameId name_node_down_ = 0;
  obs::NameId name_node_up_ = 0;
  obs::NameId name_link_down_ = 0;
  obs::NameId name_link_up_ = 0;
};

}  // namespace tmc::fault
