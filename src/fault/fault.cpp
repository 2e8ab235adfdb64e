#include "fault/fault.h"

#include <cmath>
#include <limits>

namespace tmc::fault {
namespace {

[[nodiscard]] sim::SimTime from_s(double seconds) {
  return sim::SimTime::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
}

}  // namespace

std::vector<cli::Flag> cli_flags(FaultConfig& config) {
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  return cli::in_family(
      cli::Family::kFault,
      {
          cli::real("--fault-rate", "R", config.node_rate,
                    "node crashes per node-second (0 = off)",
                    cli::at_least(0.0)),
          cli::choice("--fault-dist", config.node_dist,
                      {{"poisson", FaultDist::kPoisson},
                       {"weibull", FaultDist::kWeibull}},
                      "node time-to-failure distribution"),
          cli::real("--fault-shape", "K", config.node_weibull_shape,
                    "Weibull shape for node TTF (default 0.7)",
                    cli::at_least(0.05)),
          cli::real("--fault-mttr", "S", config.node_mttr_s,
                    "mean node repair time, seconds", cli::positive()),
          cli::real("--fault-link-rate", "R", config.link_rate,
                    "link down episodes per link-second",
                    cli::at_least(0.0)),
          cli::real("--fault-link-mttr", "S", config.link_mttr_s,
                    "mean link repair time, seconds", cli::positive()),
          cli::real("--fault-drop", "P", config.drop_prob,
                    "per-message drop probability", {0.0, 1.0, false, true}),
          cli::real("--heartbeat", "S", config.heartbeat_s,
                    "failure-detection period, seconds", cli::positive()),
          cli::integer("--retry-budget", "N", config.retry_budget,
                       "resends per message before giving up", 0, kMaxInt),
          cli::real("--retry-backoff", "S", config.retry_backoff_s,
                    "base resend backoff, seconds", cli::positive()),
          cli::integer("--fault-restart-budget", "N", config.restart_budget,
                       "restarts per job before it fails", 0, kMaxInt),
          cli::integer("--fault-seed", "N", config.seed,
                       "seed for the fault streams"),
      });
}

FaultManager::FaultManager(sim::Simulation& sim, const net::Topology& topo,
                           FaultConfig config)
    : sim_(sim), topo_(topo), cfg_(config) {
  sim::Rng root(cfg_.seed);
  node_rng_ = root.split();
  link_rng_ = root.split();
  drop_rng_ = root.split();
  jitter_rng_ = root.split();
  alive_.assign(static_cast<std::size_t>(topo_.node_count()), 1);
  detected_.assign(static_cast<std::size_t>(topo_.node_count()), 1);
  link_ok_.assign(static_cast<std::size_t>(topo_.link_count()), 1);
  alive_count_ = topo_.node_count();
}

void FaultManager::set_timeline(obs::Timeline* timeline, obs::TrackId track) {
  timeline_ = timeline;
  track_ = track;
  if (timeline_ != nullptr) {
    name_node_down_ = timeline_->intern("node-down");
    name_node_up_ = timeline_->intern("node-up");
    name_link_down_ = timeline_->intern("link-down");
    name_link_up_ = timeline_->intern("link-up");
  }
}

void FaultManager::start() {
  // Initial episodes in resource-id order; every later draw happens in
  // event order, so the whole schedule is a pure function of the seed.
  if (cfg_.node_rate > 0.0) {
    for (net::NodeId n = 0; n < topo_.node_count(); ++n) arm_node(n);
    pending_ += static_cast<std::size_t>(topo_.node_count());
    sim_.schedule(from_s(cfg_.heartbeat_s), [this] { heartbeat(); });
    pending_ += 1;
  }
  if (cfg_.link_rate > 0.0) {
    for (net::LinkId l = 0; l < topo_.link_count(); ++l) arm_link(l);
    pending_ += static_cast<std::size_t>(topo_.link_count());
  }
}

bool FaultManager::link_usable(net::LinkId link) const {
  if (link_ok_[static_cast<std::size_t>(link)] == 0) return false;
  // A dead node takes its incident links with it: through-traffic stalls
  // (and is re-kicked on repair) instead of transiting a crashed router.
  const net::Topology::LinkEnds ends = topo_.link_ends(link);
  return node_alive(ends.from) && node_alive(ends.to);
}

bool FaultManager::should_drop(const net::Message& msg) {
  // System traffic (job 0) has no retry owner, so only job messages drop.
  if (cfg_.drop_prob <= 0.0 || msg.job == 0) return false;
  if (!drop_rng_.bernoulli(cfg_.drop_prob)) return false;
  ++stats_.drops;
  return true;
}

double FaultManager::draw_node_ttf() {
  const double mtbf = 1.0 / cfg_.node_rate;
  if (cfg_.node_dist == FaultDist::kWeibull) {
    const double shape = cfg_.node_weibull_shape;
    const double scale = mtbf / std::tgamma(1.0 + 1.0 / shape);
    return node_rng_.weibull(shape, scale);
  }
  return node_rng_.exponential(mtbf);
}

void FaultManager::arm_node(net::NodeId node) {
  const double ttf = draw_node_ttf();
  sim_.schedule(from_s(ttf), [this, node, ttf] {
    sum_ttf_s_ += ttf;
    crash_node(node);
  });
}

void FaultManager::crash_node(net::NodeId node) {
  alive_[static_cast<std::size_t>(node)] = 0;
  --alive_count_;
  ++stats_.crashes;
  if (timeline_ != nullptr) {
    timeline_->instant(track_, name_node_down_, sim_.now(),
                       static_cast<double>(node));
  }
  if (callbacks_.node_crash) callbacks_.node_crash(node);
  const double repair = node_rng_.exponential(cfg_.node_mttr_s);
  sim_.schedule(from_s(repair), [this, node, repair] {
    sum_repair_s_ += repair;
    repair_node(node);
  });
}

void FaultManager::repair_node(net::NodeId node) {
  alive_[static_cast<std::size_t>(node)] = 1;
  ++alive_count_;
  ++stats_.repairs;
  if (timeline_ != nullptr) {
    timeline_->instant(track_, name_node_up_, sim_.now(),
                       static_cast<double>(node));
  }
  if (callbacks_.node_repair) callbacks_.node_repair(node);
  arm_node(node);
}

void FaultManager::arm_link(net::LinkId link) {
  const double ttf = link_rng_.exponential(1.0 / cfg_.link_rate);
  sim_.schedule(from_s(ttf), [this, link] { flip_link(link); });
}

void FaultManager::flip_link(net::LinkId link) {
  char& ok = link_ok_[static_cast<std::size_t>(link)];
  ok = ok == 0 ? 1 : 0;
  double next;
  if (ok == 0) {
    ++stats_.link_downs;
    if (timeline_ != nullptr) {
      timeline_->instant(track_, name_link_down_, sim_.now(),
                         static_cast<double>(link));
    }
    if (callbacks_.link_changed) callbacks_.link_changed(link, false);
    next = link_rng_.exponential(cfg_.link_mttr_s);
  } else {
    ++stats_.link_ups;
    if (timeline_ != nullptr) {
      timeline_->instant(track_, name_link_up_, sim_.now(),
                         static_cast<double>(link));
    }
    if (callbacks_.link_changed) callbacks_.link_changed(link, true);
    next = link_rng_.exponential(1.0 / cfg_.link_rate);
  }
  sim_.schedule(from_s(next), [this, link] { flip_link(link); });
}

void FaultManager::heartbeat() {
  for (net::NodeId n = 0; n < topo_.node_count(); ++n) {
    const auto idx = static_cast<std::size_t>(n);
    if (detected_[idx] == alive_[idx]) continue;
    detected_[idx] = alive_[idx];
    if (callbacks_.node_detected) {
      callbacks_.node_detected(n, alive_[idx] == 0);
    }
  }
  sim_.schedule(from_s(cfg_.heartbeat_s), [this] { heartbeat(); });
}

FaultStats FaultManager::stats() const {
  FaultStats s = stats_;
  if (s.crashes > 0) {
    s.mtbf_observed_s = sum_ttf_s_ / static_cast<double>(s.crashes);
  }
  if (s.repairs > 0) {
    s.mttr_observed_s = sum_repair_s_ / static_cast<double>(s.repairs);
  }
  return s;
}

}  // namespace tmc::fault
