// tmcsim -- open-arrival traffic generation (sustained serving).
//
// The paper runs closed 16-job batches; the serving experiments drive the
// machine with an *open* stream: jobs arrive according to a stochastic
// process, belong to one of several tenant classes, and draw their service
// demand from a per-class distribution. This library owns all of that:
//
//  * ServiceModel -- per-class service-demand distributions, from the
//    paper's fixed sizes through exponential up to the heavy-tailed
//    Weibull (shape < 1) and truncated Pareto mixes of the DFRS workload
//    literature (Casanova et al., arXiv:1106.4985).
//  * JobClass -- a tenant class: mix weight, service model, software
//    architecture and fork/join process shape.
//  * ArrivalProcess -- when jobs arrive: stationary Poisson, a 2-state
//    MMPP (bursty), a diurnal sinusoidal rate (thinning), or replay of a
//    trace file (streamed line at a time, O(1) memory).
//  * ArrivalStream -- the deterministic generator: one seeded Rng, a
//    strict per-arrival draw order (class, then service, then
//    interarrival) so refactored callers reproduce their historical
//    streams bit for bit.
//
// The sustained serving loop (core/serve.cpp) sits on top of this; bench
// A10's Poisson stream and bench serve_sustained both run through it.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "sched/job.h"
#include "sim/rng.h"

namespace tmc::workload {

/// Per-class service-demand distribution. `draw` consumes exactly one
/// uniform for every stochastic kind and none for kFixed -- callers rely
/// on that for reproducible stream refactors.
struct ServiceModel {
  enum class Kind {
    kFixed,             // always mean_s; consumes no randomness
    kExponential,       // mean mean_s
    kHyperexponential,  // mean mean_s, coefficient of variation `shape`
    kWeibull,           // mean mean_s, Weibull shape `shape` (< 1 heavy tail)
    kPareto,            // mean mean_s, tail index `shape` (must be > 1)
  };

  Kind kind = Kind::kFixed;
  double mean_s = 1.0;
  /// Shape parameter, meaning depends on kind (see above). Unused by
  /// kFixed / kExponential.
  double shape = 1.0;
  /// Truncation: draws are clamped to [0, cap_s] when cap_s > 0. Pareto
  /// tails with alpha <= 2 have infinite variance; capping keeps single
  /// draws from dominating a finite run.
  double cap_s = 0.0;

  /// One service demand in seconds (kHyperexponential may consume two
  /// uniforms via the branch draw; all other stochastic kinds exactly one).
  [[nodiscard]] double draw(sim::Rng& rng) const;

  /// Mean of the *untruncated* distribution (== mean_s by construction).
  [[nodiscard]] double theoretical_mean() const { return mean_s; }
};

[[nodiscard]] std::string_view to_string(ServiceModel::Kind kind);

/// A tenant job class in a multi-class mix.
struct JobClass {
  std::string name;
  /// Relative mix weight; an arrival belongs to class i with probability
  /// weight_i / sum(weights).
  double weight = 1.0;
  ServiceModel service{};
  sched::SoftwareArch arch = sched::SoftwareArch::kAdaptive;
  /// Process count when arch == kFixed; ignored for kAdaptive (the
  /// partition size decides).
  int processes = 16;
  /// Fork/join message size of the generated synthetic jobs.
  std::size_t message_bytes = 1024;
  /// Intra-job imbalance of the generated jobs (SyntheticParams::skew):
  /// rank 0 becomes a straggler, total demand preserved. 0 = even split.
  double skew = 0.0;
};

/// The arrival-instant process (class and service draws are orthogonal).
struct ArrivalProcess {
  enum class Kind {
    kPoisson,  // stationary, rate rate_per_s
    kMmpp,     // 2-state Markov-modulated Poisson: base + burst states
    kDiurnal,  // sinusoidal rate, thinning against the peak
    kTrace,    // replay arrival instants (and classes) from a file
  };

  Kind kind = Kind::kPoisson;
  /// Mean rate (kPoisson), base-state rate (kMmpp), mean rate (kDiurnal).
  double rate_per_s = 1.0;

  // --- kMmpp ------------------------------------------------------------
  double burst_rate_per_s = 4.0;
  /// Mean sojourn in the base / burst state, seconds.
  double base_sojourn_s = 60.0;
  double burst_sojourn_s = 10.0;

  // --- kDiurnal ---------------------------------------------------------
  /// rate(t) = rate_per_s * (1 + amplitude * sin(2 pi t / period_s)),
  /// amplitude in [0, 1).
  double period_s = 86400.0;
  double amplitude = 0.5;

  // --- kTrace -----------------------------------------------------------
  /// Whitespace-separated lines: `arrival_s class_index [demand_s]`.
  /// Arrival instants must be non-decreasing; a missing demand column
  /// falls back to the class's service model. '#' starts a comment.
  std::string trace_path;

  /// Long-run mean arrival rate of the configured process (trace: 0; the
  /// caller measures instead).
  [[nodiscard]] double mean_rate_per_s() const;
};

[[nodiscard]] std::string_view to_string(ArrivalProcess::Kind kind);

/// One generated arrival.
struct Arrival {
  double at_s = 0.0;          // absolute arrival instant (simulated seconds)
  std::size_t job_class = 0;  // index into the stream's class vector
  double demand_s = 0.0;      // drawn service demand (mean_s for kFixed)
};

/// Deterministic arrival generator. Per arrival the Rng is consumed in a
/// fixed order -- (1) class selection, one uniform via cumulative weights;
/// (2) service draw per the class's model; (3) interarrival draw(s) -- so
/// a caller that previously hand-rolled `bernoulli(class); exponential(gap)`
/// reproduces its historical stream exactly (bench A10's golden table).
class ArrivalStream {
 public:
  ArrivalStream(ArrivalProcess process, std::vector<JobClass> classes,
                std::uint64_t seed);

  /// Generates the next arrival. Returns false at end of stream (only
  /// trace replay ends; the stochastic processes are infinite).
  [[nodiscard]] bool next(Arrival& out);

  [[nodiscard]] const std::vector<JobClass>& classes() const {
    return classes_;
  }
  [[nodiscard]] const JobClass& job_class(std::size_t i) const {
    return classes_[i];
  }
  [[nodiscard]] const ArrivalProcess& process() const { return process_; }

 private:
  [[nodiscard]] std::size_t draw_class();
  [[nodiscard]] double draw_interarrival();
  [[nodiscard]] bool next_trace(Arrival& out);

  ArrivalProcess process_;
  std::vector<JobClass> classes_;
  std::vector<double> cumulative_;  // cumulative class probabilities
  sim::Rng rng_;
  double clock_s_ = 0.0;

  // MMPP state: 0 = base, 1 = burst.
  int mmpp_state_ = 0;
  double mmpp_sojourn_left_s_ = 0.0;
  bool mmpp_started_ = false;

  std::ifstream trace_;
  std::size_t trace_line_ = 0;
};

/// Builds the fork/join job spec of one arrival of class `cls` (wraps the
/// synthetic workload builder; demand from Arrival::demand_s).
[[nodiscard]] sched::JobSpec make_arrival_job(const JobClass& cls,
                                              const Arrival& arrival);

}  // namespace tmc::workload
