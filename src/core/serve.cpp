#include "core/serve.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>

#include "obs/hub.h"
#include "sched/admission.h"

namespace tmc::core {
namespace {

/// Per-job-slot bookkeeping, recycled with the job id.
struct SlotMeta {
  int job_class = 0;
  bool measured = false;
};

}  // namespace

ServeResult run_sustained(const ServeConfig& config) {
  if (config.classes.empty()) {
    throw std::invalid_argument("serving needs at least one job class");
  }
  if (config.total_jobs == 0) {
    throw std::invalid_argument("total_jobs must be positive");
  }
  if (config.window_s <= 0.0) {
    throw std::invalid_argument("window_s must be positive");
  }

  // The default watchdog is sized for minute-long closed batches; a
  // million-job stream runs for total/rate simulated seconds. Give the run
  // generous headroom past its expected horizon instead of making every
  // caller do the arithmetic.
  MachineConfig machine_config = config.machine;
  machine_config.job_class_names.clear();
  for (const workload::JobClass& cls : config.classes) {
    machine_config.job_class_names.push_back(cls.name);
  }
  const double mean_rate = config.process.mean_rate_per_s();
  if (mean_rate > 0.0) {
    const double expected_s =
        static_cast<double>(config.total_jobs) / mean_rate;
    const auto required = sim::SimTime::seconds(
        static_cast<std::int64_t>(4.0 * expected_s) + 600);
    if (machine_config.max_sim_time < required) {
      machine_config.max_sim_time = required;
    }
  }

  Multicomputer machine(machine_config);
  workload::ArrivalStream stream(config.process, config.classes, config.seed);
  sched::AdmissionControl admission(config.max_backlog, config.classes.size());

  ServeResult result;
  result.classes.reserve(config.classes.size());
  for (std::size_t i = 0; i < config.classes.size(); ++i) {
    result.classes.emplace_back(
        config.classes[i].name, config.reservoir_capacity,
        config.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
  }
  sim::WindowedRate completions(sim::SimTime::nanoseconds(
      static_cast<std::int64_t>(config.window_s * 1e9)));

  // SLO accounting: `slo_of[class]` maps a tenant class to its target index
  // (or -1, untracked). The tracker lives here -- not on the hub -- so the
  // summary is identical for every run of a sweep, instrumented or not.
  obs::SloTracker slo(config.slo_targets);
  std::vector<int> slo_of(config.classes.size(), -1);
  for (std::size_t t = 0; t < config.slo_targets.size(); ++t) {
    bool found = false;
    for (std::size_t c = 0; c < config.classes.size(); ++c) {
      if (config.classes[c].name == config.slo_targets[t].job_class) {
        slo_of[c] = static_cast<int>(t);
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::invalid_argument("slo target names unknown class '" +
                                  config.slo_targets[t].job_class + "'");
    }
  }

  // With a hub attached (and its sampler armed), the SLO state also streams:
  // one kGlobal track per target carrying attainment, budget burn and the
  // streaming p99 stretch. Channels read the tracker, which outlives the
  // run (the sampler drops its readers at finish_run).
  if (obs::Hub* hub = machine_config.obs;
      hub != nullptr && slo.size() > 0 &&
      (hub->timeline() != nullptr || hub->metrics_stream() != nullptr)) {
    obs::Timeline& names = hub->track_registry();
    obs::Sampler& sampler = hub->sampler();
    const obs::NameId n_attainment = names.intern("attainment");
    const obs::NameId n_burn = names.intern("budget_burn");
    const obs::NameId n_stretch = names.intern("stretch_p99");
    for (std::size_t t = 0; t < slo.size(); ++t) {
      const obs::TrackId track = names.add_track(
          obs::TrackKind::kGlobal,
          "slo:" + slo.classes()[t].target.job_class);
      sampler.add_channel([&slo, t] { return slo.attainment(t); }, track,
                          n_attainment);
      sampler.add_channel([&slo, t] { return slo.budget_burn(t); }, track,
                          n_burn);
      sampler.add_channel(
          [&slo, t] { return slo.classes()[t].stretch_q.p99.value(); }, track,
          n_stretch);
    }
  }

  // Live-job arena: slot i holds the job with id i+1. Ids of retired jobs
  // are recycled (free_ids) so the arena -- and the comm system's per-job
  // endpoint windows, which are keyed by id -- stay bounded by the peak
  // number of jobs simultaneously in the system, not by the stream length.
  std::vector<std::unique_ptr<sched::Job>> slots;
  std::vector<SlotMeta> meta;
  std::vector<sched::JobId> free_ids;
  // Jobs completed since the last arrival. Completion fires inside the
  // scheduler's teardown event, so the Job is destroyed at the *next*
  // arrival instead (deferred retirement), never under its own stack.
  std::vector<sched::JobId> retirable;
  std::size_t live = 0;
  std::uint64_t offered = 0;

  machine.scheduler().set_completion_observer([&](sched::Job& job) {
    const auto slot = static_cast<std::size_t>(job.id() - 1);
    ClassServeStats& cls = result.classes[static_cast<std::size_t>(
        meta[slot].job_class)];
    ++cls.completed;
    ++result.completed;
    completions.record(machine.sim().now());
    // A job that burned through its restart budget leaves as a loss: the
    // slot retires normally (completed covers it, keeping the id arena and
    // the completed == admitted invariant intact) but its "response time"
    // describes abandonment, not service, so it never enters the statistics.
    const bool failed = job.failed();
    if (failed) {
      ++cls.lost;
      ++result.jobs_lost;
    }
    if (meta[slot].measured && !failed) {
      const double response_s = job.response_time().to_seconds();
      const double demand_s = job.spec().demand_estimate.to_seconds();
      const double stretch = response_s / demand_s;
      ++cls.measured;
      ++result.measured;
      cls.response_s.add(response_s);
      cls.stretch.add(stretch);
      cls.response_q.add(response_s);
      cls.stretch_q.add(stretch);
      cls.response_sample.add(response_s);
      result.response_s.add(response_s);
      result.stretch.add(stretch);
      result.response_q.add(response_s);
      const int target = slo_of[static_cast<std::size_t>(
          meta[slot].job_class)];
      if (target >= 0) {
        slo.record(static_cast<std::size_t>(target), response_s, stretch);
      }
    }
    retirable.push_back(job.id());
    if (config.checkpoint_every != 0 && config.checkpoint &&
        result.completed % config.checkpoint_every == 0) {
      config.checkpoint({offered, result.completed, admission.shed(), live,
                         machine.sim().now().to_seconds()});
    }
  });

  std::function<void(const workload::Arrival&)> on_arrival;
  auto schedule_next = [&] {
    if (offered >= config.total_jobs) return;
    workload::Arrival arrival;
    if (!stream.next(arrival)) return;  // trace exhausted
    machine.sim().schedule_at(
        sim::SimTime::nanoseconds(
            static_cast<std::int64_t>(arrival.at_s * 1e9)),
        [&on_arrival, arrival] { on_arrival(arrival); });
  };
  on_arrival = [&](const workload::Arrival& arrival) {
    // Retire jobs that completed since the previous arrival.
    for (const sched::JobId id : retirable) {
      const auto slot = static_cast<std::size_t>(id - 1);
      assert(slots[slot] && slots[slot]->completed());
      slots[slot].reset();
      free_ids.push_back(id);
      --live;
    }
    retirable.clear();

    ++offered;
    const bool measured = offered > config.warmup_jobs;
    ++result.classes[arrival.job_class].offered;
    // Admission keys on jobs in the system (queued + running = `live`, and
    // retirement just ran so it is current), not the scheduler's central
    // queue: time-shared policies park arrivals inside partitions, so the
    // central queue can stay empty while memory grows.
    // Under faults, shed against *surviving* capacity: a machine that lost
    // a quarter of its nodes can drain proportionally less backlog, and
    // holding admission at the full-machine bound just converts the episode
    // into an unbounded queue. Fault-free runs never enter this branch, so
    // their admission decisions are bit-identical to before.
    if (fault::FaultManager* fm = machine.fault_manager();
        fm != nullptr && config.max_backlog != 0) {
      const auto alive = static_cast<std::size_t>(fm->alive_nodes());
      const auto total = static_cast<std::size_t>(fm->node_count());
      admission.set_max_backlog(
          std::max<std::size_t>(1, config.max_backlog * alive / total));
    }
    if (admission.admit(live, arrival.job_class)) {
      sched::JobId id;
      if (free_ids.empty()) {
        id = static_cast<sched::JobId>(slots.size() + 1);
        slots.emplace_back();
        meta.emplace_back();
      } else {
        id = free_ids.back();
        free_ids.pop_back();
      }
      const auto slot = static_cast<std::size_t>(id - 1);
      sched::JobSpec spec =
          config.make_job(config.classes[arrival.job_class], arrival);
      spec.job_class = static_cast<int>(arrival.job_class);
      slots[slot] = std::make_unique<sched::Job>(id, std::move(spec));
      meta[slot] = {static_cast<int>(arrival.job_class), measured};
      ++live;
      result.peak_live_jobs = std::max(result.peak_live_jobs, live);
      machine.submit(*slots[slot]);
    }
    schedule_next();
  };

  schedule_next();
  machine.run_to_completion();

  completions.finish(machine.sim().now());
  result.window_rate = completions.rates();
  result.horizon_s = machine.sim().now().to_seconds();
  result.offered = admission.offered();
  result.admitted = admission.admitted();
  result.shed = admission.shed();
  for (std::size_t i = 0; i < result.classes.size(); ++i) {
    result.classes[i].shed = admission.shed_in_class(i);
  }
  assert(result.completed == result.admitted);
  // Safe to move now: run_to_completion already dropped the sampler readers
  // pointing at the local tracker (finish_run).
  result.slo = std::move(slo);
  result.machine = machine.stats();
  return result;
}

}  // namespace tmc::core
