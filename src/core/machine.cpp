#include "core/machine.h"

#include <stdexcept>
#include <string>

#include "obs/hub.h"
#include "obs/job_trace.h"

namespace tmc::core {

std::string MachineConfig::label() const {
  return std::to_string(policy.partition_size) +
         net::topology_letter(topology);
}

namespace {

sched::PolicyConfig normalize_policy(const MachineConfig& cfg) {
  sched::PolicyConfig policy = cfg.policy;
  if (policy.kind == sched::PolicyKind::kTimeSharing ||
      policy.kind == sched::PolicyKind::kAdaptiveStatic) {
    // One machine-wide network: pure TS multiprograms the whole machine;
    // adaptive space-sharing carves buddy blocks out of it.
    policy.partition_size = cfg.processors;
  }
  if (policy.partition_size <= 0 ||
      cfg.processors % policy.partition_size != 0) {
    throw std::invalid_argument("partition size must divide machine size");
  }
  return policy;
}

}  // namespace

Multicomputer::Multicomputer(MachineConfig config)
    : cfg_(std::move(config)),
      topo_(net::Topology::tiled(
          cfg_.topology, normalize_policy(cfg_).partition_size,
          cfg_.processors / normalize_policy(cfg_).partition_size)) {
  cfg_.policy = normalize_policy(cfg_);

  mmus_.reserve(static_cast<std::size_t>(cfg_.processors));
  cpus_.reserve(static_cast<std::size_t>(cfg_.processors));
  std::vector<mem::Mmu*> mmu_ptrs;
  mmu_ptrs.reserve(static_cast<std::size_t>(cfg_.processors));
  cpu_ptrs_.reserve(static_cast<std::size_t>(cfg_.processors));
  for (int i = 0; i < cfg_.processors; ++i) {
    mem::Mmu& mmu = mmus_.emplace_back(sim_, cfg_.memory_per_node,
                                       cfg_.mmu_service, cfg_.mmu_discipline);
    node::Transputer& cpu = cpus_.emplace_back(sim_, i, mmu, cfg_.cpu);
    mmu_ptrs.push_back(&mmu);
    cpu_ptrs_.push_back(&cpu);
  }

  if (cfg_.wormhole) {
    network_ = std::make_unique<net::WormholeNetwork>(sim_, topo_, mmu_ptrs,
                                                      cfg_.network);
  } else {
    network_ = std::make_unique<net::StoreForwardNetwork>(
        sim_, topo_, mmu_ptrs, cfg_.network);
  }
  comm_ = std::make_unique<node::CommSystem>(sim_, *network_, cpu_ptrs_,
                                             cfg_.comm);

  if (cfg_.stealing.enabled()) {
    steal_engine_ = std::make_unique<sched::stealing::Engine>(
        sim_, *comm_, network_->routing(), cpu_ptrs_, cfg_.stealing);
  }

  if (cfg_.policy.kind == sched::PolicyKind::kAdaptiveStatic) {
    scheduler_ = std::make_unique<sched::AdaptiveScheduler>(
        sim_, cpu_ptrs_, *comm_, cfg_.policy, cfg_.partition_sched);
  } else {
    std::vector<sched::PartitionScheduler*> ps_ptrs;
    for (auto& part : sched::equal_partitions(cfg_.processors,
                                              cfg_.policy.partition_size)) {
      partition_scheds_.push_back(std::make_unique<sched::PartitionScheduler>(
          sim_, std::move(part), cpu_ptrs_, *comm_, cfg_.policy,
          cfg_.partition_sched));
      ps_ptrs.push_back(partition_scheds_.back().get());
    }
    scheduler_ =
        std::make_unique<sched::SuperScheduler>(sim_, ps_ptrs, cfg_.policy);
  }

  if (cfg_.faults.enabled()) {
    fault_mgr_ =
        std::make_unique<fault::FaultManager>(sim_, topo_, cfg_.faults);
    network_->set_fault_plane(fault_mgr_.get());
    comm_->enable_faults(
        fault_mgr_.get(), cfg_.faults.retry_budget,
        sim::SimTime::nanoseconds(
            static_cast<std::int64_t>(cfg_.faults.retry_backoff_s * 1e9)),
        [fm = fault_mgr_.get()] { return fm->jitter(); },
        [this](sched::JobId job) {
          // Deferred one event: the retry budget can exhaust deep inside a
          // delivery stack, and the abort tears that very stack's objects
          // down. on_job_comm_failure tolerates an already-gone job.
          sim_.schedule(sim::SimTime::zero(), [this, job] {
            scheduler_->on_job_comm_failure(job);
          });
        });
    scheduler_->enable_fault_mode(cfg_.faults.restart_budget);
    fault::FaultCallbacks cb;
    cb.node_crash = [this](net::NodeId n) {
      cpus_[static_cast<std::size_t>(n)].crash();
    };
    cb.node_repair = [this](net::NodeId n) {
      cpus_[static_cast<std::size_t>(n)].restore();
      network_->kick();  // traffic stalled behind the dead router moves again
    };
    cb.node_detected = [this](net::NodeId n, bool down) {
      if (down) {
        scheduler_->on_node_down(n);
      } else {
        scheduler_->on_node_up(n);
      }
    };
    cb.link_changed = [this](net::LinkId, bool up) {
      if (up) network_->kick();
    };
    fault_mgr_->set_callbacks(std::move(cb));
    fault_mgr_->start();
  }

  if (cfg_.obs != nullptr) wire_observability();
}

void Multicomputer::wire_observability() {
  obs::Hub& hub = *cfg_.obs;
  obs::Registry& reg = hub.registry();
  hub.set_label(cfg_.label() + " " + cfg_.policy.label() +
                (cfg_.wormhole ? " wormhole" : " store-forward"));

  // --- event-kernel self-profile ----------------------------------------
  reg.probe("kernel.events_fired",
            [this] { return static_cast<double>(sim_.fired_events()); });
  // Every silent step: quantum boundaries and folded switch ends alike.
  reg.probe("kernel.quantum_steps",
            [this] { return static_cast<double>(sim_.steps_taken()); });
  reg.probe("kernel.events_scheduled",
            [this] { return static_cast<double>(sim_.scheduled_events()); });
  reg.probe("kernel.pending_peak", [this] {
    return static_cast<double>(sim_.peak_pending_events());
  });
  reg.probe("kernel.end_time_s", [this] { return sim_.now().to_seconds(); });

  // --- scheduling hierarchy ---------------------------------------------
  reg.probe("sched.submitted",
            [this] { return static_cast<double>(scheduler_->submitted()); });
  reg.probe("sched.completed",
            [this] { return static_cast<double>(scheduler_->completed()); });
  reg.probe("sched.backlog",
            [this] { return static_cast<double>(scheduler_->queued_jobs()); });
  for (std::size_t p = 0; p < partition_scheds_.size(); ++p) {
    sched::PartitionScheduler* ps = partition_scheds_[p].get();
    const std::string prefix = "partition" + std::to_string(p);
    reg.probe(prefix + ".active_jobs",
              [ps] { return static_cast<double>(ps->active_jobs()); });
    reg.probe(prefix + ".peak_mpl", [ps] {
      return static_cast<double>(ps->peak_multiprogramming());
    });
    reg.probe(prefix + ".jobs_completed",
              [ps] { return static_cast<double>(ps->jobs_completed()); });
    reg.probe(prefix + ".gang_switches",
              [ps] { return static_cast<double>(ps->gang_switches()); });
  }

  // --- fault subsystem ----------------------------------------------------
  if (fault_mgr_ != nullptr) {
    fault::FaultManager* fm = fault_mgr_.get();
    reg.probe("fault.crashes",
              [fm] { return static_cast<double>(fm->stats().crashes); });
    reg.probe("fault.repairs",
              [fm] { return static_cast<double>(fm->stats().repairs); });
    reg.probe("fault.link_downs",
              [fm] { return static_cast<double>(fm->stats().link_downs); });
    reg.probe("fault.drops",
              [fm] { return static_cast<double>(fm->stats().drops); });
    reg.probe("fault.alive_nodes",
              [fm] { return static_cast<double>(fm->alive_nodes()); });
    reg.probe("fault.mtbf_observed_s",
              [fm] { return fm->stats().mtbf_observed_s; });
    reg.probe("fault.mttr_observed_s",
              [fm] { return fm->stats().mttr_observed_s; });
    reg.probe("fault.retries",
              [this] { return static_cast<double>(comm_->retries()); });
    reg.probe("fault.messages_lost",
              [this] { return static_cast<double>(comm_->messages_lost()); });
    reg.probe("fault.job_restarts", [this] {
      return static_cast<double>(scheduler_->job_restarts());
    });
    reg.probe("fault.jobs_failed", [this] {
      return static_cast<double>(scheduler_->jobs_failed());
    });
  }

  // --- work-stealing runtime ----------------------------------------------
  if (steal_engine_ != nullptr) {
    sched::stealing::Engine* eng = steal_engine_.get();
    reg.probe("steal.requests",
              [eng] { return static_cast<double>(eng->stats().requests); });
    reg.probe("steal.grants",
              [eng] { return static_cast<double>(eng->stats().grants); });
    reg.probe("steal.denials",
              [eng] { return static_cast<double>(eng->stats().denials); });
    reg.probe("steal.tasks_migrated", [eng] {
      return static_cast<double>(eng->stats().tasks_migrated);
    });
    reg.probe("steal.bytes_migrated", [eng] {
      return static_cast<double>(eng->stats().bytes_migrated);
    });
  }

  // --- communication system ---------------------------------------------
  reg.probe("comm.sends",
            [this] { return static_cast<double>(comm_->sends()); });
  reg.probe("comm.self_sends",
            [this] { return static_cast<double>(comm_->self_sends()); });
  reg.probe("comm.deliveries",
            [this] { return static_cast<double>(comm_->deliveries()); });
  reg.probe("comm.mailbox_pending", [this] {
    return static_cast<double>(comm_->pending_mailbox_messages());
  });
  reg.probe("comm.mailbox_bytes", [this] {
    return static_cast<double>(comm_->pending_mailbox_bytes());
  });

  // --- network ----------------------------------------------------------
  reg.probe("net.messages",
            [this] { return static_cast<double>(network_->messages_sent()); });
  reg.probe("net.delivered", [this] {
    return static_cast<double>(network_->messages_delivered());
  });
  reg.probe("net.bytes",
            [this] { return static_cast<double>(network_->bytes_sent()); });
  reg.probe("net.hops",
            [this] { return static_cast<double>(network_->total_hops()); });
  network_->set_metrics(reg.counter("net.parks"));
  if (const auto* wh =
          dynamic_cast<const net::WormholeNetwork*>(network_.get())) {
    reg.probe("net.worm_peak", [wh] {
      return static_cast<double>(wh->peak_worms_in_flight());
    });
    reg.probe("net.worm_pool_capacity", [wh] {
      return static_cast<double>(wh->worm_pool_capacity());
    });
    reg.probe("net.worm_pool_growths", [wh] {
      return static_cast<double>(wh->worm_pool_growths());
    });
  }

  // --- per-node CPU and memory ------------------------------------------
  for (int i = 0; i < cfg_.processors; ++i) {
    node::Transputer* cpu = &cpus_[static_cast<std::size_t>(i)];
    mem::Mmu* mmu = &mmus_[static_cast<std::size_t>(i)];
    const std::string prefix = "node" + std::to_string(i);
    reg.probe(prefix + ".cpu.utilization",
              [cpu] { return cpu->utilization(); });
    reg.probe(prefix + ".cpu.busy_s",
              [cpu] { return cpu->busy_time().to_seconds(); });
    reg.probe(prefix + ".cpu.context_switches",
              [cpu] { return static_cast<double>(cpu->context_switches()); });
    reg.probe(prefix + ".cpu.quantum_expiries",
              [cpu] { return static_cast<double>(cpu->quantum_expiries()); });
    reg.probe(prefix + ".cpu.high_preemptions",
              [cpu] { return static_cast<double>(cpu->high_preemptions()); });
    reg.probe(prefix + ".mem.free_bytes",
              [mmu] { return static_cast<double>(mmu->bytes_free()); });
    reg.probe(prefix + ".mem.peak_bytes",
              [mmu] { return static_cast<double>(mmu->high_watermark()); });
    reg.probe(prefix + ".mem.allocs",
              [mmu] { return static_cast<double>(mmu->alloc_count()); });
    reg.probe(prefix + ".mem.block_time_s",
              [mmu] { return mmu->total_block_time().to_seconds(); });
    reg.probe(prefix + ".mem.alloc_waits",
              [mmu] { return static_cast<double>(mmu->blocked_count()); });
    mmu->set_metrics(
        reg.distribution(prefix + ".mem.grant_wait_s", 0.0, 1.0, 50));
  }

  // --- per-link traffic --------------------------------------------------
  for (int l = 0; l < network_->link_count(); ++l) {
    const net::Link* lk = &network_->link(l);
    const std::string prefix = "link" + std::to_string(l);
    reg.probe(prefix + ".transfers",
              [lk] { return static_cast<double>(lk->transfers()); });
    reg.probe(prefix + ".bytes",
              [lk] { return static_cast<double>(lk->bytes_carried()); });
    reg.probe(prefix + ".queueing_s",
              [lk] { return lk->queueing_time().to_seconds(); });
    reg.probe(prefix + ".utilization",
              [lk, this] { return lk->utilization(sim_.now()); });
  }

  // --- timeline tracks and sampled channels ------------------------------
  // `tl` is the recording timeline (null unless --timeline was given);
  // `names` is the hub's track registry, used for track/name registration
  // even when only the JSONL metrics stream is active, so the stream can
  // label its channels without buffering a single record.
  obs::Timeline* tl = hub.timeline();
  if (tl == nullptr && hub.metrics_stream() == nullptr) return;
  obs::Timeline* names = &hub.track_registry();
  obs::Sampler& sampler = hub.sampler();
  sampler.configure(tl, hub.options().sample_interval);
  if (hub.metrics_stream() != nullptr) {
    sampler.set_stream(hub.metrics_stream(), names);
  }

  const obs::NameId n_ready = names->intern("ready");
  const obs::NameId n_free = names->intern("free_bytes");
  const obs::NameId n_util = names->intern("utilization");
  const obs::NameId n_jobs = names->intern("active_jobs");
  const obs::NameId n_pending = names->intern("pending_events");
  const obs::NameId n_mailbox = names->intern("mailbox_pending");

  obs::TrackId node_track_base = 0;
  for (int i = 0; i < cfg_.processors; ++i) {
    node::Transputer* cpu = &cpus_[static_cast<std::size_t>(i)];
    mem::Mmu* mmu = &mmus_[static_cast<std::size_t>(i)];
    const obs::TrackId track =
        names->add_track(obs::TrackKind::kNode, "node" + std::to_string(i));
    if (i == 0) node_track_base = track;
    cpu->set_timeline(tl, track);
    mmu->set_timeline(tl, track);
    sampler.add_channel(
        [cpu] { return static_cast<double>(cpu->ready_count()); }, track,
        n_ready);
    sampler.add_channel(
        [mmu] { return static_cast<double>(mmu->bytes_free()); }, track,
        n_free);
  }

  obs::TrackId link_base = 0;
  for (int l = 0; l < network_->link_count(); ++l) {
    const net::Topology::LinkEnds ends = topo_.link_ends(l);
    const obs::TrackId track = names->add_track(
        obs::TrackKind::kLink, "link" + std::to_string(l) + " " +
                                   std::to_string(ends.from) + "->" +
                                   std::to_string(ends.to));
    if (l == 0) link_base = track;
    const net::Link* lk = &network_->link(l);
    sampler.add_channel([lk, this] { return lk->utilization(sim_.now()); },
                        track, n_util);
  }
  const obs::TrackId net_track =
      names->add_track(obs::TrackKind::kGlobal, "network");
  network_->set_timeline(tl, link_base, net_track);

  for (std::size_t p = 0; p < partition_scheds_.size(); ++p) {
    sched::PartitionScheduler* ps = partition_scheds_[p].get();
    const obs::TrackId track = names->add_track(
        obs::TrackKind::kPartition, "partition" + std::to_string(p));
    ps->set_timeline(tl, track);
    sampler.add_channel(
        [ps] { return static_cast<double>(ps->active_jobs()); }, track,
        n_jobs);
  }

  const obs::TrackId machine_track =
      names->add_track(obs::TrackKind::kGlobal, "machine");
  sampler.add_channel(
      [this] { return static_cast<double>(sim_.pending_events()); },
      machine_track, n_pending);
  sampler.add_channel(
      [this] {
        return static_cast<double>(comm_->pending_mailbox_messages());
      },
      machine_track, n_mailbox);

  if (fault_mgr_ != nullptr) {
    const obs::TrackId fault_track =
        names->add_track(obs::TrackKind::kGlobal, "faults");
    fault_mgr_->set_timeline(tl, fault_track);
  }

  // --- per-job lifecycle spans and cross-node flow arrows -----------------
  // Only when the timeline is *recording*: job spans and flow events are
  // per-event data, far too voluminous for the registry/stream-only paths,
  // and the JSONL stream has no use for them.
  if (tl != nullptr) {
    job_tracer_ = std::make_unique<obs::JobTracer>(*tl, cfg_.job_class_names);
    scheduler_->set_job_tracer(job_tracer_.get());
    comm_->set_timeline(tl, node_track_base);
    if (steal_engine_ != nullptr) {
      steal_engine_->set_timeline(tl, node_track_base);
      steal_engine_->set_job_tracer(job_tracer_.get());
    }
  }
}

void Multicomputer::submit(sched::Job& job) {
  if (steal_engine_ != nullptr &&
      job.spec().arch == sched::SoftwareArch::kStealing &&
      job.spec().tasklet_builder) {
    steal_engine_->adopt(job);
  }
  scheduler_->submit(job);
}

Multicomputer::~Multicomputer() {
  // Freeze any probes still pointing at components before those components
  // go away (covers runs abandoned without reaching run_to_completion's own
  // finish_run call; freezing twice is harmless).
  if (cfg_.obs != nullptr) cfg_.obs->finish_run(sim_.now());
  // If the machine is torn down with work in flight (e.g. after a modelled
  // deadlock), pending events and blocked allocation requests still own
  // Blocks referencing the MMUs. Drain both sets -- each discard round can
  // release memory and enqueue new grants, so iterate to a fixed point --
  // before member destruction begins.
  bool again = true;
  while (again) {
    again = sim_.discard_pending() > 0;
    for (auto& mmu : mmus_) {
      again = mmu.discard_pending() > 0 || again;
    }
  }
}

std::uint64_t Multicomputer::run_to_completion() {
  // Step (rather than run_until) so the clock stops at the last event:
  // utilisations are then measured over the actual makespan, not the
  // watchdog horizon.
  std::uint64_t fired = 0;
  obs::Sampler* sampler =
      cfg_.obs != nullptr && cfg_.obs->sampler().active()
          ? &cfg_.obs->sampler()
          : nullptr;
  // The fault processes rearm themselves forever, so a faulty machine never
  // goes idle on its own: once every job is complete and only fault-process
  // bookkeeping remains in the queue, the run is over. Stale resend events
  // (if any) outnumber the fault bookkeeping and drain first, keeping the
  // stop instant deterministic.
  const auto fault_only_left = [this] {
    return fault_mgr_ != nullptr && scheduler_->all_done() &&
           sim_.pending_events() <= fault_mgr_->pending_events();
  };
  if (sampler != nullptr) {
    // Same loop with sample instants interleaved: the sampler records every
    // channel at each interval tick strictly before the next event fires,
    // and never schedules events itself, so the event sequence -- and with
    // it every golden table -- is identical to the unsampled loop below.
    // The next kernel action may be a silent quantum step; stepping only up
    // to its instant keeps every sample on the same side of it as one
    // event per quantum would.
    while (!sim_.idle() && sim_.next_event_time() <= cfg_.max_sim_time) {
      if (fault_only_left()) break;
      const sim::SimTime next = sim_.next_event_time();
      sampler->advance_to(next);
      if (sim_.step_until(next)) ++fired;
    }
  } else {
    while (!fault_only_left() && sim_.step_until(cfg_.max_sim_time)) {
      ++fired;
    }
  }
  if (cfg_.obs != nullptr) cfg_.obs->finish_run(sim_.now());
  if (!scheduler_->all_done()) {
    const char* why = sim_.idle() ? "modelled deadlock" : "watchdog expired";
    std::string detail =
        std::string("simulation ended with unfinished jobs (") + why +
        "): " + std::to_string(scheduler_->completed()) + "/" +
        std::to_string(scheduler_->submitted()) + " complete, " +
        std::to_string(scheduler_->queued_jobs()) + " queued, t=" +
        std::to_string(sim_.now().to_seconds()) + "s, " +
        std::to_string(sim_.pending_events()) + " pending events, " +
        std::to_string(network_->parked_messages()) + " parked messages";
    std::uint64_t mem_waiters = 0;
    for (const auto& mmu : mmus_) mem_waiters += mmu.pending_requests();
    detail += ", " + std::to_string(mem_waiters) + " memory waiters";
    if (fault_mgr_ != nullptr) {
      detail += ", " + std::to_string(fault_mgr_->alive_nodes()) + "/" +
                std::to_string(fault_mgr_->node_count()) + " nodes alive";
    }
    throw std::runtime_error(detail);
  }
  return fired;
}

MachineStats Multicomputer::stats() {
  MachineStats s;
  s.events = sim_.fired_events();
  s.quantum_steps = sim_.steps_taken();
  s.scheduled_events = sim_.scheduled_events();
  s.peak_pending_events = sim_.peak_pending_events();
  s.messages = comm_->sends();
  s.self_sends = comm_->self_sends();
  s.total_hops = network_->total_hops();
  for (const auto& cpu : cpus_) {
    s.avg_cpu_utilization += cpu.utilization();
    s.context_switches += cpu.context_switches();
    s.high_preemptions += cpu.high_preemptions();
    s.quantum_expiries += cpu.quantum_expiries();
  }
  s.avg_cpu_utilization /= static_cast<double>(cpus_.size());
  for (const auto& mmu : mmus_) {
    s.peak_node_memory = std::max(s.peak_node_memory, mmu.high_watermark());
    s.mem_blocked_requests += mmu.blocked_count();
    s.mem_block_time += mmu.total_block_time();
  }
  s.max_link_utilization = network_->max_link_utilization(sim_.now());
  if (fault_mgr_ != nullptr) {
    s.faults = fault_mgr_->stats();
    s.faults.retries = comm_->retries();
    s.faults.messages_lost = comm_->messages_lost();
    s.faults.job_restarts = scheduler_->job_restarts();
    s.faults.jobs_failed = scheduler_->jobs_failed();
  }
  if (steal_engine_ != nullptr) s.steals = steal_engine_->stats();
  return s;
}

}  // namespace tmc::core
