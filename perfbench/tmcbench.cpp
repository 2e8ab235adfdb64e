// tmcbench -- the program behind perfbench/run.py.
//
// Runs one benchmark workload through the simulator's public API in this
// process, single-threaded, and prints one JSON object on stdout:
//
//   * the host times of every pass (a pass runs each simulation of the
//     workload once), measured as this thread's CPU time around the calls
//     into each layer from here, and each pass's wall time;
//   * those times scaled to an idle host by a yardstick run between the
//     pieces of every pass, and the sums over the pieces of each piece's
//     median scaled time across the passes;
//   * every modelled result of the first pass as an exact decimal string,
//     and how many results of later passes differed from it;
//   * with --traced, the per-layer ledger: component counters read from a
//     metrics registry attached to every simulation of one extra pass, one
//     run recorded on a chunked timeline, and isolated probes that replay
//     the pass's counted work through the event kernel, the MMU and the
//     network on their own.
//
// run.py builds this program, checks the results against the pinned
// references and the timeline with tools/, and prints the metrics.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <memory_resource>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/machine.h"
#include "core/serve.h"
#include "mem/mmu.h"
#include "net/network.h"
#include "net/topology.h"
#include "obs/hub.h"
#include "sim/simulation.h"
#include "workload/arrivals.h"
#include "workload/batch.h"

namespace {

using namespace tmc;

/// This thread's CPU time. Time the host gives to other tenants -- other
/// processes, or the hypervisor's steal time, which the kernel subtracts --
/// does not count; a core slowed by its neighbours still does, and the
/// yardstick below accounts for that. Every host time below is CPU time
/// unless it says wall.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return time_point(duration(static_cast<rep>(ts.tv_sec) * 1'000'000'000 +
                               ts.tv_nsec));
  }
};
using Clock = CpuClock;
using WallClock = std::chrono::steady_clock;

template <class TimePoint>
double since(TimePoint start) {
  return std::chrono::duration<double>(TimePoint::clock::now() - start).count();
}

template <class TimePoint>
double between(TimePoint from, TimePoint to) {
  return std::chrono::duration<double>(to - from).count();
}

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Modelled results in emission order; every pass emits the same keys.
class Results {
 public:
  void add(std::string key, double value) {
    items_.emplace_back(std::move(key), exact(value));
  }
  void add(std::string key, std::uint64_t value) {
    items_.emplace_back(std::move(key), std::to_string(value));
  }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  /// Results of `other` that differ from these; a key present on one side
  /// only counts as a difference.
  [[nodiscard]] std::size_t differing(const Results& other) const {
    const std::size_t common = std::min(size(), other.size());
    std::size_t n = std::max(size(), other.size()) - common;
    for (std::size_t i = 0; i < common; ++i) {
      if (items_[i] != other.items_[i]) ++n;
    }
    return n;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

/// Pieces a serving run's event loop is timed in, each about 17 ms of CPU
/// on a 10k-job run.
constexpr std::uint64_t kServeSegments = 40;

/// Host seconds of one pass, split by the layer the benchmark called into.
struct HostTimes {
  double wall = 0.0;       // wall time of the pass, yardstick runs included
  double cpu = 0.0;        // every call of the pass, end to end
  double setup = 0.0;      // before the first event fires
  double construct = 0.0;  // Multicomputer construction
  double gen = 0.0;        // workload generation
  double loop = 0.0;       // the event loop
  double stats = 0.0;      // reading results and counters back
  std::uint64_t jobs = 0;  // simulated jobs completed
  std::uint64_t runs = 0;  // simulations
  /// `cpu` cut into pieces at fixed points of the simulated work: one per
  /// batch simulation, kServeSegments per serving run. Every pass cuts the
  /// same work into the same pieces.
  std::vector<double> segments;
  /// CPU seconds of each yardstick run: one before the pass and one after
  /// every segment, so segment i lies between runs i and i + 1.
  std::vector<double> yardsticks;
};

/// Ledger rows read from the metrics registry; printed even when zero.
constexpr const char* kCountRows[] = {
    "sim.events",         "sim.scheduled",          "sim.pending_peak",
    "node.cpu_busy_s",    "node.context_switches",  "node.quantum_expiries",
    "node.high_preemptions", "comm.sends",          "comm.self_sends",
    "comm.deliveries",    "comm.retries",           "comm.lost",
    "mem.allocs",         "mem.blocked",            "mem.block_s",
    "mem.peak_bytes",     "net.messages",           "net.bytes",
    "net.hops",           "net.link_queueing_s",    "net.link_util_max",
    "net.parks",          "net.worm_peak",          "sched.jobs_completed",
    "sched.gang_switches", "sched.peak_mpl",        "sched.peak_live_jobs",
    "steal.requests",     "steal.grants",           "steal.denials",
    "steal.tasks_migrated", "steal.bytes_migrated", "fault.crashes",
    "fault.drops",        "fault.job_restarts",     "fault.jobs_lost",
};

/// Per-layer counters of one pass, folded from each simulation's registry.
class Ledger {
 public:
  Ledger() {
    for (const char* row : kCountRows) values_[row] = 0.0;
  }

  void sum(const std::string& row, double v) { values_[row] += v; }
  void max(const std::string& row, double v) {
    double& slot = values_[row];
    slot = std::max(slot, v);
  }
  [[nodiscard]] double get(const std::string& row) const {
    const auto it = values_.find(row);
    return it == values_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, double>& values() const {
    return values_;
  }
  [[nodiscard]] double mean_cpu_utilization() const {
    return ratio(util_sum_, static_cast<double>(util_nodes_));
  }

  /// Adds one finished simulation's instruments. Machine-wide instruments
  /// map onto one row each; per-node, per-link and per-partition ones are
  /// summed (counts, times) or maxed (peaks) across the machine.
  void fold(const obs::Registry& registry) {
    struct Row {
      const char* row;
      bool peak;
    };
    static const std::map<std::string_view, Row> kByName = {
        {"kernel.events_fired", {"sim.events", false}},
        {"kernel.events_scheduled", {"sim.scheduled", false}},
        {"kernel.pending_peak", {"sim.pending_peak", true}},
        {"sched.completed", {"sched.jobs_completed", false}},
        {"comm.sends", {"comm.sends", false}},
        {"comm.self_sends", {"comm.self_sends", false}},
        {"comm.deliveries", {"comm.deliveries", false}},
        {"fault.retries", {"comm.retries", false}},
        {"fault.messages_lost", {"comm.lost", false}},
        {"fault.crashes", {"fault.crashes", false}},
        {"fault.drops", {"fault.drops", false}},
        {"fault.job_restarts", {"fault.job_restarts", false}},
        {"fault.jobs_failed", {"fault.jobs_lost", false}},
        {"steal.requests", {"steal.requests", false}},
        {"steal.grants", {"steal.grants", false}},
        {"steal.denials", {"steal.denials", false}},
        {"steal.tasks_migrated", {"steal.tasks_migrated", false}},
        {"steal.bytes_migrated", {"steal.bytes_migrated", false}},
        {"net.messages", {"net.messages", false}},
        {"net.bytes", {"net.bytes", false}},
        {"net.hops", {"net.hops", false}},
        {"net.parks", {"net.parks", false}},
        {"net.worm_peak", {"net.worm_peak", true}},
    };
    static const std::pair<std::string_view, Row> kBySuffix[] = {
        {".peak_mpl", {"sched.peak_mpl", true}},
        {".gang_switches", {"sched.gang_switches", false}},
        {".cpu.busy_s", {"node.cpu_busy_s", false}},
        {".cpu.context_switches", {"node.context_switches", false}},
        {".cpu.quantum_expiries", {"node.quantum_expiries", false}},
        {".cpu.high_preemptions", {"node.high_preemptions", false}},
        {".mem.allocs", {"mem.allocs", false}},
        {".mem.alloc_waits", {"mem.blocked", false}},
        {".mem.block_time_s", {"mem.block_s", false}},
        {".mem.peak_bytes", {"mem.peak_bytes", true}},
        {".queueing_s", {"net.link_queueing_s", false}},
    };
    const auto apply = [this](const Row& row, double v) {
      if (row.peak) {
        max(row.row, v);
      } else {
        sum(row.row, v);
      }
    };
    for (const obs::Registry::View& view : registry.snapshot()) {
      if (view.kind == obs::Registry::Kind::kDistribution) continue;
      const double v = view.kind == obs::Registry::Kind::kCounter
                           ? static_cast<double>(view.count)
                           : view.value;
      const std::string_view name = view.name;
      if (name.ends_with(".cpu.utilization")) {
        util_sum_ += v;
        ++util_nodes_;
      } else if (name.starts_with("link") && name.ends_with(".utilization")) {
        max("net.link_util_max", v);
      } else if (const auto it = kByName.find(name); it != kByName.end()) {
        apply(it->second, v);
      } else {
        for (const auto& [suffix, row] : kBySuffix) {
          if (name.ends_with(suffix)) {
            apply(row, v);
            break;
          }
        }
      }
    }
  }

 private:
  std::map<std::string, double> values_;
  double util_sum_ = 0.0;
  std::uint64_t util_nodes_ = 0;
};

// --- workloads ------------------------------------------------------------

/// One simulation of a workload: a closed batch driven step by step from
/// here, or a sustained open-arrival run.
struct Sim {
  std::string key;  // prefix of this simulation's result keys
  bool serve = false;
  core::ExperimentConfig batch{};
  workload::BatchOrder order = workload::BatchOrder::kInterleaved;
  core::ServeConfig serve_config{};

  [[nodiscard]] const core::MachineConfig& machine() const {
    return serve ? serve_config.machine : batch.machine;
  }
};

struct Workload {
  std::vector<Sim> pass;
  /// The run recorded on a timeline in traced mode: small enough for the
  /// Python validators to load whole.
  Sim timeline;
  /// Mesh partitions the network probe replays messages on.
  int partition_size = 16;
  int processors = 16;
  bool wormhole = false;
};

struct Seeds {
  std::uint64_t arrival = 1;
  std::uint64_t steal = 1905;
  std::uint64_t fault = 42;
};

Sim batch_sim(std::string key, core::ExperimentConfig config,
              workload::BatchOrder order) {
  Sim sim;
  sim.key = std::move(key);
  sim.batch = std::move(config);
  sim.order = order;
  return sim;
}

/// The tiny self-test size: a 3 + 1 batch instead of 12 + 4.
void shrink(core::ExperimentConfig& config) {
  config.batch.small_count = 3;
  config.batch.large_count = 1;
}

Workload paper_batch(bool tiny) {
  struct Figure {
    const char* name;
    workload::App app;
    sched::SoftwareArch arch;
  };
  constexpr Figure kFigures[] = {
      {"fig3", workload::App::kMatMul, sched::SoftwareArch::kFixed},
      {"fig4", workload::App::kMatMul, sched::SoftwareArch::kAdaptive},
      {"fig5", workload::App::kSort, sched::SoftwareArch::kFixed},
      {"fig6", workload::App::kSort, sched::SoftwareArch::kAdaptive},
  };
  constexpr net::TopologyKind kTopologies[] = {
      net::TopologyKind::kLinear, net::TopologyKind::kRing,
      net::TopologyKind::kMesh, net::TopologyKind::kHypercube};
  const std::vector<int> sizes =
      tiny ? std::vector<int>{4} : std::vector<int>{1, 2, 4, 8, 16};

  Workload w;
  for (const Figure& fig : kFigures) {
    for (const int p : sizes) {
      for (const net::TopologyKind topology : kTopologies) {
        // The figures' points: no 16-node hypercube (the paper's machine
        // could not wire one) and a single row for one-node partitions.
        if (p == 16 && topology == net::TopologyKind::kHypercube) continue;
        if (p == 1 && topology != net::TopologyKind::kLinear) continue;
        const std::string prefix =
            std::string(fig.name) + "/" +
            (p == 1 ? "1" : std::to_string(p) + net::topology_letter(topology)) +
            "/";
        auto fixed = core::figure_point(fig.app, fig.arch,
                                        sched::PolicyKind::kStatic, p, topology);
        // The paper's "TS" line: pure time-sharing at 16, hybrid below.
        const auto ts_policy = p == 16 ? sched::PolicyKind::kTimeSharing
                                       : sched::PolicyKind::kHybrid;
        auto shared = core::figure_point(fig.app, fig.arch, ts_policy, p,
                                         topology);
        if (tiny) {
          shrink(fixed);
          shrink(shared);
        }
        w.pass.push_back(batch_sim(prefix + "static_best", fixed,
                                   workload::BatchOrder::kSmallestFirst));
        w.pass.push_back(batch_sim(prefix + "static_worst", fixed,
                                   workload::BatchOrder::kLargestFirst));
        w.pass.push_back(batch_sim(prefix + (p == 16 ? "ts" : "hybrid"),
                                   shared,
                                   workload::BatchOrder::kInterleaved));
      }
    }
    if (tiny) break;
  }
  auto traced = core::figure_point(workload::App::kMatMul,
                                   sched::SoftwareArch::kFixed,
                                   sched::PolicyKind::kHybrid, 4,
                                   net::TopologyKind::kMesh);
  if (tiny) shrink(traced);
  w.timeline = batch_sim("timeline/fig3/4M/hybrid", traced,
                         workload::BatchOrder::kInterleaved);
  return w;
}

/// serve_sustained's three-tenant mix; the heavy-tailed analytics class
/// runs the stealing architecture.
std::vector<workload::JobClass> tenant_mix() {
  workload::JobClass interactive;
  interactive.name = "interactive";
  interactive.weight = 0.6;
  interactive.service.kind = workload::ServiceModel::Kind::kExponential;
  interactive.service.mean_s = 0.08;
  workload::JobClass batch;
  batch.name = "batch";
  batch.weight = 0.3;
  batch.service.kind = workload::ServiceModel::Kind::kWeibull;
  batch.service.mean_s = 0.5;
  batch.service.shape = 0.6;
  workload::JobClass analytics;
  analytics.name = "analytics";
  analytics.weight = 0.1;
  analytics.service.kind = workload::ServiceModel::Kind::kPareto;
  analytics.service.mean_s = 2.0;
  analytics.service.shape = 1.6;
  analytics.service.cap_s = 30.0;
  analytics.arch = sched::SoftwareArch::kStealing;
  return {interactive, batch, analytics};
}

Sim serve_sim(std::string key, sched::PolicyKind policy, std::uint64_t jobs,
              const Seeds& seeds) {
  Sim sim;
  sim.key = std::move(key);
  sim.serve = true;
  core::ServeConfig& c = sim.serve_config;
  c.machine.topology = net::TopologyKind::kMesh;
  c.machine.policy.kind = policy;
  c.machine.policy.partition_size = 4;
  c.machine.faults.node_rate = 1.0 / 250.0;
  c.machine.faults.seed = seeds.fault;
  c.machine.stealing.steal_rate = 10'000.0;
  c.machine.stealing.seed = seeds.steal;
  c.process.rate_per_s = 25.0;
  c.classes = tenant_mix();
  c.total_jobs = jobs;
  c.warmup_jobs = jobs / 10;
  c.max_backlog = 10'000;
  c.window_s = 10.0;
  c.seed = seeds.arrival;
  return sim;
}

Workload serve_mix(bool tiny, const Seeds& seeds) {
  const std::uint64_t jobs = tiny ? 300 : 10'000;
  Workload w;
  w.pass.push_back(serve_sim("static", sched::PolicyKind::kStatic, jobs, seeds));
  w.pass.push_back(serve_sim("hybrid", sched::PolicyKind::kHybrid, jobs, seeds));
  w.pass.push_back(
      serve_sim("adaptive", sched::PolicyKind::kAdaptiveStatic, jobs, seeds));
  w.timeline = serve_sim("timeline/hybrid", sched::PolicyKind::kHybrid,
                         tiny ? 100 : 1'000, seeds);
  w.partition_size = 4;
  return w;
}

/// fig_scaling's machine with wormhole switching: 16-node mesh partitions,
/// static, a matmul batch of 12 + 4 jobs per 16 nodes.
core::ExperimentConfig scaled(int nodes) {
  auto config = core::figure_point(
      workload::App::kMatMul, sched::SoftwareArch::kAdaptive,
      sched::PolicyKind::kStatic, 16, net::TopologyKind::kMesh);
  config.machine.processors = nodes;
  config.machine.wormhole = true;
  config.batch.small_count = 12 * nodes / 16;
  config.batch.large_count = 4 * nodes / 16;
  return config;
}

Workload scale_wormhole(bool tiny) {
  const int nodes = tiny ? 64 : 1024;
  const int traced_nodes = tiny ? 32 : 64;
  Workload w;
  w.pass.push_back(batch_sim("scale" + std::to_string(nodes), scaled(nodes),
                             workload::BatchOrder::kInterleaved));
  w.timeline = batch_sim("timeline/scale" + std::to_string(traced_nodes),
                         scaled(traced_nodes),
                         workload::BatchOrder::kInterleaved);
  w.processors = nodes;
  w.wormhole = true;
  return w;
}

/// Canonical text of everything that shapes a simulation's inputs.
std::string describe(const Sim& sim) {
  const core::MachineConfig& m = sim.machine();
  std::ostringstream os;
  os << sim.key << " P=" << m.processors << " " << m.label() << " "
     << m.policy.label() << (m.wormhole ? " wormhole" : " store-forward");
  if (sim.serve) {
    const core::ServeConfig& c = sim.serve_config;
    os << " jobs=" << c.total_jobs << " warmup=" << c.warmup_jobs
       << " rate=" << c.process.rate_per_s << " backlog=" << c.max_backlog
       << " seed=" << c.seed << " steal=" << m.stealing.steal_rate << "/"
       << m.stealing.seed << " fault=" << m.faults.node_rate << "/"
       << m.faults.seed;
    for (const workload::JobClass& cls : c.classes) {
      os << " " << cls.name << ":" << cls.weight << ":"
         << workload::to_string(cls.service.kind) << ":" << cls.service.mean_s
         << ":" << cls.service.shape << ":" << cls.service.cap_s << ":"
         << sched::to_string(cls.arch);
    }
  } else {
    const workload::BatchParams& b = sim.batch.batch;
    os << " " << workload::to_string(b.app) << " "
       << sched::to_string(b.arch) << " " << b.small_count << "+"
       << b.large_count << " " << workload::to_string(sim.order);
  }
  return os.str() + "\n";
}

std::string config_digest(const Workload& w) {
  std::string text;
  for (const Sim& sim : w.pass) text += describe(sim);
  text += describe(w.timeline);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// --- running one simulation -----------------------------------------------

void run_batch_sim(const Sim& sim, obs::Hub* hub, HostTimes& t, Results& out,
                   Ledger* ledger) {
  const auto start = Clock::now();
  {
    core::MachineConfig config = sim.batch.machine;
    config.obs = hub;
    core::Multicomputer machine(config);
    const auto built = Clock::now();
    std::vector<sched::JobSpec> specs =
        workload::make_batch(sim.batch.batch, sim.order);
    std::vector<std::unique_ptr<sched::Job>> jobs;
    jobs.reserve(specs.size());
    sched::JobId next_id = 1;
    for (sched::JobSpec& spec : specs) {
      jobs.push_back(std::make_unique<sched::Job>(next_id++, std::move(spec)));
    }
    const auto generated = Clock::now();
    // The whole batch arrives together at t = 0 (paper section 5.1).
    for (const auto& job : jobs) machine.submit(*job);
    const auto submitted = Clock::now();
    machine.run_to_completion();
    const auto ran = Clock::now();

    const core::MachineStats stats = machine.stats();
    sim::OnlineStats all;
    sim::OnlineStats small;
    sim::OnlineStats large;
    double makespan = 0.0;
    double wait = 0.0;
    for (const auto& job : jobs) {
      if (!job->completed()) {
        throw std::logic_error(sim.key + ": a job did not complete");
      }
      const double response = job->response_time().to_seconds();
      all.add(response);
      (job->spec().large ? large : small).add(response);
      makespan = std::max(makespan, job->completion_time().to_seconds());
      wait += job->wait_time().to_seconds();
    }
    std::uint64_t allocs = 0;
    for (int n = 0; n < config.processors; ++n) {
      allocs += machine.mmu(n).alloc_count();
    }
    const std::string& k = sim.key;
    out.add(k + "/mrt", all.mean());
    out.add(k + "/mrt_small", small.mean());
    out.add(k + "/mrt_large", large.mean());
    out.add(k + "/makespan", makespan);
    out.add(k + "/msgs", stats.messages);
    out.add(k + "/hops", stats.total_hops);
    out.add(k + "/allocs", allocs);
    out.add(k + "/blocked", stats.mem_blocked_requests);
    out.add(k + "/ctxsw", stats.context_switches);

    t.construct += between(start, built);
    t.gen += between(built, generated);
    t.setup += between(start, submitted);
    t.loop += between(submitted, ran);
    t.stats += since(ran);
    t.jobs += jobs.size();
    ++t.runs;
    if (ledger != nullptr) {
      ledger->fold(hub->registry());
      ledger->sum("sched.wait_sum_s", wait);
      ledger->sum("workload.jobs", static_cast<double>(jobs.size()));
      ledger->max("sched.peak_live_jobs", static_cast<double>(jobs.size()));
    }
  }
  const double cpu = since(start);
  t.cpu += cpu;
  t.segments.push_back(cpu);
}

volatile double g_sink = 0.0;

/// splitmix64: the benchmark's own deterministic stream.
std::uint64_t next_random(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- the yardstick ---------------------------------------------------------

/// The yardstick's nominal CPU time, about what it takes on an idle host
/// (a 4-vCPU Intel Xeon VM, gcc 12 -O3). Scaled times read as seconds on a
/// host where the yardstick takes this long.
constexpr double kYardstickIdleS = 0.2e-3;

/// A type-erased piece of work, called through a virtual function as the
/// simulator calls its event callbacks.
struct YardstickTask {
  virtual ~YardstickTask() = default;
  [[nodiscard]] virtual std::uint64_t run() const = 0;
};

template <int Shift>
struct ShiftTask final : YardstickTask {
  std::array<std::uint64_t, 8> words{};
  explicit ShiftTask(std::uint64_t r) { words.fill(r); }
  [[nodiscard]] std::uint64_t run() const override {
    return (words[0] >> Shift) ^ words[7];
  }
};

/// Fixed work that gauges how fast the host runs this thread right now:
/// pool allocation and release, virtual calls and branchy integer work, the
/// mix the simulator spends its time on. On a shared host, neighbours slow
/// the simulator's CPU time itself (core and cache sharing) by up to 1.7x,
/// in spells of seconds to minutes; measured here, they slow the yardstick
/// by most of that factor (log-slope 0.75 against the simulator's slowdown,
/// correlation 0.98). It allocates from its own arena, fresh for every run, and
/// warms its caches before it is timed, so nothing the simulator does
/// changes its work. Returns the CPU seconds of its median round.
double yardstick() {
  alignas(64) static std::array<std::byte, 256 * 1024> storage;
  std::pmr::monotonic_buffer_resource arena(storage.data(), storage.size(),
                                            std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&arena);
  using Object = std::array<std::uint64_t, 12>;
  std::pmr::vector<YardstickTask*> calls(&pool);
  std::pmr::vector<Object*> objects(&pool);
  std::uint64_t state = 5;
  std::uint64_t acc = 0;
  const auto step = [&] {
    const std::uint64_t r = next_random(state);
    void* slot_memory = pool.allocate(sizeof(Object), alignof(Object));
    auto* object = new (slot_memory) Object{};
    (*object)[r % 12] = r;
    if (objects.size() < 64) {
      objects.push_back(object);
    } else {
      Object*& slot = objects[r % 64];
      pool.deallocate(slot, sizeof(Object), alignof(Object));
      slot = object;
    }
    void* at = pool.allocate(sizeof(ShiftTask<3>), alignof(ShiftTask<3>));
    YardstickTask* task = nullptr;
    if ((r & 2) != 0) {
      task = new (at) ShiftTask<3>(r);
    } else {
      task = new (at) ShiftTask<5>(r);
    }
    calls.push_back(task);
    if (calls.size() > 64) {
      const std::size_t i = r % calls.size();
      YardstickTask* done = calls[i];
      acc += done->run();
      done->~YardstickTask();
      pool.deallocate(done, sizeof(ShiftTask<3>), alignof(ShiftTask<3>));
      calls.erase(calls.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if ((r & 1) != 0) acc += (r >> 3) % 7 == 0 ? r : (r >> 5);
  };
  for (int i = 0; i < 500; ++i) step();
  // Three timed rounds; the median drops a round an interrupt landed in.
  std::vector<double> rounds;
  for (int round = 0; round < 3; ++round) {
    const auto start = Clock::now();
    for (int i = 0; i < 1'500; ++i) step();
    rounds.push_back(since(start));
  }
  for (YardstickTask* task : calls) task->~YardstickTask();
  g_sink = static_cast<double>(acc);
  return median(std::move(rounds));
}

/// Host time to generate a serving run's whole input: the arrival stream
/// and each arrival's job spec, as run_sustained draws them.
double generate_arrivals(const core::ServeConfig& c) {
  const auto start = Clock::now();
  workload::ArrivalStream stream(c.process, c.classes, c.seed);
  workload::Arrival arrival;
  double demand = 0.0;
  for (std::uint64_t i = 0; i < c.total_jobs && stream.next(arrival); ++i) {
    const sched::JobSpec spec =
        workload::make_arrival_job(c.classes[arrival.job_class], arrival);
    demand += spec.demand_estimate.to_seconds();
  }
  g_sink = demand;
  return since(start);
}

void run_serve_sim(const Sim& sim, obs::Hub* hub, HostTimes& t, Results& out,
                   Ledger* ledger) {
  const core::ServeConfig& base = sim.serve_config;
  // run_sustained builds this machine and stream before its first event but
  // does not expose that instant: time the same construction here. It takes
  // microseconds, so take the median of several.
  std::vector<double> construct;
  std::vector<double> setup;
  for (int rep = 0; rep < 7; ++rep) {
    const auto start = Clock::now();
    const core::Multicomputer machine(base.machine);
    const auto built = Clock::now();
    const workload::ArrivalStream stream(base.process, base.classes, base.seed);
    construct.push_back(between(start, built));
    setup.push_back(since(start));
  }
  t.construct += median(construct);
  t.setup += median(setup);
  t.gen += generate_arrivals(base);

  core::ServeConfig config = base;
  config.machine.obs = hub;
  // End a segment every 1/kServeSegments of the completions and run the
  // yardstick there, outside the timed pieces.
  double loop = 0.0;
  auto from = Clock::now();
  const auto end_segment = [&t, &loop, &from] {
    const double piece = since(from);
    t.segments.push_back(piece);
    loop += piece;
  };
  config.checkpoint_every =
      std::max<std::uint64_t>(1, base.total_jobs / kServeSegments);
  config.checkpoint = [&](const core::ServeCheckpoint&) {
    end_segment();
    t.yardsticks.push_back(yardstick());
    from = Clock::now();
  };
  from = Clock::now();
  const core::ServeResult r = core::run_sustained(config);
  end_segment();
  t.loop += loop;
  t.cpu += loop;
  t.jobs += r.completed;
  ++t.runs;

  const std::string k = sim.key + "/";
  for (const core::ClassServeStats& cls : r.classes) {
    const std::string c = k + cls.name + "/";
    out.add(c + "offered", cls.offered);
    out.add(c + "shed", cls.shed);
    out.add(c + "completed", cls.completed);
    out.add(c + "lost", cls.lost);
    out.add(c + "mrt", cls.response_s.mean());
    out.add(c + "p50", cls.response_q.p50.value());
    out.add(c + "p95", cls.response_q.p95.value());
    out.add(c + "p99", cls.response_q.p99.value());
  }
  out.add(k + "offered", r.offered);
  out.add(k + "admitted", r.admitted);
  out.add(k + "shed", r.shed);
  out.add(k + "completed", r.completed);
  out.add(k + "jobs_lost", r.jobs_lost);
  out.add(k + "measured", r.measured);
  out.add(k + "mrt", r.response_s.mean());
  out.add(k + "p50", r.response_q.p50.value());
  out.add(k + "p95", r.response_q.p95.value());
  out.add(k + "p99", r.response_q.p99.value());
  out.add(k + "horizon", r.horizon_s);
  out.add(k + "peak_live_jobs", static_cast<std::uint64_t>(r.peak_live_jobs));
  const core::MachineStats& m = r.machine;
  out.add(k + "msgs", m.messages);
  out.add(k + "self_sends", m.self_sends);
  out.add(k + "hops", m.total_hops);
  out.add(k + "blocked", m.mem_blocked_requests);
  out.add(k + "ctxsw", m.context_switches);
  out.add(k + "steal_requests", m.steals.requests);
  out.add(k + "steal_grants", m.steals.grants);
  out.add(k + "steal_denials", m.steals.denials);
  out.add(k + "tasks_migrated", m.steals.tasks_migrated);
  out.add(k + "crashes", m.faults.crashes);
  out.add(k + "repairs", m.faults.repairs);
  out.add(k + "retries", m.faults.retries);
  out.add(k + "msgs_lost", m.faults.messages_lost);
  out.add(k + "restarts", m.faults.job_restarts);
  out.add(k + "jobs_failed", m.faults.jobs_failed);

  if (ledger != nullptr) {
    ledger->fold(hub->registry());
    ledger->sum("workload.jobs", static_cast<double>(r.offered));
    ledger->sum("sched.offered", static_cast<double>(r.offered));
    ledger->sum("sched.shed", static_cast<double>(r.shed));
    ledger->max("sched.peak_live_jobs", static_cast<double>(r.peak_live_jobs));
  }
}

void run_sim(const Sim& sim, obs::Hub* hub, HostTimes& t, Results& out,
             Ledger* ledger) {
  if (sim.serve) {
    run_serve_sim(sim, hub, t, out, ledger);
  } else {
    run_batch_sim(sim, hub, t, out, ledger);
  }
}

/// Every pass's scaled times, by position: each segment scaled by the mean
/// of the yardstick runs on either side of it, each simulation's setup by
/// the run before it. The reported times sum each position's median over
/// the passes.
struct Scaled {
  std::vector<std::vector<double>> segments;  // [pass][segment]
  std::vector<std::vector<double>> setups;    // [pass][simulation]

  static double sum_of_medians(const std::vector<std::vector<double>>& passes) {
    double total = 0.0;
    for (std::size_t i = 0; i < passes.front().size(); ++i) {
      std::vector<double> at;
      for (const std::vector<double>& pass : passes) at.push_back(pass[i]);
      total += median(std::move(at));
    }
    return total;
  }
};

/// One pass. With a ledger, every simulation gets its own registry-only
/// hub; with `scaled`, the pass's scaled times are added to it.
HostTimes run_pass(const Workload& w, Results& out, Ledger* ledger,
                   Scaled* scaled = nullptr) {
  HostTimes t;
  const auto start = WallClock::now();
  std::vector<double> setups;
  t.yardsticks.push_back(yardstick());
  for (const Sim& sim : w.pass) {
    const double setup_before = t.setup;
    const std::size_t first = t.segments.size();
    if (ledger == nullptr) {
      run_sim(sim, nullptr, t, out, nullptr);
    } else {
      obs::Hub hub{obs::Options{}};
      run_sim(sim, &hub, t, out, ledger);
    }
    t.yardsticks.push_back(yardstick());
    setups.push_back((t.setup - setup_before) * kYardstickIdleS /
                     t.yardsticks[first]);
  }
  t.wall = since(start);
  if (t.yardsticks.size() != t.segments.size() + 1) {
    throw std::logic_error("a segment has no yardstick run after it");
  }
  std::vector<double> segments;
  for (std::size_t i = 0; i < t.segments.size(); ++i) {
    segments.push_back(t.segments[i] * 2.0 * kYardstickIdleS /
                       (t.yardsticks[i] + t.yardsticks[i + 1]));
  }
  if (scaled != nullptr) {
    if (!scaled->segments.empty() &&
        scaled->segments.front().size() != segments.size()) {
      throw std::logic_error("passes were cut into different segments");
    }
    scaled->segments.push_back(std::move(segments));
    scaled->setups.push_back(std::move(setups));
  }
  return t;
}

struct TimelineRun {
  double untraced_loop_s = 0.0;
  double traced_loop_s = 0.0;
  double export_s = 0.0;
  std::uint64_t records = 0;
  std::size_t compared = 0;
  std::size_t differing = 0;
};

/// Runs the timeline simulation three times untraced and once with a
/// registry and a chunked timeline written to `path`; the traced results
/// must equal the untraced ones.
TimelineRun record_timeline(const Sim& sim, const std::string& path) {
  TimelineRun run;
  Results base;
  std::vector<double> loops;
  for (int rep = 0; rep < 3; ++rep) {
    HostTimes t;
    Results r;
    run_sim(sim, nullptr, t, r, nullptr);
    loops.push_back(t.loop);
    if (rep == 0) {
      base = std::move(r);
    } else {
      run.compared += base.size();
      run.differing += base.differing(r);
    }
  }
  run.untraced_loop_s = median(loops);

  obs::Options options;
  options.timeline_path = path;
  options.timeline_chunk = 65'536;
  obs::Hub hub(options);
  HostTimes t;
  Results traced;
  run_sim(sim, &hub, t, traced, nullptr);
  run.traced_loop_s = t.loop;
  run.compared += base.size();
  run.differing += base.differing(traced);
  run.records = hub.track_registry().flushed_records() +
                hub.track_registry().records().size();
  const auto start = Clock::now();
  std::ostringstream diag;
  if (!hub.write_outputs(diag)) {
    throw std::runtime_error("timeline export failed: " + diag.str());
  }
  run.export_s = since(start);
  return run;
}

// --- isolated layer probes -------------------------------------------------

/// Event kernel alone: `depth` self-rescheduling chains firing `events`
/// events in total.
double sim_probe(std::size_t depth, std::uint64_t events) {
  struct Tick {
    sim::Simulation* sim;
    std::uint64_t* remaining;
    std::uint64_t* state;
    void operator()() const {
      if (*remaining == 0) return;
      --*remaining;
      const auto delay = static_cast<std::int64_t>(1 + next_random(*state) % 1000);
      sim->schedule(sim::SimTime::nanoseconds(delay), Tick{*this});
    }
  };
  sim::Simulation sim;
  std::uint64_t remaining = events;
  std::uint64_t state = 1;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
    sim.schedule(sim::SimTime::nanoseconds(static_cast<std::int64_t>(i)),
                 Tick{&sim, &remaining, &state});
  }
  sim.run();
  return since(start);
}

/// One node's MMU alone: `allocs` requests of `bytes`, each granted through
/// the event queue, holding the last eight blocks.
double mem_probe(std::uint64_t allocs, std::size_t bytes,
                 const core::MachineConfig& m) {
  struct Chain {
    mem::Mmu* mmu;
    std::array<mem::Block, 8>* held;
    std::uint64_t* remaining;
    std::size_t bytes;
    void request() const {
      if (*remaining == 0) return;
      --*remaining;
      mmu->request(bytes, mem::Mmu::Grant(*this));
    }
    void operator()(mem::Block block) const {
      (*held)[*remaining % held->size()] = std::move(block);
      request();
    }
  };
  sim::Simulation sim;
  mem::Mmu mmu(sim, m.memory_per_node, m.mmu_service, m.mmu_discipline);
  std::array<mem::Block, 8> held;
  std::uint64_t remaining = allocs;
  const std::size_t size =
      std::clamp<std::size_t>(bytes, 1, m.memory_per_node / 16);
  const auto start = Clock::now();
  Chain{&mmu, &held, &remaining, size}.request();
  sim.run();
  return since(start);
}

/// The network alone: `messages` point-to-point messages of `bytes` between
/// random node pairs of one partition, injected one wave per machine size.
double net_probe(std::uint64_t messages, std::size_t bytes, const Workload& w,
                 const core::MachineConfig& m) {
  const int p = w.partition_size;
  sim::Simulation sim;
  const net::Topology topo =
      net::Topology::tiled(net::TopologyKind::kMesh, p, w.processors / p);
  std::vector<std::unique_ptr<mem::Mmu>> mmus;
  std::vector<mem::Mmu*> nodes;
  for (int n = 0; n < w.processors; ++n) {
    mmus.push_back(std::make_unique<mem::Mmu>(
        sim, m.memory_per_node, m.mmu_service, m.mmu_discipline));
    nodes.push_back(mmus.back().get());
  }
  std::unique_ptr<net::Network> network;
  if (w.wormhole) {
    network = std::make_unique<net::WormholeNetwork>(sim, topo, nodes,
                                                     m.network);
  } else {
    network = std::make_unique<net::StoreForwardNetwork>(sim, topo, nodes,
                                                         m.network);
  }
  std::uint64_t delivered = 0;
  network->set_delivery_handler(
      [&delivered](const net::Message&, mem::Block) { ++delivered; });
  const std::size_t size =
      std::clamp<std::size_t>(bytes, 1, m.memory_per_node / 64);
  const auto machine = static_cast<std::uint64_t>(w.processors);
  const auto partition = static_cast<std::uint64_t>(p);
  std::uint64_t state = 7;
  std::uint64_t sent = 0;
  const auto start = Clock::now();
  while (sent < messages) {
    const std::uint64_t wave = std::min(messages - sent, machine);
    for (std::uint64_t i = 0; i < wave; ++i) {
      const std::uint64_t src = next_random(state) % machine;
      const std::uint64_t first = src - src % partition;
      const std::uint64_t dst =
          first + (src - first + 1 + next_random(state) % (partition - 1)) %
                      partition;
      std::optional<mem::Block> payload =
          nodes[static_cast<std::size_t>(src)]->try_alloc(size);
      if (!payload) throw std::runtime_error("net probe: source MMU full");
      net::Message msg;
      msg.id = ++sent;
      msg.src_node = static_cast<net::NodeId>(src);
      msg.dst_node = static_cast<net::NodeId>(dst);
      msg.bytes = size;
      network->send(msg, std::move(*payload));
    }
    sim.run();
  }
  const double elapsed = since(start);
  if (delivered != messages) {
    throw std::runtime_error("net probe: messages were not all delivered");
  }
  return elapsed;
}

// --- command line and output -----------------------------------------------

struct Options {
  std::string workload;
  double seconds = 10.0;
  Seeds seeds;
  bool traced = false;
  bool tiny = false;
  std::string timeline_path;
};

[[noreturn]] void usage(int code) {
  (code == 0 ? std::cout : std::cerr)
      << "usage: tmcbench --workload paper_batch|serve_mix|scale_wormhole\n"
         "                [--seconds S] [--arrival-seed N] [--steal-seed N]\n"
         "                [--fault-seed N] [--tiny]\n"
         "                [--traced --timeline PATH]\n";
  std::exit(code);
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    std::cerr << "tmcbench: " << flag << " wants a non-negative integer\n";
    usage(2);
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "tmcbench: " << arg << " needs a value\n";
        usage(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seconds") {
      const char* text = value();
      char* end = nullptr;
      opt.seconds = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(opt.seconds > 0.0)) {
        std::cerr << "tmcbench: --seconds wants a positive number\n";
        usage(2);
      }
    } else if (arg == "--arrival-seed") {
      opt.seeds.arrival = parse_u64(arg, value());
    } else if (arg == "--steal-seed") {
      opt.seeds.steal = parse_u64(arg, value());
    } else if (arg == "--fault-seed") {
      opt.seeds.fault = parse_u64(arg, value());
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--timeline") {
      opt.timeline_path = value();
    } else {
      std::cerr << "tmcbench: unknown flag '" << arg << "'\n";
      usage(2);
    }
  }
  if (opt.workload != "paper_batch" && opt.workload != "serve_mix" &&
      opt.workload != "scale_wormhole") {
    std::cerr << "tmcbench: unknown workload '" << opt.workload << "'\n";
    usage(2);
  }
  if (opt.traced && opt.timeline_path.empty()) {
    std::cerr << "tmcbench: --traced needs --timeline PATH\n";
    usage(2);
  }
  return opt;
}

Workload make_workload(const Options& opt) {
  if (opt.workload == "paper_batch") return paper_batch(opt.tiny);
  if (opt.workload == "serve_mix") return serve_mix(opt.tiny, opt.seeds);
  return scale_wormhole(opt.tiny);
}

/// Resident-set high-water mark of this process, MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    const Workload w = make_workload(opt);

    std::vector<HostTimes> passes;
    Scaled scaled;
    Results first;
    std::size_t compared = 0;
    std::size_t differing = 0;
    const auto start = WallClock::now();
    while (passes.size() < 2 || since(start) < opt.seconds) {
      Results r;
      passes.push_back(run_pass(w, r, nullptr, &scaled));
      if (passes.size() == 1) {
        first = std::move(r);
      } else {
        compared += first.size();
        differing += first.differing(r);
      }
    }
    const double rss_mb = peak_rss_mb();

    std::ostringstream os;
    os << "{\"workload\": " << json_string(opt.workload)
       << ", \"config_digest\": " << json_string(config_digest(w))
       << ", \"compiler\": " << json_string(kCompiler)
       << ", \"build_type\": " << json_string(TMCBENCH_BUILD_TYPE)
       << ", \"seeds\": {\"arrival\": " << opt.seeds.arrival
       << ", \"steal\": " << opt.seeds.steal
       << ", \"fault\": " << opt.seeds.fault << "}"
       << ", \"peak_rss_mb\": " << exact(rss_mb)
       << ", \"yardstick_idle_s\": " << exact(kYardstickIdleS)
       << ", \"scaled_cpu_s\": "
       << exact(Scaled::sum_of_medians(scaled.segments))
       << ", \"scaled_setup_s\": "
       << exact(Scaled::sum_of_medians(scaled.setups))
       << ", \"segments\": " << scaled.segments.front().size()
       << ", \"passes\": [";
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const HostTimes& t = passes[i];
      os << (i == 0 ? "" : ", ") << "{\"wall_s\": " << exact(t.wall)
         << ", \"cpu_s\": " << exact(t.cpu)
         << ", \"yardstick_s\": " << exact(median(t.yardsticks))
         << ", \"setup_s\": " << exact(t.setup)
         << ", \"construct_s\": " << exact(t.construct)
         << ", \"gen_s\": " << exact(t.gen) << ", \"loop_s\": " << exact(t.loop)
         << ", \"stats_s\": " << exact(t.stats) << ", \"jobs\": " << t.jobs
         << ", \"runs\": " << t.runs << "}";
    }
    os << "]";

    if (opt.traced) {
      Ledger ledger;
      Results traced;
      const HostTimes traced_times = run_pass(w, traced, &ledger);
      compared += first.size();
      differing += first.differing(traced);
      const TimelineRun tl = record_timeline(w.timeline, opt.timeline_path);
      compared += tl.compared;
      differing += tl.differing;

      const core::MachineConfig& machine = w.pass.front().machine();
      const double events = ledger.get("sim.events");
      const double messages = ledger.get("net.messages");
      const auto mean_bytes = static_cast<std::size_t>(
          ratio(ledger.get("net.bytes"), messages));
      const double sim_iso = sim_probe(
          static_cast<std::size_t>(ledger.get("sim.pending_peak")),
          static_cast<std::uint64_t>(events));
      const double mem_iso = mem_probe(
          static_cast<std::uint64_t>(ledger.get("mem.allocs")),
          mean_bytes + machine.network.header_bytes, machine);
      const double net_iso = net_probe(
          static_cast<std::uint64_t>(ledger.get("comm.sends") -
                                     ledger.get("comm.self_sends")),
          mean_bytes, w, machine);

      auto collect = [&passes](double HostTimes::*field) {
        std::vector<double> v;
        for (const HostTimes& t : passes) v.push_back(t.*field);
        return median(v);
      };
      const double loop_s = collect(&HostTimes::loop);
      const double jobs = static_cast<double>(traced_times.jobs);
      std::map<std::string, double> layers = ledger.values();
      layers.erase("sched.wait_sum_s");
      layers.erase("sched.offered");
      layers.erase("sched.shed");
      layers["core.construct_s"] = collect(&HostTimes::construct);
      layers["core.loop_s"] = loop_s;
      layers["core.stats_s"] = collect(&HostTimes::stats);
      layers["core.runs"] = static_cast<double>(traced_times.runs);
      layers["workload.gen_s"] = collect(&HostTimes::gen);
      layers["sim.events_per_job"] = ratio(events, jobs);
      layers["sim.fire_ratio"] = ratio(events, ledger.get("sim.scheduled"));
      layers["sim.ns_per_event"] = ratio(loop_s * 1e9, events);
      layers["sim.iso_s"] = sim_iso;
      layers["node.cpu_util"] = ledger.mean_cpu_utilization();
      layers["mem.blocked_ratio"] =
          ratio(ledger.get("mem.blocked"), ledger.get("mem.allocs"));
      layers["mem.iso_s"] = mem_iso;
      layers["net.hops_per_msg"] = ratio(ledger.get("net.hops"), messages);
      layers["net.iso_s"] = net_iso;
      layers["sched.shed_frac"] =
          ratio(ledger.get("sched.shed"), ledger.get("sched.offered"));
      if (!w.pass.front().serve) {
        // Serving runs keep their jobs inside run_sustained; run.py takes
        // their wait from the reconciled timeline report instead.
        layers["sched.wait_s"] =
            ratio(ledger.get("sched.wait_sum_s"), ledger.get("workload.jobs"));
      }
      layers["steal.grant_ratio"] =
          ratio(ledger.get("steal.grants"), ledger.get("steal.requests"));
      layers["obs.overhead_ratio"] =
          ratio(tl.traced_loop_s, tl.untraced_loop_s);
      layers["obs.timeline_records"] = static_cast<double>(tl.records);
      layers["obs.export_s"] = tl.export_s;

      os << ", \"layers\": {";
      bool first_layer = true;
      for (const auto& [name, v] : layers) {
        os << (first_layer ? "" : ", ") << json_string(name) << ": "
           << exact(v);
        first_layer = false;
      }
      os << "}";
    }

    os << ", \"compared\": " << compared << ", \"differing\": " << differing
       << ", \"results\": {";
    bool first_result = true;
    for (const auto& [key, value] : first.items()) {
      os << (first_result ? "" : ", ") << json_string(key) << ": "
         << json_string(value);
      first_result = false;
    }
    os << "}}\n";
    std::cout << os.str();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "tmcbench: " << e.what() << "\n";
    return 1;
  }
}
