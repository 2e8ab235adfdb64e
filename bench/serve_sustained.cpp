// Sustained serving: millions of jobs through the open-arrival loop.
//
// The figure benches answer the paper's closed-batch question; this bench
// runs the production-shaped one: a long-lived multi-tenant stream --
// interactive / batch / analytics classes with exponential, heavy-tailed
// Weibull and truncated-Pareto service demands -- served for a configured
// number of jobs under each policy, with O(1)-memory streaming statistics
// (P-squared percentiles, weighted reservoirs, windowed completion rates)
// and an admission gate bounding the backlog. The table on stdout is
// deterministic (bit-identical at any --threads); wall-clock throughput
// and resident-memory checkpoints go to stderr and, with --json, into a
// Google-Benchmark-shaped report that CI gates against BENCH_serving.json.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/report.h"
#include "core/serve.h"
#include "core/sweep_runner.h"
#include "figure_common.h"

namespace {

using namespace tmc;

struct ServeOptions {
  std::uint64_t jobs = 1'000'000;
  std::uint64_t warmup = 10'000;
  bool quick = false;
  double rate = 25.0;
  std::string process = "poisson";
  std::string policy = "all";
  int threads = 1;
  std::size_t backlog = 10'000;
  double window_s = 10.0;
  std::uint64_t seed = 1;
  std::string json_path;
  bool rss_check = false;
  obs::Options obs;
  fault::FaultConfig faults;
  sched::stealing::StealParams stealing;
};

ServeOptions parse(int argc, char** argv) {
  ServeOptions opt;
  const auto words = [](std::initializer_list<std::string_view> list) {
    std::vector<std::pair<std::string_view, std::string>> out;
    for (const std::string_view w : list) out.emplace_back(w, w);
    return out;
  };
  cli::Table table("serve_sustained",
                   {cli::Family::kThreads, cli::Family::kObs,
                    cli::Family::kSlo, cli::Family::kFault,
                    cli::Family::kSteal});
  table
      .add({
          cli::integer<std::uint64_t>("--jobs", "N", opt.jobs,
                                      "arrivals to serve (default 1000000)",
                                      1),
          cli::integer("--warmup", "N", opt.warmup,
                       "arrivals excluded from stats (default 10000,\n"
                       "clamped to jobs/10)"),
          cli::toggle("--quick", opt.quick,
                      "golden-test preset: jobs 4000, warmup 400\n"
                      "(explicit --jobs/--warmup still win)"),
          cli::real("--rate", "R", opt.rate,
                    "mean arrivals per simulated second (default 25)",
                    cli::positive()),
          cli::choice("--process", opt.process,
                      words({"poisson", "mmpp", "diurnal"}),
                      "arrival process (default poisson)"),
          cli::choice("--policy", opt.policy,
                      words({"static", "hybrid", "adaptive", "all"}),
                      "policies to serve (default all)"),
          cli::threads(opt.threads),
          cli::integer("--backlog", "N", opt.backlog,
                       "admission backlog bound, 0 = unbounded\n"
                       "(default 10000)"),
          cli::real("--window", "S", opt.window_s,
                    "completion-rate window, simulated seconds\n"
                    "(default 10)",
                    cli::positive()),
          cli::integer("--seed", "N", opt.seed, "stream seed (default 1)"),
          cli::text("--json", "PATH", opt.json_path,
                    "write a Google-Benchmark-shaped report"),
          cli::toggle("--rss-check", opt.rss_check,
                      "fail (exit 1) unless resident memory is flat\n"
                      "from 25% of the run to the end (needs --threads 1)"),
      })
      .add(obs::cli_flags(opt.obs))
      .add(fault::cli_flags(opt.faults))
      .add(sched::stealing::cli_flags(opt.stealing))
      .parse_or_exit(argc, argv);
  if (opt.quick) {
    if (!table.was_set("--jobs")) opt.jobs = 4'000;
    if (!table.was_set("--warmup")) opt.warmup = 400;
  }
  opt.warmup = std::min(opt.warmup, opt.jobs / 10);
  if (opt.rss_check && opt.threads != 1) {
    std::cerr << "serve_sustained: --rss-check needs --threads 1 (resident "
                 "memory is per-process)\n";
    std::exit(2);
  }
  return opt;
}

/// The 3-class tenant mix: latency-sensitive interactive traffic, a
/// heavy-tailed batch tier (Weibull shape < 1), and rare long analytics
/// jobs with a truncated Pareto tail.
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
  return {interactive, batch, analytics};
}

workload::ArrivalProcess make_process(const ServeOptions& opt) {
  workload::ArrivalProcess process;
  process.rate_per_s = opt.rate;
  if (opt.process == "mmpp") {
    process.kind = workload::ArrivalProcess::Kind::kMmpp;
    process.burst_rate_per_s = 2.0 * opt.rate;
    process.base_sojourn_s = 120.0;
    process.burst_sojourn_s = 20.0;
  } else if (opt.process == "diurnal") {
    process.kind = workload::ArrivalProcess::Kind::kDiurnal;
    process.period_s = 3600.0;
    process.amplitude = 0.5;
  }
  return process;
}

/// Current resident set from /proc/self/statm, in MB (0 if unreadable).
double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long total_pages = 0;
  long resident_pages = 0;
  if (!(statm >> total_pages >> resident_pages)) return 0.0;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

struct PolicyRun {
  std::string name;
  core::ServeResult result;
  double wall_s = 0.0;
  double rss_quarter_mb = 0.0;  // resident set at 25% of completions
  double rss_end_mb = 0.0;
};

std::string fmt_count(std::uint64_t n) { return std::to_string(n); }

/// Runs the configured policies and prints the report; returns the exit
/// code. Throws std::invalid_argument when the serving config is invalid
/// (for example an --slo target naming a class outside the tenant mix).
int serve(const ServeOptions& opt) {
  bench::ObsSession obs(opt.obs);

  struct PolicyChoice {
    const char* name;
    sched::PolicyKind kind;
  };
  std::vector<PolicyChoice> policies;
  if (opt.policy == "all" || opt.policy == "static") {
    policies.push_back({"static", sched::PolicyKind::kStatic});
  }
  if (opt.policy == "all" || opt.policy == "hybrid") {
    policies.push_back({"hybrid", sched::PolicyKind::kHybrid});
  }
  if (opt.policy == "all" || opt.policy == "adaptive") {
    policies.push_back({"adaptive", sched::PolicyKind::kAdaptiveStatic});
  }

  std::cout << "Sustained serving: " << opt.process << " arrivals at "
            << core::fmt_ratio(opt.rate) << "/s, 3-class tenant mix "
            << "(interactive/batch/analytics),\n"
            << opt.jobs << " jobs (" << opt.warmup
            << " warm-up), backlog bound " << opt.backlog << ", seed "
            << opt.seed << ", partition size 4.\n";

  core::SweepRunner runner(opt.threads);
  std::vector<PolicyRun> runs(policies.size());
  bool first = true;
  std::vector<core::ServeConfig> configs(policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    core::ServeConfig& config = configs[i];
    config.machine.topology = net::TopologyKind::kMesh;
    config.machine.policy.kind = policies[i].kind;
    config.machine.policy.partition_size = 4;
    config.process = make_process(opt);
    config.classes = tenant_mix();
    if (opt.stealing.enabled()) {
      // A steal rate moves the heavy-tailed analytics stragglers -- the
      // jobs with work worth rebalancing -- onto the stealing
      // architecture; interactive/batch keep the adaptive scripts.
      for (workload::JobClass& cls : config.classes) {
        if (cls.name == "analytics") {
          cls.arch = sched::SoftwareArch::kStealing;
        }
      }
    }
    config.total_jobs = opt.jobs;
    config.warmup_jobs = opt.warmup;
    config.max_backlog = opt.backlog;
    config.window_s = opt.window_s;
    config.seed = opt.seed;
    config.slo_targets = opt.obs.slo;
    config.machine.faults = opt.faults;
    config.machine.stealing = opt.stealing;
    // RSS checkpoints: 20 per run, read by the wall-clock side only (the
    // deterministic table never sees them).
    config.checkpoint_every = std::max<std::uint64_t>(opt.jobs / 20, 1);
    obs.attach(config.machine, first);
    first = false;
  }
  const auto outcomes = runner.map(
      policies.size(), [&](std::size_t i) -> PolicyRun {
        PolicyRun run;
        run.name = policies[i].name;
        core::ServeConfig config = configs[i];
        const std::uint64_t quarter_at = config.total_jobs / 4;
        config.checkpoint = [&run,
                             quarter_at](const core::ServeCheckpoint& at) {
          const double mb = rss_mb();
          if (run.rss_quarter_mb == 0.0 && at.completed >= quarter_at) {
            run.rss_quarter_mb = mb;
          }
          run.rss_end_mb = mb;
        };
        const auto t0 = std::chrono::steady_clock::now();
        run.result = core::run_sustained(config);
        run.wall_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
        return run;
      });
  for (std::size_t i = 0; i < outcomes.size(); ++i) runs[i] = outcomes[i];

  // --- deterministic report (stdout) ------------------------------------
  core::Table table({"policy", "class", "offered", "shed", "mrt (s)", "p50",
                     "p95", "p99", "stretch p50", "p95", "p99"});
  for (const PolicyRun& run : runs) {
    for (const auto& cls : run.result.classes) {
      table.add_row({run.name, cls.name, fmt_count(cls.offered),
                     fmt_count(cls.shed), core::fmt_seconds(cls.response_s.mean()),
                     core::fmt_seconds(cls.response_q.p50.value()),
                     core::fmt_seconds(cls.response_q.p95.value()),
                     core::fmt_seconds(cls.response_q.p99.value()),
                     core::fmt_ratio(cls.stretch_q.p50.value()),
                     core::fmt_ratio(cls.stretch_q.p95.value()),
                     core::fmt_ratio(cls.stretch_q.p99.value())});
    }
    table.add_row({run.name, "all", fmt_count(run.result.offered),
                   fmt_count(run.result.shed),
                   core::fmt_seconds(run.result.response_s.mean()),
                   core::fmt_seconds(run.result.response_q.p50.value()),
                   core::fmt_seconds(run.result.response_q.p95.value()),
                   core::fmt_seconds(run.result.response_q.p99.value()),
                   core::fmt_ratio(run.result.stretch.mean()), "-", "-"});
  }
  std::cout << "\n";
  table.print(std::cout);

  // --- per-class SLO attainment block (only when targets were given) ----
  if (!opt.obs.slo.empty()) {
    core::Table slo_table({"policy", "class", "target (s)", "objective %",
                           "attainment %", "burn", "met", "measured"});
    for (const PolicyRun& run : runs) {
      const obs::SloTracker& slo = run.result.slo;
      for (std::size_t t = 0; t < slo.size(); ++t) {
        const auto& cls = slo.classes()[t];
        slo_table.add_row(
            {run.name, cls.target.job_class,
             core::fmt_seconds(cls.target.target_s),
             core::fmt_ratio(cls.target.objective * 100.0),
             core::fmt_ratio(run.result.slo.attainment(t) * 100.0),
             core::fmt_ratio(run.result.slo.budget_burn(t)),
             fmt_count(cls.met), fmt_count(cls.completed)});
      }
    }
    std::cout << "\nSLO attainment (measured completions; burn = miss rate "
                 "over allowed miss rate):\n\n";
    slo_table.print(std::cout);
  }

  // --- fault episode block (only with fault injection on) ---------------
  if (opt.faults.enabled()) {
    core::Table fault_table({"policy", "crashes", "repairs", "mtbf (s)",
                             "mttr (s)", "retries", "msgs lost", "restarts",
                             "jobs lost"});
    for (const PolicyRun& run : runs) {
      const fault::FaultStats& f = run.result.machine.faults;
      fault_table.add_row(
          {run.name, fmt_count(f.crashes), fmt_count(f.repairs),
           core::fmt_seconds(f.mtbf_observed_s),
           core::fmt_seconds(f.mttr_observed_s), fmt_count(f.retries),
           fmt_count(f.messages_lost), fmt_count(f.job_restarts),
           fmt_count(run.result.jobs_lost)});
    }
    std::cout << "\nFault episodes (jobs lost = restart budget exhausted; "
                 "losses are excluded\nfrom the response statistics above):\n\n";
    fault_table.print(std::cout);
  }

  core::Table volume({"policy", "completed", "sim jobs/s", "peak live jobs",
                      "horizon (s)"});
  for (const PolicyRun& run : runs) {
    volume.add_row({run.name, fmt_count(run.result.completed),
                    core::fmt_ratio(run.result.window_rate.mean()),
                    fmt_count(run.result.peak_live_jobs),
                    core::fmt_seconds(run.result.horizon_s)});
  }
  std::cout << "\n";
  volume.print(std::cout);
  std::cout << "\nExpected shape: interactive p99 separates the policies "
               "(static queues whole\njobs behind heavy analytics work; "
               "time-shared and adaptive partitions let\nshort jobs through), "
               "while per-class stretch shows who pays for it.\n";

  // --- wall-clock / memory side (stderr + JSON) -------------------------
  bool rss_ok = true;
  for (const PolicyRun& run : runs) {
    const double jobs_per_s =
        run.wall_s > 0.0
            ? static_cast<double>(run.result.completed) / run.wall_s
            : 0.0;
    std::cerr << "serve_sustained/" << run.name << ": "
              << static_cast<std::uint64_t>(jobs_per_s)
              << " jobs/s wall-clock, rss " << run.rss_quarter_mb << " MB @25% -> "
              << run.rss_end_mb << " MB @end\n";
    if (opt.rss_check && run.rss_quarter_mb > 0.0) {
      // Flat = the second three-quarters of the run added at most 10% or
      // 8 MB (allocator slack), whichever is larger.
      const double allowed =
          run.rss_quarter_mb + std::max(8.0, 0.10 * run.rss_quarter_mb);
      if (run.rss_end_mb > allowed) {
        std::cerr << "serve_sustained: RSS NOT FLAT for " << run.name << " ("
                  << run.rss_quarter_mb << " MB @25% -> " << run.rss_end_mb
                  << " MB @end, allowed " << allowed << " MB)\n";
        rss_ok = false;
      }
    }
  }

  if (!opt.json_path.empty()) {
    std::ofstream json(opt.json_path);
    json << "{\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const PolicyRun& run = runs[i];
      const double jobs_per_s =
          run.wall_s > 0.0
              ? static_cast<double>(run.result.completed) / run.wall_s
              : 0.0;
      json << "    {\"name\": \"serve_sustained/" << run.name << "/"
           << opt.jobs << "\", \"run_type\": \"iteration\", "
           << "\"items_per_second\": " << jobs_per_s << ", "
           << "\"jobs\": " << run.result.completed << ", "
           << "\"shed\": " << run.result.shed << ", "
           << "\"peak_live_jobs\": " << run.result.peak_live_jobs << ", "
           << "\"rss_quarter_mb\": " << run.rss_quarter_mb << ", "
           << "\"rss_end_mb\": " << run.rss_end_mb << "}"
           << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    if (!json) {
      std::cerr << "serve_sustained: cannot write " << opt.json_path << "\n";
      return 1;
    }
    std::cerr << "wrote " << opt.json_path << "\n";
  }

  const int obs_rc = obs.flush(std::cerr);
  if (!rss_ok) return 1;
  return obs_rc;
}

int run(int argc, char** argv) {
  try {
    return serve(parse(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::cerr << "serve_sustained: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  return tmc::bench::run_main(argc, argv, run);
}
