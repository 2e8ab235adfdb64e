#!/usr/bin/env python3
"""tmcsim benchmark: three workloads, one command.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload serve_mix --write-reference

Builds perfbench/tmcbench (the simulator's libraries plus tmcbench.cpp) under
.bench_build/, runs one workload single-threaded for --seconds of host time,
checks every modelled result -- against the pinned reference in
perfbench/reference/ where one exists for the seeds, and always that
repeated passes (and, with --trace 1, the traced runs) reproduce the first
pass exactly -- and prints every metric by name with its unit.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. "attempted" counts the modelled results checked and
"failed" those that differed; their ratio is mismatch_frac. The metrics are
the end-to-end set with --trace 0 and the per-layer ledger with --trace 1.
The exit code is 0 only when every check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
TOOLS = ROOT / "tools"

WORKLOADS = ("paper_batch", "serve_mix", "scale_wormhole")
# Workloads whose inputs depend on the seeds; the others run the paper's
# fixed batches, so their references hold on every seed.
SEEDED = ("serve_mix",)

END_TO_END = (
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("core.construct_s", "s"), ("core.loop_s", "s"), ("core.stats_s", "s"),
    ("core.runs", "count"),
    ("workload.gen_s", "s"), ("workload.jobs", "count"),
    ("sim.events", "count"), ("sim.events_per_job", "events/job"),
    ("sim.scheduled", "count"), ("sim.fire_ratio", "ratio"),
    ("sim.pending_peak", "count"), ("sim.ns_per_event", "ns"),
    ("sim.iso_s", "s"),
    ("node.cpu_busy_s", "sim_s"), ("node.cpu_util", "ratio"),
    ("node.context_switches", "count"), ("node.quantum_expiries", "count"),
    ("node.high_preemptions", "count"),
    ("comm.sends", "count"), ("comm.self_sends", "count"),
    ("comm.deliveries", "count"), ("comm.retries", "count"),
    ("comm.lost", "count"),
    ("mem.allocs", "count"), ("mem.blocked", "count"),
    ("mem.blocked_ratio", "ratio"), ("mem.block_s", "sim_s"),
    ("mem.peak_bytes", "B"), ("mem.iso_s", "s"),
    ("net.messages", "count"), ("net.bytes", "B"), ("net.hops", "count"),
    ("net.hops_per_msg", "hops/msg"), ("net.link_queueing_s", "sim_s"),
    ("net.link_util_max", "ratio"), ("net.parks", "count"),
    ("net.worm_peak", "count"), ("net.iso_s", "s"),
    ("sched.jobs_completed", "count"), ("sched.gang_switches", "count"),
    ("sched.peak_mpl", "count"), ("sched.wait_s", "sim_s"),
    ("sched.shed_frac", "ratio"), ("sched.peak_live_jobs", "count"),
    ("steal.requests", "count"), ("steal.grants", "count"),
    ("steal.denials", "count"), ("steal.grant_ratio", "ratio"),
    ("steal.tasks_migrated", "count"), ("steal.bytes_migrated", "B"),
    ("fault.crashes", "count"), ("fault.drops", "count"),
    ("fault.job_restarts", "count"), ("fault.jobs_lost", "count"),
    ("obs.overhead_ratio", "ratio"), ("obs.timeline_records", "count"),
    ("obs.export_s", "s"),
    ("obs.job_wait_s", "sim_s"), ("obs.job_dispatch_s", "sim_s"),
    ("obs.job_run_s", "sim_s"), ("obs.job_rotation_s", "sim_s"),
    ("obs.job_steal_s", "sim_s"), ("obs.job_retry_s", "sim_s"),
)

# obs_report.py column -> per-job split metric.
JOB_SPLIT = {
    "wait": "obs.job_wait_s", "dispatch": "obs.job_dispatch_s",
    "service": "obs.job_run_s", "rotation": "obs.job_rotation_s",
    "steal": "obs.job_steal_s", "retry": "obs.job_retry_s",
}

RUN_TIMEOUT_S = 160


class BenchError(Exception):
    """A failure that leaves no result to print."""


def seeds_for(args) -> dict:
    """Arrival, steal and fault seeds. The defaults derive from --seed so
    that seed 1 gives the simulator's own defaults (1, 1905, 42)."""
    def pick(override, default):
        return default if override is None else override
    return {
        "arrival": pick(args.arrival_seed, args.seed),
        "steal": pick(args.steal_seed, 1904 + args.seed),
        "fault": pick(args.fault_seed, 41 + args.seed),
    }


def build() -> Path:
    build_dir = BUILD / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "tmcbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-6000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return build_dir / "tmcbench"


def run_tmcbench(exe: Path, args, seeds: dict, timeline: Path | None) -> dict:
    cmd = [str(exe), "--workload", args.workload,
           "--seconds", str(args.seconds),
           "--arrival-seed", str(seeds["arrival"]),
           "--steal-seed", str(seeds["steal"]),
           "--fault-seed", str(seeds["fault"])]
    if args.tiny:
        cmd.append("--tiny")
    if timeline is not None:
        cmd += ["--traced", "--timeline", str(timeline)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"tmcbench timed out after {RUN_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"tmcbench exited {proc.returncode}")
    return json.loads(proc.stdout)


def reference_path(workload: str) -> Path:
    return BENCH / "reference" / f"{workload}.json"


def check_reference(doc: dict, tiny: bool) -> tuple[int, int, str]:
    """(checked, differing, note) against the pinned reference, or zeros
    when none applies to this size and these seeds."""
    path = reference_path(doc["workload"])
    if tiny or not path.exists():
        return 0, 0, "no pinned reference for this size"
    ref = json.loads(path.read_text())
    if ref["seeds"] is not None and ref["seeds"] != doc["seeds"]:
        return 0, 0, "no pinned reference for these seeds"
    want, got = ref["results"], doc["results"]
    keys = sorted(set(want) | set(got))
    bad = [k for k in keys if want.get(k) != got.get(k)]
    for k in bad[:10]:
        print(f"mismatch: {k}: reference {want.get(k)} got {got.get(k)}")
    return len(keys), len(bad), f"pinned reference {path.name}"


def run_tool(script: str, *tool_args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOLS / script), *tool_args],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=RUN_TIMEOUT_S)


def job_split(report: str) -> dict:
    """Per-job mean of each phase, simulated seconds, from obs_report.py's
    per-class table (mean ms per class, weighted by its job count)."""
    lines = report.splitlines()
    header_at = next(i for i, line in enumerate(lines)
                     if line.startswith("class"))
    columns = [c.strip() for c in lines[header_at].split("  ") if c.strip()]
    totals = dict.fromkeys(JOB_SPLIT.values(), 0.0)
    jobs = 0
    for line in lines[header_at + 1:]:
        cells = line.split()
        if len(cells) != len(columns):
            break
        n = int(cells[1])
        jobs += n
        for name, cell in zip(columns[2:], cells[2:]):
            metric = JOB_SPLIT.get(name.removesuffix(" (ms)"))
            if metric is not None:
                totals[metric] += n * float(cell) / 1e3
    return {k: v / jobs for k, v in totals.items()} if jobs else totals


def validate_timeline(timeline: Path) -> tuple[int, int, dict]:
    """Runs the repository's validators on the traced run's timeline.
    Returns (checks, failures, job split)."""
    failures = 0
    check = run_tool("check_obs_json.py", "--flows", str(timeline))
    print(check.stdout.strip())
    failures += check.returncode != 0
    report_path = timeline.with_suffix(".report.txt")
    report = run_tool("obs_report.py", str(timeline), "--out",
                      str(report_path))
    split = dict.fromkeys(JOB_SPLIT.values(), 0.0)
    if report.returncode != 0:
        print(report.stdout.strip())
        failures += 1
    else:
        text = report_path.read_text()
        print(text.strip())
        split = job_split(text)
        report_path.unlink()
    return 2, failures, split


def git_describe() -> str:
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(doc: dict, args) -> dict:
    return {
        "workload": doc["workload"], "config_digest": doc["config_digest"],
        "seeds": doc["seeds"], "threads": 1, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "git_describe": git_describe(),
        "build_type": doc["build_type"], "compiler": doc["compiler"],
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
    }


def end_to_end(doc: dict) -> dict:
    """Host times are the simulator thread's CPU time, scaled to an idle
    host by the yardstick tmcbench runs between the pieces of every pass.
    On a shared host, neighbours slow the simulator by up to 1.8x for
    seconds to minutes at a time, and CPU time alone does not see it (the
    thread keeps its core but runs slower on it). The reported times sum,
    over the pieces of a pass, each piece's median scaled time."""
    passes = doc["passes"]
    cpu = statistics.median(p["jobs"] / p["cpu_s"] for p in passes)
    wall = statistics.median(p["jobs"] / p["wall_s"] for p in passes)
    slowdown = statistics.median(p["yardstick_s"] for p in passes) / \
        doc["yardstick_idle_s"]
    print(f"passes = {len(passes)} of {doc['segments']} timed pieces; "
          f"median pass rate = {cpu:.6g} jobs/s CPU, {wall:.6g} jobs/s wall; "
          f"median host slowdown = {slowdown:.4g}x the idle yardstick")
    return {
        "jobs_per_s": passes[0]["jobs"] / doc["scaled_cpu_s"],
        "setup_s": doc["scaled_setup_s"],
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def benchmark(args) -> int:
    exe = build()
    seeds = seeds_for(args)
    timeline = None
    if args.trace:
        timeline = BUILD / f"timeline-{args.workload}-{os.getpid()}.json"
    try:
        doc = run_tmcbench(exe, args, seeds, timeline)
        attempted, failed = doc["compared"], doc["differing"]
        print(f"repeat check: {failed} of {attempted} results differed "
              f"across passes")
        checked, bad, note = check_reference(doc, args.tiny)
        attempted += checked
        failed += bad
        print(f"reference check: {bad} of {checked} results differ ({note})")
        if timeline is not None:
            checked, bad, split = validate_timeline(timeline)
            attempted += checked
            failed += bad
    finally:
        if timeline is not None and timeline.exists():
            timeline.unlink()

    print(json.dumps({"manifest": manifest(doc, args)}))
    if args.trace:
        values = dict(doc["layers"])
        values.update(split)
        # Serving jobs live inside run_sustained; their wait comes from the
        # timeline run's reconciled report.
        values.setdefault("sched.wait_s", split["obs.job_wait_s"])
        table = PER_LAYER
    else:
        values = end_to_end(doc)
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in table}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        loop = values["core.loop_s"]
        for probe in ("sim.iso_s", "mem.iso_s", "net.iso_s"):
            share = values[probe] / loop if loop > 0 else 0.0
            print(f"{probe} / core.loop_s = {share:.3f} (isolated estimate)")
    print(f"mismatch_frac = {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} checked results)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def write_reference(args) -> int:
    """Pins the modelled results of the workload at the given seeds."""
    exe = build()
    seeds = seeds_for(args)
    doc = run_tmcbench(exe, args, seeds, None)
    if doc["differing"]:
        raise BenchError("passes disagree; refusing to pin a reference")
    path = reference_path(args.workload)
    ref = {"workload": args.workload,
           "seeds": doc["seeds"] if args.workload in SEEDED else None,
           "config_digest": doc["config_digest"],
           "results": doc["results"]}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['results'])} results to {path}")
    return 0


def self_test() -> int:
    """Runs every workload at the tiny size, untraced and traced, and checks
    that each prints exactly the metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seconds", "1", "--trace",
                   str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            printed = sorted(result.get("metrics", {}))
            problems = []
            if proc.returncode != 0 or not result.get("correct"):
                problems.append(f"exit {proc.returncode}, correct="
                                f"{result.get('correct')}")
            if printed != sorted(want[trace]):
                missing = sorted(set(want[trace]) - set(printed))
                extra = sorted(set(printed) - set(want[trace]))
                problems.append(f"missing {missing}, unexpected {extra}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"self-test {workload} --trace {trace}: {status}")
            if problems:
                sys.stderr.write(proc.stderr[-3000:])
            ok = ok and not problems
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="derives the arrival, steal and fault seeds "
                             "(default 1)")
    parser.add_argument("--seconds", type=int, default=25,
                        help="host seconds of untraced passes (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer ledger instead")
    parser.add_argument("--arrival-seed", type=int)
    parser.add_argument("--steal-seed", type=int)
    parser.add_argument("--fault-seed", type=int)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size (no pinned reference applies)")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload tiny, check the metric names")
    parser.add_argument("--write-reference", action="store_true",
                        help="pin this workload's results at these seeds")
    args = parser.parse_args()
    for name in ("seed", "arrival_seed", "steal_seed", "fault_seed"):
        value = getattr(args, name)
        if value is not None and value < 0:
            parser.error(f"--{name.replace('_', '-')} must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        if args.write_reference:
            return write_reference(args)
        return benchmark(args)
    except BenchError as e:
        sys.stderr.write(f"run.py: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
