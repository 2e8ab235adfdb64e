#!/usr/bin/env python3
"""Validate tmc observability output files beyond "it parses".

`python -m json.tool` only proves well-formedness; this script checks the
contracts consumers actually rely on:

  metrics JSON  (--metrics=out.json)
      schema tag "tmc-metrics-v1", every instrument named and typed, scalar
      kinds carry a finite value, distributions carry summary stats and a
      histogram whose bin counts sum to the clamped sample count.

  timeline JSON (--timeline=out.json)
      Chrome trace_event object form loadable by Perfetto: process/thread
      metadata first, every event one of M/X/i/C/b/e/s/f with the fields
      that phase requires, spans with non-negative durations that never
      overlap on a node track (a CPU runs one charge at a time), and -- the
      point of the exercise -- per-node tracks plus at least one
      utilization counter. Chunked output (--timeline-chunk) is
      byte-identical to buffered, so the same checker covers both.

  job-tracing timeline (--flows=out.json)
      Everything --timeline checks, plus the per-job causal layer: a
      'jobs' process with per-class tracks, async b/e events that nest as
      a well-formed stack per (pid, tid, id) and all close by end of
      trace, and cross-node flow events where every 's' pairs with
      exactly one 'f' of the same id, never earlier in time. On traces
      with fault instants (a run with --fault-rate > 0), flows whose
      message died mid-flight legitimately never finish; those truncated
      starts are counted and reported instead of failing the check, and
      the fault instants themselves must alternate down/up per resource.

  metrics stream JSONL (--metrics-stream=out.jsonl)
      header line tagged "tmc-metrics-stream-v1" naming every channel, then
      one tick object per line with finite values parallel to the channel
      list and non-decreasing timestamps.

  --sorted-sha256 HEX
      also pins the content of every --timeline file regardless of record
      order: each traceEvents entry is serialised as
      json.dumps(sort_keys=True, separators=(',', ':')), the lines are
      sorted and joined by newlines, and their SHA-256 must equal HEX. A
      change that only moves records passes; one that adds, drops or alters
      a record fails.

Usage:
    python3 tools/check_obs_json.py --metrics metrics.json \\
                                    --timeline timeline.json \\
                                    --stream metrics.jsonl
Exit 0 if every given file passes; first violation is fatal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

SCALAR_KINDS = {"counter", "gauge", "probe"}


def fail(path: str, message: str) -> None:
    sys.exit(f"check_obs_json: {path}: {message}")


def require(cond: bool, path: str, message: str) -> None:
    if not cond:
        fail(path, message)


def is_finite_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def check_metrics(path: str) -> None:
    with open(path) as f:
        doc = json.load(f)
    require(doc.get("schema") == "tmc-metrics-v1", path,
            f"schema tag is {doc.get('schema')!r}, want 'tmc-metrics-v1'")
    require(isinstance(doc.get("label"), str) and doc["label"], path,
            "missing run label")
    require(is_finite_number(doc.get("end_time_s")), path,
            "end_time_s missing or not finite")
    metrics = doc.get("metrics")
    require(isinstance(metrics, list) and metrics, path,
            "metrics array missing or empty")
    seen: set[str] = set()
    for m in metrics:
        name = m.get("name")
        require(isinstance(name, str) and name, path,
                f"instrument without a name: {m}")
        require(name not in seen, path, f"duplicate instrument {name!r}")
        seen.add(name)
        kind = m.get("kind")
        if kind in SCALAR_KINDS:
            require(is_finite_number(m.get("value")), path,
                    f"{name}: {kind} value missing or not finite")
        elif kind == "distribution":
            for field in ("count", "mean", "min", "max", "stddev"):
                require(is_finite_number(m.get(field)), path,
                        f"{name}: distribution field {field} missing")
            histogram = m.get("histogram")
            require(isinstance(histogram, dict), path,
                    f"{name}: distribution without histogram object")
            bins = histogram.get("bins")
            require(isinstance(bins, list) and bins, path,
                    f"{name}: histogram without bins")
            # Out-of-range samples are clamped INTO the edge bins, so the
            # bins always account for every sample.
            require(sum(bins) == m["count"], path,
                    f"{name}: histogram bins sum to {sum(bins)}, "
                    f"count says {m['count']} (clamping leak?)")
            for field in ("lo", "hi", "underflow", "overflow"):
                require(is_finite_number(histogram.get(field)), path,
                        f"{name}: histogram field {field} missing")
        else:
            fail(path, f"{name}: unknown instrument kind {kind!r}")
    print(f"check_obs_json: {path}: {len(metrics)} instruments ok")


def check_timeline(path: str, flows: bool = False) -> None:
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    require(isinstance(events, list) and events, path,
            "traceEvents missing or empty")
    processes: set[str] = set()
    counters: set[str] = set()
    node_threads = 0
    link_threads = 0
    job_threads = 0
    spans = 0
    # Open async nesting stacks keyed by (pid, tid, id); Chrome pairs b/e
    # events the same way, so a malformed stack here renders wrong there.
    async_open: dict[tuple, list[str]] = {}
    async_pairs = 0
    steal_spans = 0
    flow_start_ts: dict[object, tuple[float, str]] = {}
    flow_pairs = 0
    steal_grants = 0
    steal_denies = 0
    fault_instants = 0
    fault_state: dict[tuple, str] = {}
    node_tracks: set[tuple] = set()
    # (start, end) of every span per (pid, tid), in integer nanoseconds.
    track_spans: dict[tuple, list[tuple[int, int]]] = {}
    for e in events:
        ph = e.get("ph")
        require(is_finite_number(e.get("pid")), path, f"event without pid: {e}")
        if ph == "M":
            name = e.get("args", {}).get("name")
            require(isinstance(name, str) and name, path,
                    f"metadata event without args.name: {e}")
            if e.get("name") == "process_name":
                processes.add(name)
            elif e.get("name") == "thread_name":
                if name.startswith("node"):
                    node_threads += 1
                    node_tracks.add((e["pid"], e.get("tid")))
                elif name.startswith("link"):
                    link_threads += 1
                elif name.startswith("class:") or name == "jobs":
                    job_threads += 1
        elif ph == "X":
            require(is_finite_number(e.get("ts")), path, f"span without ts: {e}")
            require(is_finite_number(e.get("dur")) and e["dur"] >= 0, path,
                    f"span with bad dur: {e}")
            spans += 1
            start = round(e["ts"] * 1000)
            track_spans.setdefault((e["pid"], e.get("tid")), []).append(
                (start, start + round(e["dur"] * 1000)))
        elif ph == "C":
            require(is_finite_number(e.get("ts")), path,
                    f"counter without ts: {e}")
            counters.add(e.get("name", ""))
        elif ph == "i":
            require(e.get("s") in ("t", "p", "g"), path,
                    f"instant with bad scope: {e}")
            name = e.get("name", "")
            if name in ("node-down", "node-up", "link-down", "link-up"):
                kind, edge = name.split("-")
                resource = (kind, e.get("args", {}).get("value"))
                fault_instants += 1
                # Each resource strictly alternates down/up, starting with
                # down (everything is alive when the run starts).
                last = fault_state.get(resource, "up")
                require(last != edge, path,
                        f"fault instant {name!r} for {resource} repeats "
                        f"state {edge!r} without the opposite edge between")
                fault_state[resource] = edge
        elif ph in ("b", "e"):
            require(is_finite_number(e.get("ts")), path,
                    f"async event without ts: {e}")
            require(e.get("cat"), path, f"async event without cat: {e}")
            require("id" in e, path, f"async event without id: {e}")
            key = (e["pid"], e.get("tid"), e["id"])
            if ph == "b":
                stack = async_open.setdefault(key, [])
                # The steal overlay is strictly interior to a job group: it
                # opens only while that job's envelope (and a phase span
                # inside it) is already open, so the per-id decomposition
                # stays exact. A top-level "steal" would double-count.
                if e.get("name") == "steal":
                    require("job" in stack and len(stack) >= 2, path,
                            f"'steal' span outside a job envelope + phase "
                            f"(open stack {stack}): {e}")
                    steal_spans += 1
                stack.append(e.get("name", ""))
            else:
                stack = async_open.get(key)
                require(bool(stack), path,
                        f"async end with no matching begin: {e}")
                require(stack[-1] == e.get("name", ""), path,
                        f"async end {e.get('name')!r} does not close "
                        f"innermost open span {stack[-1]!r} (id {e['id']})")
                stack.pop()
                async_pairs += 1
        elif ph in ("s", "f"):
            require(is_finite_number(e.get("ts")), path,
                    f"flow event without ts: {e}")
            require(e.get("cat"), path, f"flow event without cat: {e}")
            require("id" in e, path, f"flow event without id: {e}")
            if ph == "s":
                require(e["id"] not in flow_start_ts, path,
                        f"duplicate flow start id {e['id']}")
                flow_start_ts[e["id"]] = (e["ts"], e.get("name", ""))
            else:
                require(e.get("bp") == "e", path,
                        f"flow finish without bp='e' (arrow would bind to "
                        f"the wrong span): {e}")
                start = flow_start_ts.pop(e["id"], None)
                require(start is not None, path,
                        f"flow finish with no open start (id {e['id']})")
                start_ts, start_name = start
                require(e["ts"] >= start_ts, path,
                        f"flow finish at ts {e['ts']} precedes its start "
                        f"at {start_ts} (id {e['id']})")
                # Steal arrows carry the protocol verdict in their names:
                # every request resolves as exactly one grant or deny, and
                # only requests resolve that way.
                finish_name = e.get("name", "")
                if start_name == "steal-req" \
                        or finish_name in ("steal-grant", "steal-deny"):
                    require(start_name == "steal-req", path,
                            f"flow finish {finish_name!r} closes a "
                            f"non-steal start {start_name!r} (id {e['id']})")
                    require(finish_name in ("steal-grant", "steal-deny"),
                            path,
                            f"steal request resolved by {finish_name!r}, "
                            f"want steal-grant or steal-deny (id {e['id']})")
                    if finish_name == "steal-grant":
                        steal_grants += 1
                    else:
                        steal_denies += 1
                flow_pairs += 1
        else:
            fail(path, f"unknown event phase {ph!r}: {e}")
    require("nodes" in processes, path,
            f"no 'nodes' process track (saw {sorted(processes)})")
    require(node_threads > 0, path, "no per-node thread metadata")
    require(spans > 0, path, "no complete ('X') spans -- CPU tracks empty")
    # A CPU runs one charge at a time, so the spans of a node track tile it
    # without overlapping. Times are microseconds printed to the nanosecond,
    # so a printed start and duration may each be off by half a nanosecond:
    # allow 1 ns.
    for track in node_tracks:
        busy_until = None
        for start, end in sorted(track_spans.get(track, [])):
            if busy_until is not None and start < busy_until - 1:
                fail(path, f"span at ts {start / 1000} us overlaps an "
                           f"earlier span on node track (pid, tid) {track}, "
                           f"which runs until {busy_until / 1000} us")
            busy_until = end if busy_until is None else max(busy_until, end)
    # Single-node machines legitimately have no links; everyone else must
    # export a per-link utilization series.
    if link_threads > 0:
        require(any("utilization" in c for c in counters), path,
                f"{link_threads} link tracks but no utilization counter "
                f"series (saw {sorted(counters)[:8]}...)")
    leaked = {k: v for k, v in async_open.items() if v}
    require(not leaked, path,
            f"{len(leaked)} async spans still open at end of trace "
            f"(first: {sorted(leaked.items())[:1]})")
    if flows:
        require("jobs" in processes, path,
                f"no 'jobs' process track (saw {sorted(processes)}) -- "
                f"was the run traced with job classes?")
        require(job_threads > 0, path, "no per-job-class thread metadata")
        require(async_pairs > 0, path, "no async job spans (b/e) at all")
        # A message that died mid-flight (dropped, or its destination
        # crashed) opens a flow that can never finish. Only a trace that
        # actually recorded fault episodes may contain such truncations;
        # a reliable run with dangling starts is still a pairing bug.
        if fault_instants == 0:
            require(not flow_start_ts, path,
                    f"{len(flow_start_ts)} flow starts never finished "
                    f"(first ids: {sorted(flow_start_ts)[:4]})")
        require(flow_pairs > 0, path, "no cross-node flow (s/f) pairs")
    # A steal request aimed at a node that died mid-protocol is truncated by
    # faults exactly like an application message's flow; count the two
    # populations separately so the report shows what the protocol lost.
    truncated_steals = sum(1 for _, name in flow_start_ts.values()
                           if name == "steal-req")
    truncated = len(flow_start_ts) - truncated_steals
    steal_note = ""
    if steal_grants or steal_denies or steal_spans:
        steal_note = (f", {steal_grants} steal grants + {steal_denies} "
                      f"denies, {steal_spans} steal spans")
    print(f"check_obs_json: {path}: {len(events)} events, {node_threads} node "
          f"tracks, {link_threads} link tracks, {spans} spans, "
          f"{len(counters)} counter series, {async_pairs} job spans, "
          f"{flow_pairs} flow pairs ok" + steal_note
          + (f", {fault_instants} fault instants" if fault_instants else "")
          + (f", {truncated} flows truncated by faults" if truncated else "")
          + (f", {truncated_steals} steals truncated by faults"
             if truncated_steals else "")
          + (" (flows)" if flows else ""))


def check_stream(path: str) -> None:
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line]
    require(len(lines) >= 2, path,
            f"want a header line plus at least one tick, got {len(lines)} "
            f"non-empty lines")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        fail(path, f"header line is not JSON: {e}")
    require(header.get("schema") == "tmc-metrics-stream-v1", path,
            f"schema tag is {header.get('schema')!r}, "
            f"want 'tmc-metrics-stream-v1'")
    require(isinstance(header.get("label"), str) and header["label"], path,
            "header missing run label")
    channels = header.get("channels")
    require(isinstance(channels, list) and channels, path,
            "header channels list missing or empty")
    for c in channels:
        require(isinstance(c, str) and c, path,
                f"channel label not a non-empty string: {c!r}")
    last_t = -math.inf
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            tick = json.loads(line)
        except json.JSONDecodeError as e:
            fail(path, f"line {lineno}: not JSON: {e}")
        t = tick.get("t_s")
        require(is_finite_number(t), path,
                f"line {lineno}: t_s missing or not finite")
        require(t >= last_t, path,
                f"line {lineno}: t_s {t} went backwards (previous {last_t})")
        last_t = t
        values = tick.get("v")
        require(isinstance(values, list) and len(values) == len(channels),
                path,
                f"line {lineno}: v has {len(values) if isinstance(values, list) else 'no'} "
                f"entries, want {len(channels)}")
        for v in values:
            require(is_finite_number(v), path,
                    f"line {lineno}: non-finite sample value {v!r}")
    print(f"check_obs_json: {path}: {len(lines) - 1} ticks x "
          f"{len(channels)} channels ok (stream)")


def sorted_events_sha256(path: str) -> str:
    """SHA-256 of a trace's events, independent of their order."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    lines = sorted(json.dumps(e, sort_keys=True, separators=(",", ":"))
                   for e in events)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metrics", action="append", default=[],
                        help="tmc-metrics-v1 JSON file (repeatable)")
    parser.add_argument("--timeline", action="append", default=[],
                        help="Chrome trace_event JSON file (repeatable)")
    parser.add_argument("--flows", action="append", default=[],
                        help="trace_event JSON with the per-job layer: also "
                             "require job-class tracks, async span pairing "
                             "and matched s/f flow events (repeatable)")
    parser.add_argument("--stream", action="append", default=[],
                        help="tmc-metrics-stream-v1 JSONL file (repeatable)")
    parser.add_argument("--sorted-sha256", metavar="HEX",
                        help="required order-independent SHA-256 of every "
                             "--timeline file's events")
    args = parser.parse_args()
    if not args.metrics and not args.timeline and not args.flows \
            and not args.stream:
        parser.error("nothing to check: pass --metrics, --timeline, "
                     "--flows, and/or --stream")
    for path in args.metrics:
        check_metrics(path)
    for path in args.timeline:
        check_timeline(path)
        if args.sorted_sha256:
            actual = sorted_events_sha256(path)
            if actual != args.sorted_sha256:
                fail(path, f"sorted-event SHA-256 {actual}, expected "
                           f"{args.sorted_sha256}")
            print(f"check_obs_json: {path}: sorted-event SHA-256 ok")
    for path in args.flows:
        check_timeline(path, flows=True)
    for path in args.stream:
        check_stream(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
