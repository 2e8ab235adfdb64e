#!/usr/bin/env python3
"""Symbolize and group a heap_sites report: which source lines hold the live
heap at its peak.

    LD_PRELOAD=build/tools/heap_sites/libheap_sites.so \\
        HEAP_SITES_OUT=sites.txt build/examples/tmc_cli --app matmul
    python3 tools/heap_sites/heap_sites.py sites.txt [--top 20] [--json]

Each stack in the report is charged to its first frame whose source file
lies under --root (default: this checkout's src/), found with
`addr2line -f -i -C`; a stack with no such frame falls back to its first
frame outside the C and C++ runtimes and the tracker. Build with -g for
file:line sites; without debug information sites are function names.

Prints the live-heap peak, the snapshot's total and a table of sites by
live bytes (or, with --json, one JSON object with the same fields).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUNTIME = ("libc.so", "libc-", "libstdc++", "libgcc_s", "ld-linux",
           "libheap_sites")


def parse(path: Path):
    header: dict[str, int] = {}
    stacks: list[tuple[int, int, list[tuple[int, int]]]] = []
    modules: dict[int, tuple[int, str]] = {}
    for line in path.read_text().splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "stack":
            frames = []
            for token in fields[3:]:
                module, offset = token.split(":")
                frames.append((int(module), int(offset, 16)))
            stacks.append((int(fields[1]), int(fields[2]), frames))
        elif fields[0] == "module":
            modules[int(fields[1])] = (int(fields[2], 16),
                                       line.split(" ", 3)[3])
        elif len(fields) == 2 and fields[1].lstrip("-").isdigit():
            header[fields[0]] = int(fields[1])
    if header.get("heap_sites") != 1:
        sys.exit(f"{path}: not a heap_sites report")
    return header, stacks, modules


def is_executable(path: str) -> bool:
    """True for a non-PIE executable (ELF type ET_EXEC), whose addresses
    are absolute; shared objects and PIEs are symbolized by offset."""
    try:
        with open(path, "rb") as f:
            head = f.read(18)
    except OSError:
        return False
    return len(head) == 18 and head[:4] == b"\x7fELF" and \
        int.from_bytes(head[16:18], "little") == 2


def symbolize(modules, wanted):
    """{(module, offset): [(function, file:line), ...]} innermost first."""
    names = {}
    by_module = defaultdict(list)
    for module, offset in wanted:
        by_module[module].append(offset)
    for module, offsets in by_module.items():
        if module not in modules:
            for offset in offsets:
                names[(module, offset)] = [("??", "??:0")]
            continue
        base, path = modules[module]
        shift = base if is_executable(path) else 0
        # Return addresses point past the call; step back into it.
        query = "\n".join(hex(o - 1 + shift) for o in offsets) + "\n"
        out = subprocess.run(
            ["addr2line", "-f", "-i", "-C", "-a", "-e", path],
            input=query, capture_output=True, text=True).stdout.splitlines()
        # -a prints each address first, then (function, location) pairs.
        current = None
        chain = []
        results = []
        for text in out:
            if text.startswith("0x") and len(chain) % 2 == 0:
                if current is not None:
                    results.append(chain)
                current, chain = text, []
            else:
                chain.append(text)
        if current is not None:
            results.append(chain)
        for offset, chain in zip(offsets, results):
            pairs = [(chain[i], chain[i + 1]) for i in range(0, len(chain) - 1, 2)]
            names[(module, offset)] = pairs or [("??", "??:0")]
    return names


def site_of(frames, names, modules, root: str) -> str:
    fallback = None
    for module, offset in frames:
        path = modules.get(module, (0, "?"))[1]
        if any(tag in Path(path).name for tag in RUNTIME):
            continue
        for function, location in names[(module, offset)]:
            if location.startswith(root):
                return f"{function} ({location[len(root):].lstrip('/')})"
            if fallback is None:
                fallback = function if function != "??" else \
                    f"{Path(path).name}+{offset:#x}"
    return fallback or "(runtime only)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("report", type=Path)
    ap.add_argument("--root", default=str(ROOT / "src"),
                    help="source tree sites are charged to (default: src/)")
    ap.add_argument("--top", type=int, default=20)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    header, stacks, modules = parse(args.report)
    wanted = {frame for _, _, frames in stacks for frame in frames}
    names = symbolize(modules, wanted)
    sites: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for size, blocks, frames in stacks:
        entry = sites[site_of(frames, names, modules, args.root)]
        entry[0] += size
        entry[1] += blocks
    ranked = sorted(sites.items(), key=lambda kv: (-kv[1][0], kv[0]))
    rows = [{"site": site, "bytes": b, "blocks": n}
            for site, (b, n) in ranked[:args.top]]
    if args.json:
        print(json.dumps({
            "peak_live_bytes": header["peak_live_bytes"],
            "snapshot_live_bytes": header["snapshot_live_bytes"],
            "uncounted_allocs": header.get("uncounted_allocs", 0),
            "sites": rows}, indent=2))
        return 0
    print(f"peak live heap: {header['peak_live_bytes']} B")
    print(f"snapshot: {header['snapshot_live_bytes']} B live, within "
          f"{header['snapshot_step_bytes']} B of the peak")
    if header.get("uncounted_allocs", 0):
        print(f"warning: {header['uncounted_allocs']} allocations uncounted "
              "(tracker tables full)")
    print(f"{'bytes':>12} {'blocks':>8}  site")
    for row in rows:
        print(f"{row['bytes']:>12} {row['blocks']:>8}  {row['site']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
