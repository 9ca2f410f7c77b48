#!/usr/bin/env python3
"""Check BENCHMARK.json, and optionally smoke-run the driver against it.

    python3 bench/e2e/validate.py                      # schema check only
    python3 bench/e2e/validate.py --smoke CLBENCH      # schema + smoke runs

The schema check enforces the limits the benchmark is defined under:
metric and workload names, units, directions and bounds, the counts of
workloads and metrics, and that `paths` covers every file the benchmark
owns. --smoke runs every workload at smoke size (tiny rings, two
requests, end-to-end and per-layer metrics in one traced run) and checks
that the result parses, that every metric named in BENCHMARK.json is
emitted with its unit, that no request failed, and that the Chrome trace
loads. The ctest `clbench_smoke` runs this.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}


def schema_errors(spec, root=ROOT):
    """Every way @p spec breaks the benchmark's schema, as messages."""
    errors = []

    def need(cond, msg):
        if not cond:
            errors.append(msg)
        return cond

    if not need(set(spec) == TOP_KEYS,
                f"top-level keys must be exactly {sorted(TOP_KEYS)}"):
        return errors

    paths = spec["paths"]
    need(isinstance(paths, list) and 1 <= len(paths) <= 16,
         "paths: 1 to 16 directories")
    for p in paths:
        if not need(isinstance(p, str) and PATH.fullmatch(p)
                    and not p.startswith("/") and ".." not in p.split("/"),
                    f"paths: bad path {p!r}"):
            continue
        d = root / p
        if need(d.is_dir(), f"paths: {p} is not a directory"):
            for f in d.rglob("*"):
                need(not f.is_symlink() and (f.is_file() or f.is_dir()),
                     f"paths: {f} is not a regular file")

    def owned(f):
        f = Path(f).resolve()
        return any(f.is_relative_to((root / p).resolve()) for p in paths)

    cmd = spec["command"]
    need(isinstance(cmd, list) and 1 <= len(cmd) <= 32
         and all(isinstance(a, str) and len(a) <= 200 for a in cmd),
         "command: 1 to 32 strings of at most 200 characters")
    for a in cmd:
        need(not a.startswith("/") and ".." not in a.split("/"),
             f"command: {a!r} leaves the tree")
        if (root / a).exists() and a not in (".", ""):
            need(owned(root / a), f"command: {a} is outside paths")
    # The benchmark owns this directory's files.
    for f in HERE.iterdir():
        if f.name != "__pycache__":
            need(owned(f), f"paths do not cover {f.relative_to(root)}")

    need(isinstance(spec["run_seconds"], int)
         and 1 <= spec["run_seconds"] <= 60, "run_seconds: 1 to 60")

    names = []
    workloads = spec["workloads"]
    need(isinstance(workloads, list) and 2 <= len(workloads) <= 8,
         "workloads: 2 to 8")
    for w in workloads:
        if need(set(w) == {"name", "why"}, f"workload keys: {w}"):
            names.append(w["name"])
            need(isinstance(w["why"], str) and 0 < len(w["why"]) <= 200
                 and "\n" not in w["why"], f"workload {w['name']}: why "
                 "must be one line of at most 200 characters")

    e2e, layer = spec["end_to_end"], spec["per_layer"]
    need(1 <= len(e2e) <= 16, "end_to_end: 1 to 16 metrics")
    need(1 <= len(layer) <= 128, "per_layer: 1 to 128 metrics")
    for group, keys in ((e2e, {"name", "unit", "better", "bound"}),
                        (layer, {"name", "unit", "better"})):
        for m in group:
            if not need(set(m) == keys, f"metric keys {sorted(m)}"):
                continue
            names.append(m["name"])
            need(isinstance(m["unit"], str) and UNIT.fullmatch(m["unit"]),
                 f"{m['name']}: bad unit {m['unit']!r}")
            need(m["better"] in ("higher", "lower"),
                 f"{m['name']}: better must be higher or lower")
            if "bound" in m:
                need(isinstance(m["bound"], (int, float))
                     and 0 < m["bound"] <= 0.25,
                     f"{m['name']}: bound must be in (0, 0.25]")
    for n in names:
        need(isinstance(n, str) and NAME.fullmatch(n), f"bad name {n!r}")
    need(len(names) == len(set(names)), "names must be unique")
    setup = next((m for m in e2e if m.get("name") == "setup_s"), {})
    need(setup.get("unit") == "s" and setup.get("better") == "lower",
         "end_to_end must hold setup_s in s, lower is better")
    return errors


def smoke_errors(spec, clbench):
    """Run each workload at smoke size; return what is wrong with it."""
    errors = []
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for w in (w["name"] for w in spec["workloads"]):
            trace = Path(tmp) / f"{w}.trace.json"
            r = subprocess.run(
                [clbench, "--smoke", "--workload", w, "--seed", "1",
                 "--seconds", "1", "--trace", "1", "--trace-file", str(trace)],
                capture_output=True, text=True)
            if r.returncode != 0:
                errors.append(f"{w}: exit {r.returncode}: {r.stderr.strip()}")
                continue
            try:
                res = json.loads(r.stdout.strip().splitlines()[-1])
                events = json.loads(trace.read_text())["traceEvents"]
            except (ValueError, KeyError, IndexError, OSError) as e:
                errors.append(f"{w}: unreadable output: {e}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{w}: result keys {sorted(res)}")
                continue
            if res["failed"] != 0 or not res["correct"] or res["attempted"] < 1:
                errors.append(f"{w}: {res['failed']} of {res['attempted']} failed")
            for name, unit in units.items():
                got = res["metrics"].get(name)
                if not got or got.get("unit") != unit \
                        or not isinstance(got.get("value"), (int, float)):
                    errors.append(f"{w}: {name} missing or not in {unit}: {got}")
            spans = [e for e in events if e.get("ph") == "X"]
            if not spans or not all({"name", "ts", "dur"} <= set(e) for e in spans):
                errors.append(f"{w}: trace has no well-formed spans")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", metavar="CLBENCH",
                    help="driver binary to smoke-run against the spec")
    args = ap.parse_args()

    raw = SPEC.read_bytes()
    spec = json.loads(raw)
    errors = [] if len(raw) <= 64 * 1024 else ["BENCHMARK.json over 64 KiB"]
    errors += schema_errors(spec)
    if args.smoke and not errors:
        errors += smoke_errors(spec, args.smoke)
    for e in errors:
        print(f"validate: {e}", file=sys.stderr)
    print("validate: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
