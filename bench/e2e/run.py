#!/usr/bin/env python3
"""Build the benchmark driver in Release and run one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the build goes to .bench_build/clbench at the root of
the source tree (the first run compiles the library, later runs only
relink if something changed). Build output goes to stderr, so the last
line of stdout is the driver's JSON result. With --trace 1 the Chrome
trace is written to .bench_build/traces/<workload>-seed<n>.json.

Any other arguments are passed to clbench unchanged (see clbench.cpp).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def build(root=ROOT, build_dir=None):
    """Configure and build clbench against root's library; return its path."""
    root = Path(root).resolve()
    build_dir = Path(build_dir) if build_dir else root / ".bench_build" / "clbench"
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release", f"-DCL_ROOT={root}"],
        stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "clbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return build_dir / "clbench"


def git_describe(root=ROOT):
    """The source tree's `git describe`, or "unknown" outside a git checkout."""
    if not (Path(root) / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = ap.parse_known_args()

    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(exe), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--git", git_describe()]
    if args.trace == "1":
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file", str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
