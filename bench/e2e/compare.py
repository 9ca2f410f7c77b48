#!/usr/bin/env python3
"""A/B and stability comparisons of the benchmark's end-to-end metrics.

    python3 bench/e2e/compare.py --ab PARENT_TREE CHANGE_TREE [--pairs 10]
    python3 bench/e2e/compare.py --stability TREE [--runs 10]

A TREE is a source tree of this repository. The driver in this directory
is built against each tree's library (cmake -DCL_ROOT=TREE, into
TREE/.bench_build/compare), so both sides run identical benchmark code.
Runs use seeds --seed, --seed + 1, ...; pick a seed not used while the
change was written.

--ab runs alternating pairs per workload (the parent first in even
pairs). Each row gives both sides' median and quartiles, the fraction of
pairs the change wins (ties count for neither) and a verdict:
  improved    the change wins at least 9 of 10 pairs and the medians
              differ by more than the parent's interquartile range;
  regressed   the change's median is worse by more than the metric's
              bound in BENCHMARK.json, or more requests failed;
  unresolved  the parent's own spread (interquartile range over median)
              exceeds the bound and not every change run beats every
              parent run;
  unchanged   otherwise.

--stability runs two sets on one tree with the same seeds. It passes when
no request fails, every end-to-end median of the second set is within
its bound of the first, every spread but setup_s's is within its bound,
and the exact metrics of one traced run per set are identical. A spread
above a third of its bound is flagged as noisy.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
import run  # noqa: E402  (the build helper beside this file)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E = SPEC["end_to_end"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def build(tree):
    return run.build(tree, Path(tree).resolve() / ".bench_build" / "compare")


def once(exe, workload, seed, trace=False):
    """One run; returns the result line and the names of exact metrics."""
    with tempfile.TemporaryDirectory(dir=exe.parent) as tmp:
        out = Path(tmp) / "result.json"
        r = subprocess.run(
            [str(exe), "--workload", workload, "--seed", str(seed),
             "--seconds", str(SPEC["run_seconds"]),
             "--trace", "1" if trace else "0", "--json", str(out)],
            capture_output=True, text=True)
        if r.returncode != 0:
            sys.exit(f"compare: {workload} seed {seed} exited "
                     f"{r.returncode}:\n{r.stderr}")
        res = json.loads(r.stdout.strip().splitlines()[-1])
        return res, json.loads(out.read_text())["exact"]


def values(results, name):
    return [r["metrics"][name]["value"] for r in results]


def quartiles(v):
    """(q1, median, q3), as statistics.quantiles(v, n=4) gives them."""
    return tuple(statistics.quantiles(v, n=4)) if len(v) > 1 else (v[0],) * 3


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / med if med else 0.0


def worse_by(new, old, better):
    """Share of @p old by which @p new is worse (negative: better)."""
    if old == 0:
        return 0.0
    return (new - old) / old if better == "lower" else (old - new) / old


def verdict(parent, change, metric):
    better, bound = metric["better"], metric["bound"]
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    beats = (lambda c, p: c < p) if better == "lower" else (lambda c, p: c > p)
    wins = sum(beats(c, p) for p, c in zip(parent, change)) / len(parent)
    all_beat = all(beats(c, p) for c in change for p in parent)
    if spread(parent) > bound and not all_beat:
        return wins, "unresolved"
    if worse_by(med_c, med_p, better) > bound:
        return wins, "regressed"
    if wins >= 0.9 and abs(med_c - med_p) > q3 - q1 and beats(med_c, med_p):
        return wins, "improved"
    return wins, "unchanged"


def fmt(v):
    q1, med, q3 = quartiles(v)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def ab(args):
    exes = {"parent": build(args.ab[0]), "change": build(args.ab[1])}
    print(f"{'workload':<11} {'metric':<15} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'wins':>5}  verdict")
    raw, ok = {}, True
    for w in args.workload:
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(once(exes[side], w, args.seed + k)[0])
        raw[w] = runs
        for m in E2E:
            p, c = values(runs["parent"], m["name"]), values(runs["change"], m["name"])
            wins, v = verdict(p, c, m)
            ok &= v != "regressed"
            print(f"{w:<11} {m['name']:<15} {fmt(p):<36} {fmt(c):<36} "
                  f"{wins:5.2f}  {v}")
        fails = {s: sum(r["failed"] for r in runs[s]) for s in runs}
        ok &= fails["change"] <= fails["parent"]
        print(f"{w:<11} {'failed':<15} {fails['parent']:<36} {fails['change']:<36} "
              f"{'':5}  {'regressed' if fails['change'] > fails['parent'] else 'ok'}")
    return raw, ok


def stability(args):
    exe = build(args.stability)
    print(f"{'workload':<11} {'metric':<15} {'set A median':>14} {'spread':>7} "
          f"{'set B median':>14} {'spread':>7} {'drift':>7} {'bound':>6}  verdict")
    raw, ok = {}, True
    for w in args.workload:
        sets = [[once(exe, w, args.seed + k)[0] for k in range(args.runs)]
                for _ in range(2)]
        raw[w] = sets
        for m in E2E:
            a, b = values(sets[0], m["name"]), values(sets[1], m["name"])
            drift = worse_by(quartiles(b)[1], quartiles(a)[1], m["better"])
            bound = m["bound"]
            good = drift <= bound and (m["name"] == "setup_s"
                                       or max(spread(a), spread(b)) <= bound)
            noisy = max(spread(a), spread(b)) > bound / 3
            ok &= good
            print(f"{w:<11} {m['name']:<15} {quartiles(a)[1]:14.6g} "
                  f"{spread(a):7.2%} {quartiles(b)[1]:14.6g} {spread(b):7.2%} "
                  f"{drift:7.2%} {bound:6.0%}  "
                  f"{'ok' if good else 'FAIL'}{' (noisy)' if noisy else ''}")
        failed = sum(r["failed"] for s in sets for r in s)
        ok &= failed == 0
        (ra, exact), (rb, _) = (once(exe, w, args.seed, trace=True)
                                for _ in range(2))
        differ = [n for n in exact if ra["metrics"][n] != rb["metrics"][n]]
        ok &= not differ
        print(f"{w:<11} failed {failed}; exact metrics "
              f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
    return raw, ok


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--ab", nargs=2, metavar=("PARENT_TREE", "CHANGE_TREE"))
    mode.add_argument("--stability", metavar="TREE")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=9001)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--out", help="write every run's result here (JSON)")
    args = ap.parse_args()
    args.workload = args.workload or WORKLOADS

    raw, ok = ab(args) if args.ab else stability(args)
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
