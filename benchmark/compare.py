#!/usr/bin/env python3
"""Compare two commits on the benchmark's end-to-end metrics.

Run both sides now, in alternating pairs (one seed per pair, the side that
runs first alternates):

    python3 benchmark/compare.py --run PARENT_CHECKOUT CHANGE_CHECKOUT \
        [--pairs 10] [--first-seed 1] [--out DIR]

Every workload of BENCHMARK.json runs, for its run_seconds.

or compare result files already written by voronet_bench (the JSON files
under build-bench/results/ of each side):

    python3 benchmark/compare.py --dirs PARENT_DIR CHANGE_DIR

For every workload x end-to-end metric it prints each side's median and
quartiles, the fraction of seed-paired runs the change wins, and a verdict:

  improved      the change wins >= 9/10 of the pairs and the medians differ
                by more than the parent's own quartile spread;
  unresolved    the parent's spread is wider than the metric's bound, and
                not every change run beats every parent run;
  regressed     the change's median is worse than the parent's by more than
                the bound in BENCHMARK.json;
  within bound  otherwise.

A rise in failed operations, or any run that failed its correctness gates,
is flagged.  The exit status is 1 when anything regressed or was flagged.
Standard library only.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_runs(directory):
    """{(workload, seed): result document} for the untraced runs in a dir."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            doc = json.load(f)
        prov = doc.get("provenance", {})
        if prov.get("trace"):
            continue
        runs[(prov["workload"], prov["seed"])] = doc
    return runs


def run_side(checkout, workload, seed, out_dir):
    checkout = Path(checkout).resolve()
    cmd = ["bash", "benchmark/run.sh", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    name = f"{workload}-seed{seed}-trace0.json"
    src = checkout / "build-bench" / "results" / name
    if not src.exists():
        sys.exit(f"compare.py: {checkout} wrote no result for {workload} "
                 f"seed {seed} (exit {proc.returncode})")
    out_dir.mkdir(parents=True, exist_ok=True)
    shutil.copy(src, out_dir / name)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    decided = [(c - p) * sign for p, c in pairs if c != p]
    wins = sum(1 for d in decided if d < 0)
    win_fraction = wins / len(pairs) if pairs else None
    worse_by = (cm - pm) * sign / pm if pm else 0.0
    spread = (p3 - p1) / pm if pm else 0.0
    all_better = all((c - p) * sign < 0 for p in parent for c in change)
    if (win_fraction is not None and win_fraction >= 0.9
            and abs(cm - pm) > (p3 - p1) and worse_by < 0):
        return "improved", win_fraction, worse_by
    if spread > bound and not all_better:
        return "unresolved", win_fraction, worse_by
    if worse_by > bound:
        return "regressed", win_fraction, worse_by
    return "within bound", win_fraction, worse_by


def compare(parent_runs, change_runs, workloads, metrics):
    flagged = False
    print(f"{'workload':18} {'metric':22} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'change':>8} {'wins':>5}  verdict")
    for w in workloads:
        seeds = sorted({s for (wl, s) in parent_runs if wl == w} |
                       {s for (wl, s) in change_runs if wl == w})
        p_docs = [parent_runs[(w, s)] for s in seeds if (w, s) in parent_runs]
        c_docs = [change_runs[(w, s)] for s in seeds if (w, s) in change_runs]
        if not p_docs or not c_docs:
            continue
        p_failed = sum(d["failed"] for d in p_docs)
        c_failed = sum(d["failed"] for d in c_docs)
        bad = [d for d in p_docs + c_docs if not d["correct"]]
        for m in metrics:
            name = m["name"]
            parent = [d["end_to_end"][name] for d in p_docs
                      if name in d["end_to_end"]]
            change = [d["end_to_end"][name] for d in c_docs
                      if name in d["end_to_end"]]
            if not parent or not change:
                continue
            pairs = [(parent_runs[(w, s)]["end_to_end"][name],
                      change_runs[(w, s)]["end_to_end"][name])
                     for s in seeds
                     if (w, s) in parent_runs and (w, s) in change_runs
                     and name in parent_runs[(w, s)]["end_to_end"]
                     and name in change_runs[(w, s)]["end_to_end"]]
            v, win_fraction, worse_by = verdict(parent, change, pairs,
                                                m["better"], m["bound"])
            flagged = flagged or v == "regressed"
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            delta = (cm / pm - 1.0) * 100.0 if pm else 0.0
            wins = "-" if win_fraction is None else f"{win_fraction:.2f}"
            print(f"{w:18} {name:22} "
                  f"{pm:12.5g} [{p1:9.5g}, {p3:9.5g}] "
                  f"{cm:12.5g} [{c1:9.5g}, {c3:9.5g}] "
                  f"{delta:+7.2f}% {wins:>5}  {v} "
                  f"(bound {m['bound'] * 100:.0f}%, n={len(parent)}/"
                  f"{len(change)})")
        if c_failed > p_failed:
            print(f"{w:18} FLAG: failed operations rose {p_failed} -> "
                  f"{c_failed}")
            flagged = True
        if bad:
            print(f"{w:18} FLAG: {len(bad)} run(s) failed a correctness gate")
            flagged = True
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--run", nargs=2, metavar=("PARENT", "CHANGE"),
                      help="checkouts to run in alternating pairs")
    mode.add_argument("--dirs", nargs=2, metavar=("PARENT", "CHANGE"),
                      help="directories of voronet_bench result files")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="build-bench/compare")
    args = ap.parse_args()

    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    if args.run:
        if args.pairs < 10:
            sys.exit("compare.py: a comparison needs at least 10 pairs")
        out = Path(args.out)
        sides = [("parent", args.run[0]), ("change", args.run[1])]
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = sides if i % 2 == 0 else sides[::-1]
            for w in workloads:
                for label, checkout in order:
                    run_side(checkout, w, seed, out / label)
                    print(f"pair {i + 1}/{args.pairs} {w} {label} done",
                          file=sys.stderr)
        dirs = (out / "parent", out / "change")
    else:
        dirs = args.dirs
    flagged = compare(load_runs(dirs[0]), load_runs(dirs[1]), workloads,
                      metrics)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
