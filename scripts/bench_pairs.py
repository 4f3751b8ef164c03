"""Paired benchmark runs of two commits, written as one BENCH_<n>.json file.

Usage (from the root of a git checkout):

    python scripts/bench_pairs.py PARENT CHANGE --seeds 21-30 --out BENCH_10.json
    python scripts/bench_pairs.py PARENT CHANGE --seeds 31-40 --workload slices --out BENCH_10.json
    python scripts/bench_pairs.py PARENT CHANGE --seeds 21 --trace --out BENCH_10.json

PARENT and CHANGE are commits; the output records their full ids.  Each side
runs from its own ``git archive`` export in a temporary directory, so both run
only committed files and the checkout is left as it is.  Per workload
(default: every workload in the change's BENCHMARK.json) and seed there is
one pair of ``perfbench/run.py`` runs of BENCHMARK.json's ``run_seconds``, one
run at a time; even pairs run the parent first, odd pairs the change first.

The output holds, under ``runs["<workload> seeds <seeds>"]``, each end-to-end
metric's median and quartiles on both sides, the pairs the change won, the
change/parent ratio of the medians with BENCHMARK.json's bound and a verdict,
and every run, with each side's correctness, failed and attempted operations
and rounds.  The verdict is "unresolved" when either side's quartile spread,
relative to its median, is wider than the bound; otherwise "over" when the
ratio is worse than 1 by more than the bound, else "within".  With
``--trace`` each seed instead gets one traced run per side, stored under
``traced["<workload> seed <s>"]``.  An existing output file is updated:
entries of other seed sets and its ``notes`` are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str) -> list:
    """Seeds from a range "21-30" or one seed "21"."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _commit(rev: str) -> str:
    """The full id of the commit rev names."""
    return subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                          check=True, capture_output=True, text=True).stdout.strip()


def _export(rev: str, dest: str) -> str:
    """The files of rev, written under dest by git archive."""
    tar = dest + ".tar"
    subprocess.run(["git", "-C", ROOT, "archive", "--output", tar, rev], check=True)
    os.makedirs(dest)
    subprocess.run(["tar", "-xf", tar, "-C", dest], check=True)
    os.remove(tar)
    return dest


def _run(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in tree: its last JSON line plus the rounds it ran."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout.splitlines()
    result = json.loads(out[-1])
    result["rounds"] = int(re.search(r": (\d+) rounds of", out[-2]).group(1))
    return result


def _quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def _verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """"unresolved" if a side's quartiles spread wider than bound times its
    median, else "over" if the change's median is worse than the parent's by
    more than the bound, else "within"."""
    if any(q["q3"] - q["q1"] > bound * q["median"] for q in (parent, change)):
        return "unresolved"
    ratio = change["median"] / parent["median"]
    return "over" if (ratio > 1 + bound if better == "lower" else ratio < 1 - bound) else "within"


def _summary(pairs, end_to_end) -> dict:
    """Per metric: both sides' quartiles, the pairs the change won, the median
    ratio against the bound, every run."""
    metrics = {}
    for metric in end_to_end:
        name, direction, bound = metric["name"], metric["better"], metric["bound"]
        parent = [round(p["metrics"][name]["value"], 4) for p, _ in pairs]
        change = [round(c["metrics"][name]["value"], 4) for _, c in pairs]
        won = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(parent, change))
        quartiles = {"parent": _quartiles(parent), "change": _quartiles(change)}
        metrics[name] = {
            **quartiles,
            "change_better_in_pairs": f"{won}/{len(pairs)}",
            "median_ratio": round(quartiles["change"]["median"] / quartiles["parent"]["median"], 4),
            "bound": bound,
            "verdict": _verdict(quartiles["parent"], quartiles["change"], direction, bound),
            "parent_runs": parent,
            "change_runs": change,
        }
    sides = {}
    for i, side in enumerate(("parent", "change")):
        runs = [pair[i] for pair in pairs]
        sides[side] = {
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "rounds": [r["rounds"] for r in runs],
        }
    return {"seeds": [p["seed"] for p, _ in pairs], "metrics": metrics, **sides}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="commit of the parent side")
    parser.add_argument("change", help="commit of the change side")
    parser.add_argument("--seeds", required=True, help='seed range "21-30" or one seed "21"')
    parser.add_argument("--workload", action="append", help="a workload to run (repeatable; default all)")
    parser.add_argument("--trace", action="store_true", help="one traced run per side and seed instead of pairs")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write or update")
    args = parser.parse_args(argv)

    seeds = _seeds(args.seeds)
    if len(seeds) < 2 and not args.trace:
        parser.error("quartiles of paired runs need at least two seeds")
    report = {}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    revisions = {side: _commit(rev) for side, rev in (("parent", args.parent), ("change", args.change))}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: _export(rev, os.path.join(tmp, side)) for side, rev in revisions.items()}
        with open(os.path.join(trees["change"], "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            bench = json.load(fh)
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        seconds = bench["run_seconds"]
        end_to_end = bench["end_to_end"]
        names = [m["name"] for m in end_to_end]
        report.update({
            "what": "perfbench end-to-end metrics of the parent and the change commit: alternating pairs of"
                    " untraced runs under 'runs', one traced run per side under 'traced'",
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
            "protocol": "each side runs from its own git archive export of the committed files, one run at a time;"
                        " one pair per seed; even pairs run the parent first, odd pairs the change first",
            "host": f"{os.cpu_count()}-core {platform.machine()} {platform.system()},"
                    f" Python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}",
            "revisions": revisions,
        })
        for workload in workloads:
            if args.trace:
                for seed in seeds:
                    runs = {side: _run(trees[side], workload, seed, seconds, 1) for side in ("parent", "change")}
                    report.setdefault("traced", {})[f"{workload} seed {seed}"] = {
                        "command": f"python3 perfbench/run.py --workload {workload} --seed {seed}"
                                   f" --seconds {seconds:g} --trace 1",
                        **{side: {"correct": r["correct"], "failed": r["failed"], "rounds": r["rounds"],
                                  **{k: round(v["value"], 4) for k, v in r["metrics"].items()}}
                           for side, r in runs.items()},
                    }
                    print(f"{workload} seed {seed} traced: done", file=sys.stderr, flush=True)
                continue
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                runs = {side: {**_run(trees[side], workload, seed, seconds, 0), "seed": seed} for side in order}
                pairs.append((runs["parent"], runs["change"]))
                values = {side: {name: r["metrics"][name]["value"] for name in names} for side, r in runs.items()}
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{name} {values['parent'][name]:.4g} -> {values['change'][name]:.4g}" for name in names
                ), file=sys.stderr, flush=True)
            report.setdefault("runs", {})[f"{workload} seeds {args.seeds}"] = _summary(pairs, end_to_end)
    report.setdefault("notes", [])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
