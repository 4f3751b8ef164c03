"""Benchmark of the choicedyn attractor engine: one workload, one seed, one run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload {k_fine,slices} --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout, never from an
installed copy.  A run

1. times the set-up (interpreter start, imports, building the models and
   inputs) in ``SETUP_PROBES`` fresh processes, one after the other;
2. repeats whole rounds of the workload's operations until ``--seconds``
   have passed (with ``--trace 1``, rounds alternate untraced and traced);
3. checks every kept output against the grid oracles (untimed);
4. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   end-to-end metrics (``--trace 0``) or the per-layer metrics
   (``--trace 1``).

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5


def _import_program():
    """Put the checkout's src/ first on sys.path; fail if it has no choicedyn."""
    if not os.path.isfile(os.path.join(SRC, "choicedyn", "__init__.py")):
        sys.exit(f"perfbench: no choicedyn sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import choicedyn

    if os.path.dirname(os.path.dirname(os.path.abspath(choicedyn.__file__))) != SRC:
        sys.exit(f"perfbench: imported choicedyn from {choicedyn.__file__}, not {SRC}")


def _setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import and build the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _run_rounds(wl, seconds: float, tracer):
    """Whole rounds until `seconds` have passed; traced rounds alternate with plain ones.

    Returns (plain rounds, traced rounds, per-traced-round layer metrics,
    kept results as (label, kept) pairs, labels of failed operations); a
    round is a dict of operation label -> seconds.
    """
    plain, traced, layer_rounds, kept, failures = [], [], [], [], []
    traced_ops = None
    started = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(plain) > len(traced)
        if trace_this:
            tracer.reset_totals()
            tracer.install()
            if traced_ops is None:
                traced_ops = wl.operations(tracer.wrap_model)
            ops = traced_ops
        else:
            ops = wl.operations()
        results, times = [], {}
        for label, op in ops:
            t0 = time.perf_counter()
            try:
                results.append((label, op()))
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc()
                failures.append(label)
            times[label] = time.perf_counter() - t0
        if trace_this:
            tracer.uninstall()
            traced.append(times)
            layer_rounds.append(tracer.round_metrics())
        else:
            plain.append(times)
        kept += [(label, wl.keep(label, res)) for label, res in results]
        if time.perf_counter() - started >= seconds and (tracer is None or traced):
            return plain, traced, layer_rounds, kept, failures


def _fastest_round(rounds) -> float:
    """Sum over operations of each operation's fastest time among the rounds.

    The host's slow phases only ever add time, so the fastest repeat is the
    steadiest estimate of an operation's cost.
    """
    return sum(min(r[label] for r in rounds) for label in rounds[0])


def _check(wl, kept):
    """Problems found in the kept outputs; a repeat equal to a checked output passes."""
    import checks

    checker = checks.CHECKS[wl.name](wl)
    problems = []
    checked = {}
    for label, res in kept:
        if label in checked and checked[label] == res:
            continue
        problems += checker(label, res)
        checked[label] = res
    return problems


def _rates(wl, rounds) -> str:
    """A_w completed per second and chaos-game steps per second, where they run."""
    out = ""
    aw = [[t for label, t in rnd.items() if " A_" in label] for rnd in rounds]
    if aw[0]:
        out += f", a_w_per_s {len(aw[0]) / sum(map(min, zip(*aw))):.2f}"
    chaos = [[t for label, t in rnd.items() if label.startswith("chaos")] for rnd in rounds]
    if chaos[0]:
        steps = sum(kw["steps"] for kw in wl.chaos.values())
        out += f", chaos_steps_per_s {steps / sum(map(min, zip(*chaos))):.0f}"
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, OUT)
        return 0

    setup_s = _setup_seconds(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    plain, traced, layer_rounds, kept, failures = _run_rounds(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = _check(wl, kept)
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)
    for label in failures[:5]:
        print(f"failed: {label}", file=sys.stderr)
    rounds = len(plain) + len(traced)
    ops_per_round = len(wl.operations())
    round_s = [sum(r.values()) for r in plain]
    wall_s = _fastest_round(plain)

    if args.trace:
        metrics = {}
        for key in layer_rounds[0]:
            values = [r[key] for r in layer_rounds]
            unit = "s" if key.endswith("_s") else ("ratio" if key.endswith("ratio") else "count")
            value = statistics.median(values) if unit != "count" else values[0]
            metrics[key] = {"value": value, "unit": unit}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (_fastest_round(traced) / wall_s - 1.0), "unit": "%"}
        metrics["trace.spans"] = {"value": len(tracer.span_layer) // len(traced), "unit": "count"}
        tracer.save(os.path.join(OUT, f"spans-{wl.name}-{args.seed}.npz"))
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"perfbench: {wl.name} seed {args.seed}: {rounds} rounds of {ops_per_round} operations,"
          f" plain round seconds {[round(t, 3) for t in round_s]}{_rates(wl, plain)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * ops_per_round,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
