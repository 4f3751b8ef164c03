"""The verdicts of scripts/bench_pairs.py: each metric's median ratio against its bound."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(parent, change):
    """Paired correct runs whose one metric "m" reads the given values."""
    run = {"correct": True, "failed": 0, "attempted": 1, "rounds": 1}
    return [
        ({**run, "seed": seed, "metrics": {"m": {"value": p}}}, {**run, "seed": seed, "metrics": {"m": {"value": c}}})
        for seed, (p, c) in enumerate(zip(parent, change))
    ]


@pytest.mark.parametrize(
    "better, parent, change, ratio, verdict",
    [
        ("lower", [1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.2, 1.2], 1.2, "within"),
        ("lower", [1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], 1.3, "over"),
        ("lower", [1.0, 1.0, 1.0, 1.0], [0.5, 0.5, 0.5, 0.5], 0.5, "within"),
        ("higher", [1.0, 1.0, 1.0, 1.0], [0.7, 0.7, 0.7, 0.7], 0.7, "over"),
        ("higher", [1.0, 1.0, 1.0, 1.0], [1.5, 1.5, 1.5, 1.5], 1.5, "within"),
        # the parent's quartiles 0.7 and 1.3 spread 0.6 > 0.25 of its median 1.0
        ("lower", [0.6, 0.8, 1.2, 1.4], [1.0, 1.0, 1.0, 1.0], 1.0, "unresolved"),
        # so do the change's, though its median is far over the bound
        ("lower", [1.0, 1.0, 1.0, 1.0], [1.0, 1.6, 2.4, 3.0], 2.0, "unresolved"),
    ],
)
def test_each_metric_gets_its_median_ratio_bound_and_verdict(better, parent, change, ratio, verdict):
    summary = bench_pairs._summary(_pairs(parent, change), [{"name": "m", "better": better, "bound": 0.25}])
    m = summary["metrics"]["m"]
    assert (m["median_ratio"], m["bound"], m["verdict"]) == (ratio, 0.25, verdict)
