"""Tests of the benchmark itself: its oracles agree with the program at coarse
delta, and every check rejects a corrupted result.

Run from the root of the checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from choicedyn import compute_K, individual_attractor, models, vertex_limits  # noqa: E402
from choicedyn.setdyn import PointCloud  # noqa: E402
from choicedyn.sofic import builtin  # noqa: E402
from choicedyn.symbolic import parse_strategy  # noqa: E402
from tracing import COUNTS, TIME_LAYERS, Tracer  # noqa: E402


def _tables(model, delta):
    grid = oracles.Grid(model, delta)
    return grid, [grid.table(fn) for fn in model.maps]


def test_k_oracle_matches_compute_K_at_coarse_delta():
    model = models.malaria_model()
    grid, tables = _tables(model, 5e-3)
    report = compute_K(model, 5e-3)
    assert report.converged
    assert np.array_equal(grid.ids(report.cloud.points), oracles.k_limit(tables))


@pytest.mark.parametrize("name,delta,strategies", [
    ("malaria", 0.01, ["(0)", "(1)", "(01)", "1(0)", "0(011)", "10(01)"]),
    ("gestalt", 0.0, ["(0)", "(011)", "(0110)"]),
])
def test_a_w_oracle_matches_individual_attractor(name, delta, strategies):
    model = models.build_model(name)
    grid, tables = _tables(model, delta)
    for text in strategies:
        w = parse_strategy(text)
        expected, repeats = oracles.a_w_limit(tables, w.preperiod, w.period)
        report = individual_attractor(model, w, delta)
        assert repeats and report.converged
        assert np.array_equal(grid.ids(report.cloud.points), expected), text


@pytest.mark.parametrize("name,params,subshift,delta", [
    ("three_point", None, "golden_even", 0.0),
    ("malaria", {"dt": 0.005}, "golden_mean", 0.01),
])
def test_vertex_oracle_matches_vertex_limits(name, params, subshift, delta):
    model = models.build_model(name, params)
    pres = builtin(subshift)
    grid, tables = _tables(model, delta)
    sets = oracles.vertex_limit_sets(tables, pres.vertices, sorted(pres.edges))
    family = vertex_limits(model, pres, delta)
    for v in pres.vertices:
        assert np.array_equal(grid.ids(family.clouds[v].points), sets[v]), v


def test_cantor_distance_bounds():
    assert oracles.cantor_distance(np.array([0.0, 1.0, 2 / 3, 0.25])).max() <= 2 * 3.0 ** -12
    assert oracles.cantor_distance(np.array([0.5]))[0] == pytest.approx(1 / 6, abs=1e-5)


@pytest.fixture(scope="module")
def k_coarse(tmp_path_factory):
    wl = workloads.KFine(3, str(tmp_path_factory.mktemp("k")), delta=5e-3,
                         cantor_steps=20_000, malaria_steps=20_000)
    results = {label: wl.keep(label, op()) for label, op in wl.operations()}
    return wl, checks.KFineCheck(wl), results


def test_k_fine_checks_pass_on_the_program(k_coarse):
    wl, check, results = k_coarse
    for label, res in results.items():
        assert check(label, res) == [], label


def test_k_check_rejects_a_dropped_node(k_coarse):
    wl, check, results = k_coarse
    code, stdout, csv_text, svg_text = results["K"]
    lines = csv_text.splitlines(keepends=True)
    dropped = "".join(lines[:100] + lines[101:])
    assert check("K", (code, stdout, dropped, svg_text))


@pytest.mark.parametrize("label", ["chaos cantor", "chaos malaria"])
def test_chaos_check_rejects_an_orbit_shifted_by_3_delta(k_coarse, label):
    wl, check, results = k_coarse
    cloud, mean = results[label]
    delta = wl.chaos[label]["delta"]
    shifted = PointCloud(cloud.points + 3 * delta, delta)
    assert check(label, (shifted, mean))


@pytest.fixture(scope="module")
def slices():
    wl = workloads.Slices(0, n_orbits=2, subshifts=("golden_mean",))
    results = {label: op() for label, op in wl.operations()}
    return wl, checks.SlicesCheck(wl), results


def test_slices_checks_pass_on_the_program(slices):
    wl, check, results = slices
    for label, res in results.items():
        assert check(label, res) == [], label


def test_a_w_check_rejects_another_strategys_attractor(slices):
    wl, check, results = slices
    a, b = (f"malaria A_{w}" for w in wl.strategies)
    assert results[a].cloud != results[b].cloud
    assert check(a, results[b])


def test_slices_check_rejects_swapped_vertex_clouds(slices):
    wl, check, results = slices
    for label, res in results.items():
        if " over " not in label:
            continue
        family, report, ok, residuals = res
        u, v = list(family.clouds)[0], list(family.clouds)[-1]
        assert family.clouds[u] != family.clouds[v]
        swapped = dict(family.clouds, **{u: family.clouds[v], v: family.clouds[u]})
        bad = dataclasses.replace(family, clouds=swapped)
        assert check(label, (bad, report, ok, residuals)), label


def test_two_traced_rounds_count_the_same():
    wl = workloads.Slices(0, n_orbits=2, subshifts=("golden_mean",))
    tracer = Tracer()
    ops = wl.operations(tracer.wrap_model)
    rounds = []
    for _ in range(2):
        tracer.reset_totals()
        tracer.install()
        try:
            for _, op in ops:
                op()
        finally:
            tracer.uninstall()
        rounds.append(tracer.round_metrics())
    assert set(rounds[0]) == {f"{layer}_s" for layer in TIME_LAYERS} | set(COUNTS) | {"setdyn.snap_keep_ratio"}
    assert {k: rounds[0][k] for k in COUNTS} == {k: rounds[1][k] for k in COUNTS}
    assert rounds[0]["restricted.sweeps"] > 0 and rounds[0]["sofic.start_vertices_calls"] > 0
    assert rounds[0]["setdyn.map_rows"] > 0 and rounds[0]["setdyn.residual_calls"] > 0
    assert rounds[0]["setdyn.orbit_steps"] > 0
    # uninstalled: the program's own functions are back in place
    assert workloads.restricted.vertex_limits is vertex_limits
