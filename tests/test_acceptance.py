"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints a single pass/fail line for its criterion.  Every
criterion computes its own attractors; the session context only carries the
default malaria parameter sets.

C5 checks two quantities of the three-point golden+even model.  The class
limit sets, the distinct per-vertex clouds of vertex_limits, must be
exactly {A,B} and {B,C}, the values stated for the model.  The strategy
slices, unions of those clouds over the start vertices of a strategy, must
number exactly two and agree with the product-graph oracle on every
representative strategy; they are {A,B,C} (A is a start vertex, as for
(001)*, whose complete orbit A -> B -> C lies in the restricted attractor)
and {B,C}.  The stated values {A,B} and {B,C} are class limit sets, not
slices; compared with the slices they would fail on a correct program.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from choicedyn import models, verify


def _run(ctx, cid):
    [result] = verify.run(only=cid, ctx=ctx)
    print(result.line())
    assert result.cid == cid
    assert result.passed, result.detail
    return result


def test_c01_fixed_points_exact(ctx):
    _run(ctx, "C1")


def test_c02_step_bound_gate(ctx):
    _run(ctx, "C2")


def test_c03_cantor_oracle(ctx):
    _run(ctx, "C3")


def test_c04_hutchinson_invariance(ctx):
    _run(ctx, "C4")


def test_c05_exact_two_slices(ctx):
    _run(ctx, "C5")


def test_c06_malaria_restricted(ctx):
    _run(ctx, "C6")


def test_c07_gestalt_effect(ctx):
    _run(ctx, "C7")


def test_c07_runs_each_distinct_periodic_strategy_once(ctx, monkeypatch):
    # the 30 words of length <= 4 are 22 strategies in normal form: (00) is (0), (0101) is (01)
    runs = []
    attractor = verify.individual_attractor
    monkeypatch.setattr(verify, "individual_attractor",
                        lambda model, w, **kw: runs.append(w) or attractor(model, w, **kw))
    result = _run(ctx, "C7")
    assert len(runs) == len(set(runs)) == 22
    assert result.detail == "prefix in K, absent from all 22 periodic strategies"


def test_c08_counterexample_diagnostics(ctx):
    _run(ctx, "C8")


def test_c09_inclusion_suite(ctx):
    _run(ctx, "C9")


def test_c10_chaos_game(ctx):
    _run(ctx, "C10")


def test_criterion_ids_unique_and_complete():
    ids = [cid for cid, _, _, _ in verify.CRITERIA]
    assert ids == [f"C{i}" for i in range(1, 11)]
    assert len(set(ids)) == len(ids)
    # each id and each full name selects its own criterion alone
    for cid, name, _, _ in verify.CRITERIA:
        for only in (cid, name):
            assert [c for c, n, _, _ in verify.CRITERIA if verify._matches(only, c, n)] == [cid]


def test_time_bounds_are_the_stated_gates():
    # the gates of ROADMAP aim 1: C1 < 1 ms, C3 < 10 s, C5 < 1 s, C6 < 60 s, C7 < 30 s, C10 < 5 s
    bounds = {cid: bound for cid, _, _, bound in verify.CRITERIA if bound is not None}
    assert bounds == {"C1": 1e-3, "C3": 10.0, "C5": 1.0, "C6": 60.0, "C7": 30.0, "C10": 5.0}


def _clocked(monkeypatch, cid, problems, seconds):
    """Run criterion cid with its check replaced and a clock that reads 0, then seconds."""
    table = tuple(
        (c, name, (lambda ctx: (list(problems), "all fine")) if c == cid else check, bound)
        for c, name, check, bound in verify.CRITERIA
    )
    monkeypatch.setattr(verify, "CRITERIA", table)
    ticks = iter((0.0, seconds))
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    [result] = verify.run(only=cid)
    return result


@pytest.mark.parametrize(
    "cid, problems, seconds, passed, detail",
    [
        ("C1", [], 1e-3, False, "runtime 0.001s >= 0.001s"),
        ("C3", [], 10.0, False, "runtime 10s >= 10s"),
        ("C3", [], 9.99, True, "all fine"),
        ("C10", [], 12.5, False, "runtime 12.5s >= 5s"),
        ("C4", [], 1e6, True, "all fine"),  # C4 has no bound
        ("C4", ["first"], 0.5, False, "first"),
        ("C6", ["first", "second"], 75.0, False, "first; second; runtime 75s >= 60s"),
    ],
)
def test_run_enforces_the_time_bound_of_the_table(monkeypatch, cid, problems, seconds, passed, detail):
    result = _clocked(monkeypatch, cid, problems, seconds)
    assert (result.passed, result.seconds, result.detail) == (passed, seconds, detail)


def test_context_malaria_uses_its_parameter_sets():
    p0 = models.MalariaParams(a=3, b=5, r=1, m=2, dt=0.02)
    p1 = models.MalariaParams(a=2, b=7, r=2, m=1, dt=0.02)
    ctx = verify.Context(p0, p1)
    pts = np.random.default_rng(11).random((50, 2))
    for dt, model in ((0.02, ctx.malaria()), (0.005, ctx.malaria(dt=0.005))):
        expected = models.malaria_model(replace(p0, dt=dt), replace(p1, dt=dt))
        assert model.n_maps == expected.n_maps == 2
        for got, want in zip(model.maps, expected.maps):
            assert np.array_equal(got(pts), want(pts))
