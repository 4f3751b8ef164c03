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

import numpy as np

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


def test_c08_counterexample_diagnostics(ctx):
    _run(ctx, "C8")


def test_c09_inclusion_suite(ctx):
    _run(ctx, "C9")


def test_c10_chaos_game(ctx):
    _run(ctx, "C10")


def test_criterion_ids_unique_and_complete():
    ids = [cid for cid, _, _ in verify.CRITERIA]
    assert ids == [f"C{i}" for i in range(1, 11)]
    assert len(set(ids)) == len(ids)
    # each id and each full name selects its own criterion alone
    for cid, name, _ in verify.CRITERIA:
        for only in (cid, name):
            assert [c for c, n, _ in verify.CRITERIA if verify._matches(only, c, n)] == [cid]


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
