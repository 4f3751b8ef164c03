"""Restricted-choice dynamics over a sofic subshift.

The attractor of the restricted dynamics is analyzed through per-vertex
limit clouds: seed every vertex of the presentation with the bounding
cloud and iterate C'_v = union over edges (u -j-> v) of S_j(C_u) to a
fixed family.  C_v is then the limit set of S_w(seed) over words whose
accepting path ends at v, and the slice of a strategy u is the union of
the family over start_vertices(P, u).  Deduplicating slice clouds over all
short ultimately periodic strategies enumerates the finitely many distinct
slices; the union of the family is the restricted attractor projection
K_Lambda together with its decomposition sets A_j = {x : S_j(x) lies within
delta of K_Lambda}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .setdyn import ModelSpec, PointCloud, _Graph, _nearest, _sweep, hausdorff
from .sofic import SoficPresentation, _walk, start_vertices
from .symbolic import UPString


@dataclass(frozen=True, eq=False)
class VertexFamily:
    """Per-vertex limit clouds of a presentation, with diagnostics; ``stop``
    names the rule that ended the sweeps: "cycle" or "maxiter"."""

    presentation: SoficPresentation
    clouds: dict
    residual: float
    iterations: int
    stop: str

    @property
    def converged(self) -> bool:
        return self.stop != "maxiter"

    @property
    def all_converged(self) -> bool:
        """The same as ``converged``, kept only because perfbench/checks.py reads it."""
        return self.converged

    def union(self) -> PointCloud:
        return PointCloud.union(self.clouds.values())


def vertex_limits(
    model: ModelSpec,
    pres: SoficPresentation,
    delta: float,
    maxiter: int = 1000,
) -> VertexFamily:
    """Iterate the graph-indexed set update to its fixed family.

    Every vertex starts at the full bounding cloud; one sweep replaces each
    C_v by the snapped union of S_j(C_u) over edges (u -j-> v).  Sweeps are
    Jacobi-style: all vertices advance from the same snapshot, up to the
    family's first recurrence or ``maxiter``.  From an absorbing seed the
    clouds only shrink, so the recurrence is the exact limit on the grid:
    C_v holds the nodes x for which (v, x) is reachable from a cycle of the
    product graph (u, x) -> (v, snap(S_j(x))); a cloud that grows there
    raises RuntimeError, so a caller's seed needs ``seed_absorbing=False``.
    Equal vertex clouds are one object.
    """
    if pres.is_empty:
        raise ValueError("presentation is empty")
    g = _Graph(model, delta, maxiter, sorted({j for _, j, _ in pres.edges}))
    # a vertex without live incoming edges gets the empty set: no long word ends there
    incoming = [[(pres.vertices.index(u), j) for u, j, dst in sorted(pres.edges) if dst == v] for v in pres.vertices]
    masks, k, residual, stop = _sweep(g, incoming, maxiter)
    clouds = {}
    for v, m in zip(pres.vertices, masks):
        cloud = g.cloud(*m)
        clouds[v] = next((c for c in clouds.values() if c == cloud), cloud)
    return VertexFamily(pres, clouds, residual, k, stop)


@dataclass(frozen=True, eq=False)
class SliceReport:
    """Distinct slices, strategy classification, and the K_Lambda decomposition, at
    ``k_lambda.delta``; a slice or A_j equal to K_Lambda is ``k_lambda`` itself."""

    slices: tuple
    representatives: dict
    k_lambda: PointCloud
    a_sets: tuple


def _decomposition_sets(model: ModelSpec, k_lambda: PointCloud):
    """A_j: the points of K_Lambda whose image under S_j lies within K_Lambda's
    delta of K_Lambda (at delta = 0, on it), up to rounding."""
    delta = k_lambda.delta
    sets = []
    for fn in model.maps:
        images = np.asarray(fn(k_lambda.points), dtype=float)
        mask = _nearest(images, k_lambda) <= delta * (1.0 + 1e-9) + 1e-12
        sets.append(k_lambda if mask.all() else PointCloud(k_lambda.points[mask], delta))
    return tuple(sets)


_WORD_CAP = 200_000  # words of one length at most; a period_bound that needs more is a ValueError


def enumerate_slices(
    model: ModelSpec,
    pres: SoficPresentation,
    family: VertexFamily,
    period_bound: int,
) -> SliceReport:
    """Slices of every UPString in the subshift with |preperiod| + |period| <= period_bound.

    Strategies are built level by level, one level per preperiod length,
    and only in normal form: a primitive period and a preperiod that is
    empty or ends in a letter other than the period's last; every other
    pair normalizes to a shorter one.  Level 0 holds the primitive periods
    whose start-vertex set, from ``start_vertices``, is nonempty.  Level
    k + 1 prepends one letter to the preperiods of level k, pulling each
    start set back by that letter, and keeps the strategies whose set stays
    nonempty, so no strategy outside the subshift is extended.  Each level
    is visited by (|period|, preperiod, period).  A slice depends only on
    its start-vertex set, so the union is built once per set, for its first
    strategy, and deduplicated against the slices found so far by set
    equality (distinct start-vertex sets may still give equal slices).  Also
    emits K_Lambda as the union of all vertex clouds and the decomposition
    sets A_j.  ``pres`` must equal the family's presentation.
    """
    if pres != family.presentation:
        raise ValueError("the family was computed over another presentation")
    if period_bound < 1:
        raise ValueError("period_bound must be at least 1")
    n = pres.n_symbols
    if n ** period_bound > _WORD_CAP:  # the longest words the loop enumerates
        raise ValueError(f"{n}**{period_bound} words exceeds cap {_WORD_CAP}")
    k_lambda = family.union()
    slices = []
    reps = {}
    slice_of = {}  # start-vertex set -> index of its slice
    # (|period|, preperiod, period, nonempty start set) of the strategies of one preperiod length
    level = [(per_len, (), per, starts) for per_len in range(1, period_bound + 1)
             for per in product(range(n), repeat=per_len)
             if all(per != per[:d] * (per_len // d) for d in range(1, per_len) if per_len % d == 0)
             and (starts := start_vertices(pres, UPString((), per)))]
    for pre_len in range(period_bound):
        if pre_len:
            level = sorted((per_len, (a, *pre), per, pulled) for per_len, pre, per, starts in level
                           if per_len + pre_len <= period_bound
                           for a in range(n) if pre or a != per[-1]
                           if (pulled := _walk(pres._back, starts, (a,))))
        for _, pre, per, starts in level:
            if starts not in slice_of:
                cloud = PointCloud.union([family.clouds[v] for v in sorted(starts)])
                i = next((i for i, s in enumerate(slices) if s == cloud), len(slices))
                if i == len(slices):
                    slices.append(k_lambda if cloud.n == k_lambda.n else cloud)  # a slice lies in K_Lambda
                slice_of[starts] = i
            reps[f"{''.join(map(str, pre))}({''.join(map(str, per))})"] = slice_of[starts]
    return SliceReport(
        slices=tuple(slices),
        representatives=reps,
        k_lambda=k_lambda,
        a_sets=_decomposition_sets(model, k_lambda),
    )


def verify_decomposition(report: SliceReport, model: ModelSpec):
    """Check K_Lambda = A_0 u ... u A_{N-1} = S_0(A_0) u ... u S_{N-1}(A_{N-1}).

    Returns (ok, residuals): the first union must match within 2*delta, the
    mapped union within 4*delta (exactly, when delta = 0).
    """
    delta = report.k_lambda.delta
    nonempty = [a for a in report.a_sets if a.n]
    if not nonempty:
        return False, {"union": float("inf"), "mapped": float("inf")}
    union = PointCloud.union(nonempty)
    mapped_parts = []
    for fn, a in zip(model.maps, report.a_sets):
        if a.n:
            mapped_parts.append(PointCloud(np.asarray(fn(a.points), dtype=float), delta))
    mapped = PointCloud.union(mapped_parts)
    r_union = hausdorff(report.k_lambda, union, model)
    r_mapped = hausdorff(report.k_lambda, mapped, model)
    ok = r_union <= 2.0 * delta and r_mapped <= 4.0 * delta
    return ok, {"union": r_union, "mapped": r_mapped}

