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

import json
import os
from dataclasses import dataclass
from itertools import product

import numpy as np

from .setdyn import (
    ModelSpec, PointCloud, _check_maxiter, _check_symbols, _Graph, _nearest, _sweep, hausdorff,
)
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
    raises RuntimeError.  Equal vertex clouds are one object.
    """
    _check_maxiter(maxiter)
    if pres.is_empty:
        raise ValueError("presentation is empty")
    _check_symbols(model, sorted({j for _, j, _ in pres.edges}))
    g = _Graph(model, delta)
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
    """Distinct slices, strategy classification, and the K_Lambda decomposition;
    a slice or A_j equal to K_Lambda is ``k_lambda`` itself."""

    delta: float
    slices: tuple
    representatives: dict
    k_lambda: PointCloud
    a_sets: tuple


def _decomposition_sets(model: ModelSpec, k_lambda: PointCloud, delta: float):
    """A_j: the points of K_Lambda whose image under S_j lies within delta of
    K_Lambda (at delta = 0, on it), up to rounding."""
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
    """Slices of every UPString with |preperiod| + |period| <= period_bound.

    The loop visits only normal forms: a primitive period and a preperiod
    that is empty or ends in a letter other than the period's last; every
    other pair normalizes to a shorter one, visited earlier.  Each period's
    start-vertex set comes from ``start_vertices``, and a.pre's from pre's,
    pulled back one letter; strings outside the subshift are skipped.  A
    slice depends only on its start-vertex set, so the union is built once
    per set, for its first strategy, and deduplicated against the slices
    found so far by set equality (distinct start-vertex sets may still give
    equal slices).  Also emits K_Lambda as the union of all vertex clouds and
    the decomposition sets A_j.
    """
    if period_bound < 1:
        raise ValueError("period_bound must be at least 1")
    n = pres.n_symbols
    if n ** period_bound > _WORD_CAP:  # the longest words the loop enumerates
        raise ValueError(f"{n}**{period_bound} words exceeds cap {_WORD_CAP}")
    k_lambda = family.union()
    slices = []
    reps = {}
    slice_of = {}  # start-vertex set -> index of its slice
    starts_of = {}  # (preperiod, period) of the last preperiod length -> its nonempty start set
    for pre_len in range(0, period_bound):
        prev, starts_of = starts_of, {}
        for per_len in range(1, period_bound - pre_len + 1):
            pers = [(per, "".join(map(str, per))) for per in product(range(n), repeat=per_len)
                    if all(per != per[:d] * (per_len // d) for d in range(1, per_len) if per_len % d == 0)]
            for pre in product(range(n), repeat=pre_len):
                text = "".join(map(str, pre))
                for per, per_text in pers:
                    if pre and pre[-1] == per[-1]:
                        continue  # not a normal form
                    starts = (_walk(pres._back, prev.get((pre[1:], per), frozenset()), pre[:1]) if pre
                              else start_vertices(pres, UPString((), per)))
                    if not starts:
                        continue
                    starts_of[pre, per] = starts
                    if starts not in slice_of:
                        cloud = PointCloud.union([family.clouds[v] for v in sorted(starts)])
                        i = next((i for i, s in enumerate(slices) if s == cloud), len(slices))
                        if i == len(slices):
                            slices.append(k_lambda if cloud.n == k_lambda.n else cloud)  # a slice lies in K_Lambda
                        slice_of[starts] = i
                    reps[f"{text}({per_text})"] = slice_of[starts]
    a_sets = _decomposition_sets(model, k_lambda, k_lambda.delta)
    return SliceReport(
        delta=k_lambda.delta,
        slices=tuple(slices),
        representatives=reps,
        k_lambda=k_lambda,
        a_sets=a_sets,
    )


def verify_decomposition(report: SliceReport, model: ModelSpec):
    """Check K_Lambda = A_0 u ... u A_{N-1} = S_0(A_0) u ... u S_{N-1}(A_{N-1}).

    Returns (ok, residuals): the first union must match within 2*delta, the
    mapped union within 4*delta (exactly, when delta = 0).
    """
    delta = report.delta
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


def save_slice_report(report: SliceReport, out_dir: str) -> dict:
    """Write slice_k.csv, k_lambda.csv, a_j.csv, and a JSON manifest."""
    os.makedirs(out_dir, exist_ok=True)
    slice_files = [f"slice_{i}.csv" for i in range(len(report.slices))]
    a_files = [f"a_{j}.csv" for j in range(len(report.a_sets))]
    clouds = (*report.slices, report.k_lambda, *report.a_sets)
    for name, cloud in zip((*slice_files, "k_lambda.csv", *a_files), clouds):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(cloud.to_csv())
    manifest = {
        "delta": report.delta,
        "distinct_slices": len(report.slices),
        "slices": slice_files,
        "k_lambda": "k_lambda.csv",
        "a_sets": a_files,
        "representatives": dict(sorted(report.representatives.items())),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
