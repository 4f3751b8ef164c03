"""Restricted-choice dynamics over a sofic subshift.

The attractor of the restricted dynamics is analyzed through per-vertex
limit clouds: seed every vertex of the presentation with the bounding
cloud and iterate C'_v = union over edges (u -j-> v) of S_j(C_u) to a
fixed family.  C_v is then the limit set of S_w(seed) over words whose
accepting path ends at v, and the slice of a strategy u is the union of
the family over start_vertices(P, u).  Deduplicating slice clouds over all
short ultimately periodic strategies enumerates the finitely many distinct
slices; the union of the family is the restricted attractor projection
K_Lambda together with its decomposition sets A_j = {x : S_j(x) stays in
K_Lambda}.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .setdyn import (
    ModelSpec, PointCloud, _check_maxiter, _check_symbols, _decode, _Graph, _rows_isin, _snap, _sweep, hausdorff,
)
from .sofic import SoficPresentation, start_vertices
from .symbolic import UPString, enumerate_words


@dataclass(frozen=True, eq=False)
class VertexFamily:
    """Per-vertex limit clouds of a presentation, with diagnostics; ``stop``
    names the rule that ended the sweeps: "cycle", "tol" or "maxiter"."""

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
    family's first recurrence or, from an absorbing seed at delta > 0, a
    sweep that moves no vertex cloud by more than delta.  From an absorbing
    seed the clouds only shrink, so a cloud moves by the distance from the
    nodes the sweep removed to the new cloud, which is the Hausdorff
    distance of the two clouds; a cloud that grows there raises
    RuntimeError.  Equal vertex clouds are one object.
    """
    _check_maxiter(maxiter)
    if pres.is_empty:
        raise ValueError("presentation is empty")
    _check_symbols(model, sorted({j for _, j, _ in pres.edges}))
    g = _Graph(model, delta)
    # a vertex without live incoming edges gets the empty set: no long word ends there
    incoming = [[(pres.vertices.index(u), j) for u, j, dst in sorted(pres.edges) if dst == v] for v in pres.vertices]

    def early(prev, masks):  # from an absorbing seed: no vertex cloud moved by more than delta
        residual = max(_removed_distance(g, old, new) for old, new in zip(prev, masks))
        return residual if residual <= delta else None

    masks, k, residual, stop = _sweep(g, incoming, maxiter, early if g.absorbing and g.delta > 0 else None)
    clouds = {}
    for v, m in zip(pres.vertices, masks):
        cloud = g.cloud(*m)
        clouds[v] = next((c for c in clouds.values() if c == cloud), cloud)
    return VertexFamily(pres, clouds, residual, k, stop)


def _removed_distance(g: _Graph, old: np.ndarray, new: np.ndarray) -> float:
    """Distance from the nodes of mask old missing from mask new to new (their
    Hausdorff distance when new is a subset of old) if each of them has a
    node of new next to it, and inf otherwise, where it exceeds delta too.

    On a delta > 0 grid only a node's axis neighbours (key +-1 in one
    coordinate) lie within delta of it, each at the difference of that one
    coordinate, which is the float a search tree returns for the pair.
    """
    new = g.fit(new)
    removed = np.flatnonzero(g.fit(old) & ~new)
    keys = _decode(g.cols, g.code[removed])
    nearest = np.full(len(removed), np.inf)
    for c in range(keys.shape[1]):
        for step in (-1, 1):
            moved = keys.copy()
            moved[:, c] += step
            ids = g.lookup(moved)
            hit = ids >= 0
            hit[hit] = new[ids[hit]]
            gap = np.abs(keys[:, c] * g.delta - moved[:, c] * g.delta)
            nearest[hit] = np.minimum(nearest[hit], gap[hit])
    return float(nearest.max(initial=0.0))


@dataclass(frozen=True, eq=False)
class SliceReport:
    """Distinct slices, strategy classification, and the K_Lambda decomposition;
    a slice or A_j equal to K_Lambda is ``k_lambda`` itself."""

    delta: float
    slices: tuple
    representatives: dict
    k_lambda: PointCloud
    a_sets: tuple


def _within_delta(points: np.ndarray, cloud: PointCloud) -> np.ndarray:
    """Which points lie within cloud.delta > 0 of the cloud, up to rounding.

    Only the 3^dim grid nodes around a point's own node can: any other node
    is at least 1.5 delta away.  Each distance sums the squared coordinate
    differences in coordinate order, as a search tree does.
    """
    delta = cloud.delta
    own, keys = _snap(points, delta), cloud._rows
    found = np.zeros(len(points), bool)
    for offset in itertools.product((-1, 0, 1), repeat=cloud.dim):
        node = own + np.array(offset)
        sq = np.zeros(len(points))
        for c in range(cloud.dim):
            sq += (points[:, c] - node[:, c] * delta) ** 2
        found |= (np.sqrt(sq) <= delta * (1.0 + 1e-9) + 1e-12) & _rows_isin(node, keys)
    return found


def _decomposition_sets(model: ModelSpec, k_lambda: PointCloud, delta: float):
    sets = []
    for fn in model.maps:
        images = np.asarray(fn(k_lambda.points), dtype=float)
        mask = _within_delta(images, k_lambda) if delta > 0 else k_lambda.contains_points(images)
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

    Candidates are all normalized (preperiod, period) pairs over the
    alphabet; strings outside the subshift are skipped.  A slice depends only
    on its start-vertex set, so the union is built once per set, for its
    first strategy, and deduplicated against the slices found so far by set
    equality (distinct start-vertex sets may still give equal slices).  Also
    emits K_Lambda as the union of all vertex clouds and the decomposition
    sets A_j.
    """
    if period_bound < 1:
        raise ValueError("period_bound must be at least 1")
    n = pres.n_symbols
    k_lambda = family.union()
    slices = []
    reps = {}
    seen = set()
    slice_of = {}  # start-vertex set -> index of its slice
    for pre_len in range(0, period_bound):
        for per_len in range(1, period_bound - pre_len + 1):
            for pre in enumerate_words(n, pre_len, cap=_WORD_CAP):
                for per in enumerate_words(n, per_len, cap=_WORD_CAP):
                    u = UPString(pre.letters, per.letters)
                    key = str(u)
                    if key in seen:
                        continue
                    seen.add(key)
                    starts = start_vertices(pres, u)
                    if not starts:
                        continue
                    if starts not in slice_of:
                        cloud = PointCloud.union([family.clouds[v] for v in sorted(starts)])
                        i = next((i for i, s in enumerate(slices) if s == cloud), len(slices))
                        if i == len(slices):
                            slices.append(k_lambda if cloud.n == k_lambda.n else cloud)  # a slice lies in K_Lambda
                        slice_of[starts] = i
                    reps[key] = slice_of[starts]
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
