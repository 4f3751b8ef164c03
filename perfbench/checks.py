"""Checks of every operation's output against the grid oracles and properties.

A checker is built once per run from the workload's inputs; calling it
with an operation's label and kept result returns the list of problems
found (empty when the output is correct).  Oracles are computed on first
use, outside the timed part of the run.
"""

from __future__ import annotations

import io
from functools import cached_property

import numpy as np

import oracles
from choicedyn import models
from choicedyn.symbolic import parse_strategy
from choicedyn.verify import product_graph_slice_oracle


def _same_nodes(grid, points, expected, what: str) -> list:
    """The cloud's points, in the engine's canonical order, are exactly `expected`."""
    try:
        ids = grid.ids(points)
    except oracles.OffGrid as exc:
        return [f"{what}: {exc}"]
    if len(ids) and (np.diff(ids) <= 0).any():
        return [f"{what}: points are not distinct and in lexicographic order"]
    if not np.array_equal(ids, expected):
        missing = len(np.setdiff1d(expected, ids))
        extra = len(np.setdiff1d(ids, expected))
        return [f"{what}: {len(ids)} points, oracle {len(expected)} ({missing} missing, {extra} extra)"]
    return []


class KFineCheck:
    """k.csv is the oracle's K; k.svg draws it; F(K) is within 4 delta of K (C4).

    Chaos games (C10): the snapped cloud and the mean equal those of an orbit
    recomputed point by point; the cantor mean is in [0.49, 0.51] and its
    points lie within delta of the middle-thirds set; malaria points lie
    within 2 delta of the oracle's K.
    """

    def __init__(self, wl):
        self.wl = wl

    @cached_property
    def grid(self):
        return oracles.Grid(self.wl.models["malaria"], self.wl.delta)

    @cached_property
    def tables(self):
        return [self.grid.table(fn) for fn in self.wl.models["malaria"].maps]

    @cached_property
    def k_ids(self):
        return oracles.k_limit(self.tables)

    def __call__(self, label, result) -> list:
        if label.startswith("chaos"):
            return self._chaos(label, result)
        code, stdout, csv_text, svg_text = result
        if code != 0:
            return [f"{label}: exit code {code}"]
        head, _, body = csv_text.partition("\n")
        if head != "x0,x1":
            return [f"{label}: k.csv header {head!r}"]
        pts = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        problems = _same_nodes(self.grid, pts, self.k_ids, f"{label} k.csv")
        if problems:
            return problems
        circles = svg_text.count("<circle ")
        if circles != len(pts) or not svg_text.rstrip().endswith("</svg>"):
            problems.append(f"{label}: k.svg has {circles} markers for {len(pts)} points")
        if f"K: {len(pts)} points" not in stdout:
            problems.append(f"{label}: CLI reported {stdout.strip()!r}")
        image = self.grid.coords[np.unique(np.concatenate([t[self.k_ids] for t in self.tables]))]
        gap = oracles.hausdorff(image, self.grid.coords[self.k_ids])
        if gap > 4 * self.wl.delta:
            problems.append(f"{label}: hausdorff(F(K), K) = {gap:.3e} > 4 delta")
        return problems

    def _chaos(self, label, result) -> list:
        cloud, mean = result
        kw = self.wl.chaos[label]
        delta = kw["delta"]
        model = self.wl.models[label.split()[1]]
        tail = oracles.chaos_orbit(model, kw["probs"], kw["x0"], kw["steps"], kw["rng_seed"])[kw["burnin"]:]
        grid = oracles.Grid(model, delta)
        problems = _same_nodes(grid, cloud.points, np.unique(grid.ids(tail)), label)
        if abs(mean - float(np.mean(tail[:, 0]))) > 1e-12:
            problems.append(f"{label}: mean {mean!r}, recomputed {float(np.mean(tail[:, 0]))!r}")
        if label == "chaos cantor":
            if not 0.49 <= mean <= 0.51:
                problems.append(f"{label}: mean {mean:.5f} outside [0.49, 0.51]")
            far = float(oracles.cantor_distance(cloud.points[:, 0]).max())
            if far > delta:
                problems.append(f"{label}: a point lies {far:.3e} from the Cantor set (> delta)")
            return problems
        far = oracles.directed(cloud.points, self.grid.coords[self.k_ids])
        if far > 2 * delta * (1 + 1e-9):
            problems.append(f"{label}: a point lies {far:.3e} from K (> 2 delta)")
        return problems


class SlicesCheck:
    """Vertex clouds equal the product-graph oracle; slices and K_Lambda follow.

    Each representative strategy's slice must be the union of the oracle's
    vertex sets over its start vertices; the number of distinct slices must
    match; the decomposition sets A_j and the two residuals of
    verify_decomposition are recomputed with the benchmark's own distances.
    Each A_w must equal the composed-table oracle and lie inside the grid K
    (C9).
    """

    def __init__(self, wl):
        self.wl = wl
        self._cases = {}

    @cached_property
    def malaria(self):
        model = self.wl.models["malaria"]
        grid = oracles.Grid(model, self.wl.delta)
        tables = [grid.table(fn) for fn in model.maps]
        return grid, tables, oracles.k_limit(tables)

    def _a_w(self, label, result) -> list:
        w = parse_strategy(label.partition(" A_")[2])
        grid, tables, k_ids = self.malaria
        expected, repeats = oracles.a_w_limit(tables, w.preperiod, w.period)
        if not repeats:
            return [f"{label}: the oracle's phases do not repeat along the period"]
        if not result.converged:
            return [f"{label}: no tail cycle found"]
        problems = _same_nodes(grid, result.cloud.points, expected, label)
        if not problems and not np.isin(expected, k_ids).all():
            problems.append(f"{label}: A_w is not inside K")
        return problems

    def _case(self, model_name, subshift, delta):
        key = (model_name, subshift)
        if key not in self._cases:
            model = self.wl.models[model_name]
            pres = self.wl.presentations[subshift]
            grid = oracles.Grid(model, delta)
            tables = [grid.table(fn) for fn in model.maps]
            edges = sorted(pres.edges)
            sets = oracles.vertex_limit_sets(tables, pres.vertices, edges)
            self._cases[key] = (model, pres, grid, tables, edges, sets)
        return self._cases[key]

    def __call__(self, label, result) -> list:
        if " A_" in label:
            return self._a_w(label, result)
        model_name, _, subshift = label.partition(" over ")
        delta = next(d for m, s, d in self.wl.cases if (m, s) == (model_name, subshift))
        model, pres, grid, tables, edges, sets = self._case(model_name, subshift, delta)
        family, report, ok, residuals = result
        problems = []
        if not family.all_converged:
            problems.append(f"{label}: vertex family did not converge")
        for v in pres.vertices:
            problems += _same_nodes(grid, family.clouds[v].points, sets[v], f"{label} C_{v}")
        if problems:
            return problems
        distinct = set()
        for key, i in sorted(report.representatives.items()):
            u = parse_strategy(key)
            starts = oracles.start_vertices(edges, pres.vertices, u.preperiod, u.period)
            fibre = np.unique(np.concatenate([sets[v] for v in sorted(starts)]))
            distinct.add(fibre.tobytes())
            problems += _same_nodes(grid, report.slices[i].points, fibre, f"{label} slice of {key}")
        if len(report.slices) != len(distinct):
            problems.append(f"{label}: {len(report.slices)} distinct slices, oracle {len(distinct)}")
        if model_name == "three_point":
            problems += self._three_point_slices(pres, report)
        return problems + self._decomposition(label, model, grid, tables, sets, report, ok, residuals, delta)

    @staticmethod
    def _three_point_slices(pres, report) -> list:
        tables = (models._S0_TABLE, models._S1_TABLE)
        return [
            f"three_point slice of {key} differs from product_graph_slice_oracle"
            for key, i in sorted(report.representatives.items())
            if models.label_cloud(report.slices[i])
            != product_graph_slice_oracle(pres, tables, parse_strategy(key))
        ]

    def _decomposition(self, label, model, grid, tables, sets, report, ok, residuals, delta) -> list:
        k_ids = np.unique(np.concatenate(list(sets.values())))
        problems = _same_nodes(grid, report.k_lambda.points, k_ids, f"{label} K_Lambda")
        k_pts = grid.coords[k_ids]
        a_ids = []
        for fn, table in zip(model.maps, tables):
            if delta > 0:
                dist = oracles.distances(fn(k_pts), k_pts)
                keep = dist <= delta * (1.0 + 1e-9) + 1e-12
            else:
                keep = np.isin(table[k_ids], k_ids)
            a_ids.append(k_ids[keep])
        for j, (ids, cloud) in enumerate(zip(a_ids, report.a_sets)):
            problems += _same_nodes(grid, cloud.points, ids, f"{label} A_{j}")
        union = grid.coords[np.unique(np.concatenate(a_ids))]
        mapped = grid.coords[np.unique(np.concatenate([t[ids] for t, ids in zip(tables, a_ids)]))]
        r_union = oracles.hausdorff(k_pts, union)
        r_mapped = oracles.hausdorff(k_pts, mapped)
        if not (r_union <= 2 * delta and r_mapped <= 4 * delta):
            problems.append(f"{label}: decomposition residuals {r_union:.3e}, {r_mapped:.3e} too large")
        if not ok:
            problems.append(f"{label}: verify_decomposition reported failure")
        for name, mine in (("union", r_union), ("mapped", r_mapped)):
            if abs(residuals[name] - mine) > 1e-9:
                problems.append(f"{label}: {name} residual {residuals[name]:.6e}, recomputed {mine:.6e}")
        return problems


CHECKS = {"k_fine": KFineCheck, "slices": SlicesCheck}
