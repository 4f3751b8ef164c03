"""Set-dynamics engine: snapped point clouds and attractor iteration.

Bounded subsets of the state space are represented as finite clouds of
points snapped to a delta-grid (delta = 0 keeps exact coordinates, for
finite discrete models).  Snapping rounds each coordinate to the nearest
grid node with ties toward -inf; clouds are kept deduplicated in canonical
lexicographic order, so equal sets compare equal and iteration over a
bounded region terminates in exact set cycles.

The engine provides the Hutchinson-Barnsley step F(A) = S_0(A) u ... u
S_{N-1}(A), the global attractor K, per-strategy (individual) attractors,
also from a caller seed, and the chaos game.  Snapping works point by
point, so on the grid each map is a fixed table node -> node: K, A_w and
the vertex families of ``restricted`` are orbits of boolean masks over one
lazily built transition graph (the set-oriented approach of GAIO), run by
one loop to their first recurrence.  K is the vertex family of the full
shift, the one vertex with a loop for each map, so both run one sweep.
"""

from __future__ import annotations

import math
from _blake2 import blake2b  # hashlib.blake2b itself, without loading OpenSSL's _hashlib
from dataclasses import dataclass

import numpy as np

from .symbolic import UPString


class AssumptionViolation(RuntimeError):
    """A trajectory left the bounding region by more than 10*delta.

    The engine monitors every map application; a violation means the model
    has no joint absorbing set along the strategy being iterated (the
    dissipativity assumption fails empirically), as on the real-line
    counterexample under the alternating strategy.
    """

    def __init__(self, model_name: str, step: int, value, excess: float):
        self.model_name = model_name
        self.step = step
        self.value = value
        self.excess = excess
        super().__init__(
            f"model {model_name!r}: point {value} escaped the bounding region "
            f"by {excess:.3g} at step {step}"
        )


def _as_point_array(points, dim=None) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1) if dim in (None, 1) else arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError("points must form an (n, dim) array")
    return arr


def _grid_delta(delta) -> float:
    """delta as a float, which must be finite and non-negative."""
    delta = float(delta)
    if delta < 0 or not math.isfinite(delta):
        raise ValueError("delta must be a finite non-negative number")
    return delta


def _snap(arr: np.ndarray, delta: float) -> np.ndarray:
    """Grid keys of the rows: nearest node index with ties toward -inf, or
    the exact rows when delta = 0."""
    if not np.isfinite(arr).all():
        raise ValueError("points must be finite")
    if delta == 0:
        return arr + 0.0
    idx = arr / delta
    idx -= 0.5
    np.ceil(idx, out=idx)
    if max(-idx.min(initial=0.0), idx.max(initial=0.0)) >= 2.0**63:
        raise ValueError(
            f"delta={delta!r} is too fine for coordinates of magnitude "
            f"{float(np.max(np.abs(arr))):.3g}: grid indices overflow int64"
        )
    return idx.astype(np.int64)


def _codes(cols, keys: np.ndarray) -> np.ndarray:
    """Each key row packed into one int64 by its ranks in the sorted
    per-column value arrays ``cols``; codes order rows lexicographically."""
    if math.prod(len(vals) for vals in cols) >= 2**63:
        raise ValueError("too many distinct coordinates to pack rows into int64 codes")
    code = np.zeros(len(keys), np.int64)
    for c, vals in enumerate(cols):
        code = code * len(vals) + np.searchsorted(vals, keys[:, c])
    return code


def _decode(cols, codes: np.ndarray) -> np.ndarray:
    """The key rows that ``_codes`` packed over cols into codes."""
    out = np.empty((len(codes), len(cols)), cols[0].dtype)
    for c in reversed(range(len(cols))):
        codes, rank = np.divmod(codes, len(cols[c]))
        out[:, c] = cols[c][rank]
    return out


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, ascending, by a sort and a neighbour mask."""
    a = np.sort(a)
    keep = np.ones(len(a), bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _sorted_isin(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean mask: which values of a occur in b, an ascending array, by a binary search."""
    i = np.searchsorted(b, a)
    found = i < len(b)
    found[found] = b[i[found]] == a[found]
    return found


def _unique_rows(arr: np.ndarray) -> np.ndarray:
    """Deduplicated rows in lexicographic order (row-major)."""
    cols = [_sorted_unique(col) for col in arr.T]
    if len(cols) == 1:
        return cols[0][:, None]
    return _decode(cols, _sorted_unique(_codes(cols, arr)))


def _rows_isin(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean mask: which rows of a occur among the rows of b, which must
    be distinct and in lexicographic order, as a cloud's are."""
    cols = [_sorted_unique(np.concatenate((x, y))) for x, y in zip(a.T, b.T)]
    return _sorted_isin(_codes(cols, a), _codes(cols, b))


def _compact(keys: np.ndarray) -> np.ndarray:
    """Integer grid keys in the first of int8, int16, int32 and int64 that holds them."""
    if keys.dtype.kind != "i":
        return keys
    lo, hi = keys.min(initial=0), keys.max(initial=0)
    fits = (t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max)
    return keys.astype(next(fits, np.int64), copy=False)


def _check_grid(clouds) -> None:
    """Raise ValueError unless the clouds share one delta and dimension, the
    one grid on which equal keys are equal points."""
    if any(c.delta != clouds[0].delta or c.dim != clouds[0].dim for c in clouds):
        raise ValueError("clouds disagree on delta or dimension")


class PointCloud:
    """A finite set of points at resolution delta, in canonical order.

    Construction snaps, deduplicates, and sorts; two clouds with the same
    delta compare equal iff they are the same set.  ``delta == 0`` keeps
    coordinates exact (discrete models).  A cloud holds the grid keys of
    its points, int8, int16 or int32 where they fit, and ``points`` are the float64
    products key * delta.
    """

    __slots__ = ("delta", "_rows")

    def __init__(self, points, delta: float = 0.0):
        delta = _grid_delta(delta)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "_rows", _compact(_unique_rows(_snap(_as_point_array(points), delta))))

    @classmethod
    def _canonical(cls, keys: np.ndarray, delta: float) -> "PointCloud":
        """A cloud of grid keys that are already distinct and sorted."""
        cloud = object.__new__(cls)
        object.__setattr__(cloud, "delta", float(delta))
        object.__setattr__(cloud, "_rows", _compact(keys))
        return cloud

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("PointCloud is immutable")

    @property
    def points(self) -> np.ndarray:
        # dtype float64: numpy 1.x promotes int8 or int16 keys times a Python float to float32
        return np.multiply(self._rows, self.delta, dtype=np.float64) if self.delta > 0 else self._rows

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def dim(self) -> int:
        return self._rows.shape[1]

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return (
            self.delta == other.delta
            and self._rows.shape == other._rows.shape
            and bool(np.array_equal(self._rows, other._rows))
        )

    def __repr__(self) -> str:
        return f"PointCloud(n={self.n}, dim={self.dim}, delta={self.delta!r})"

    def _keys_in(self, other: "PointCloud") -> np.ndarray:
        """Which of this cloud's keys are keys of other, a cloud on the same grid."""
        _check_grid([self, other])
        return _rows_isin(self._rows, other._rows)

    def subset_of(self, other: "PointCloud") -> bool:
        return bool(self._keys_in(other).all())

    def difference(self, other: "PointCloud") -> "PointCloud":
        return PointCloud._canonical(self._rows[~self._keys_in(other)], self.delta)

    def intersection(self, other: "PointCloud") -> "PointCloud":
        return PointCloud._canonical(self._rows[self._keys_in(other)], self.delta)

    def contains_points(self, pts) -> np.ndarray:
        """Per-row membership of the snapped probe points in this cloud."""
        return _rows_isin(_snap(_as_point_array(pts, self.dim), self.delta), self._rows)

    @staticmethod
    def union(clouds) -> "PointCloud":
        clouds = list(clouds)
        if not clouds:
            raise ValueError("union of no clouds")
        _check_grid(clouds)
        out = PointCloud._canonical(_unique_rows(np.concatenate([c._rows for c in clouds])), clouds[0].delta)
        # every input is a subset of the union, so an input of its size is the union
        return next((c for c in clouds if c.n == out.n), out)

    def to_csv(self) -> str:
        header = ",".join(f"x{i}" for i in range(self.dim))
        lines = [header]
        for row in self.points:
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text: str, delta: float = 0.0) -> "PointCloud":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("x0"):
            raise ValueError("expected a header row like x0,x1")
        dim = len(lines[0].split(","))
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        arr = np.array(rows, dtype=float).reshape(-1, dim)
        return PointCloud(arr, delta)


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A state space with N continuous maps and a bounding region.

    ``maps`` act on (n, dim) arrays; ``scalar_maps`` act on point tuples
    (used by the chaos-game loop).  ``seeder(delta)`` produces the raw seed
    points that stand in for the bounding region; ``seed_absorbing`` asserts
    that the seed cloud contains every snapped image of itself, which makes
    attractor iteration monotonically decreasing.  ``dsigma_bits`` > 0 reads
    points as binary codes of that many letters and measures distances in
    the code-space metric ``symbolic.d_sigma``; 0 keeps the Euclidean one.
    """

    name: str
    dim: int
    maps: tuple
    scalar_maps: tuple
    lower: tuple
    upper: tuple
    seeder: object
    discrete: bool = False
    seed_absorbing: bool = False
    dsigma_bits: int = 0

    @property
    def n_maps(self) -> int:
        return len(self.maps)

    def diameter(self) -> float:
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        return float(np.linalg.norm(hi - lo))

    def escape_check(self, pts: np.ndarray, delta: float, step: int = 0) -> None:
        slack = 10.0 * delta
        lo = np.asarray(self.lower, dtype=float) - slack
        hi = np.asarray(self.upper, dtype=float) + slack
        bad = np.any(pts < lo, axis=1) | np.any(pts > hi, axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            value = tuple(float(v) for v in pts[i])
            excess = float(
                max(np.max(np.asarray(value) - hi, initial=0.0), np.max(lo - np.asarray(value), initial=0.0))
            )
            raise AssumptionViolation(self.name, step, value, excess)


@dataclass(frozen=True)
class AttractorReport:
    """A computed cloud plus convergence diagnostics; ``stop`` names the rule
    that ended the run: "cycle" or "maxiter"."""

    cloud: PointCloud
    iterations: int
    residual: float
    stop: str

    @property
    def converged(self) -> bool:
        return self.stop != "maxiter"


_CHUNK = 1 << 16


def _check_node_count(n: int) -> None:
    if n > 2**31 - 1:
        raise ValueError(f"{n} grid nodes do not fit the int32 successor tables")


class _Graph:
    """The finite transition graph of a model's maps on the delta-grid.

    Nodes are grid keys (the snapped integer index for delta > 0, the exact
    row for delta = 0), held only as ``code``, each key packed by ``_codes``
    over the per-column values ``cols``: first the seed's, in lexicographic
    order, then keys that first appear as images; ``order`` lists all
    lexicographically.  ``succ[j][x]`` (int32) is the node of snap(S_j(x)),
    computed the first time x is live under map j (-1 before).  Sets are
    boolean masks over node ids; a mask made before later nodes appeared is
    read as False on them.
    """

    def __init__(self, model: ModelSpec, delta: float, seed=None):
        """Nodes for the seed points, by default the model's seeder at delta;
        the one place where the delta and seed of a grid run are checked."""
        delta = _grid_delta(delta)
        if model.discrete and delta != 0:
            raise ValueError(f"model {model.name!r} is discrete; use delta = 0")
        self.model = model
        self.delta = delta
        self.absorbing = model.seed_absorbing and seed is None  # the model's own seed, flagged absorbing
        # seeded here so that the float seed is freed before its keys are packed
        keys = _snap(_as_point_array(model.seeder(delta) if seed is None else seed, model.dim), delta)
        if len(keys) == 0 or keys.shape[1] != model.dim:
            raise ValueError(f"model {model.name!r} needs a nonempty seed of dimension {model.dim}, got {keys.shape}")
        # np.unique stays here until the benchmark keeps no per-round outputs (ROADMAP "Do first")
        self.cols = [np.unique(col) for col in keys.T]  # distinct values per column
        self.code = np.unique(_codes(self.cols, keys))
        _check_node_count(len(self.code))
        self.order = np.arange(len(self.code))
        self.succ = [np.full(len(self.code), -1, np.int32) for _ in model.maps]

    @property
    def n(self) -> int:
        return len(self.code)

    def nodes(self, points) -> np.ndarray:
        """Node ids of the snapped points; unseen keys become new nodes."""
        keys = _snap(_as_point_array(points, self.model.dim), self.delta)
        code = np.zeros(len(keys), np.int64)
        known = np.ones(len(keys), bool)
        for col, vals in zip(keys.T, self.cols):
            rank = np.minimum(np.searchsorted(vals, col), len(vals) - 1)
            known &= vals[rank] == col
            code = code * len(vals) + rank
        ids = self.order[np.minimum(np.searchsorted(self.code, code, sorter=self.order), self.n - 1)]
        miss = ~known | (self.code[ids] != code)
        if miss.any():
            keys = keys[miss]
            if not all(_sorted_isin(col, vals).all() for col, vals in zip(keys.T, self.cols)):
                old = _decode(self.cols, self.code)
                self.cols = [_sorted_unique(np.concatenate((vals, col))) for col, vals in zip(keys.T, self.cols)]
                self._reorder(_codes(self.cols, old))
            code = _codes(self.cols, keys)
            fresh = _sorted_unique(code)
            _check_node_count(self.n + len(fresh))
            ids[miss] = self.n + np.searchsorted(fresh, code)
            self.succ = [np.concatenate((t, np.full(len(fresh), -1, np.int32))) for t in self.succ]
            self._reorder(np.concatenate((self.code, fresh)))
        return ids

    def _reorder(self, code: np.ndarray) -> None:
        self.code = code
        self.order = np.argsort(code, kind="stable")

    def fit(self, mask: np.ndarray) -> np.ndarray:
        """The mask padded with False to the current node count."""
        return np.concatenate((mask, np.zeros(self.n - len(mask), bool)))

    def image(self, pairs, step: int = 0) -> np.ndarray:
        """Mask of the union of snap(S_j(A)) over a list of (mask of A, j) pairs.

        Successors missing for live nodes are computed with vectorised
        calls in lexicographic node order, and escape-checked, in chunks of
        ``_CHUNK`` nodes so that a large first step needs little memory.
        """
        for mask, j in pairs:
            need = mask & (self.succ[j][: len(mask)] < 0)
            if not need.any():
                continue
            need = self.fit(need)
            need = self.order[need[self.order]]
            for lo in range(0, len(need), _CHUNK):
                part = need[lo : lo + _CHUNK]
                img = np.asarray(self.model.maps[j](self.points(part)), dtype=float)
                self.model.escape_check(img, self.delta, step=step)
                ids = self.nodes(img)
                self.succ[j][part] = ids
        out = np.zeros(self.n, bool)
        for mask, j in pairs:
            out[self.succ[j][: len(mask)][mask]] = True
        return out

    def points(self, ids: np.ndarray) -> np.ndarray:
        keys = _decode(self.cols, self.code[ids])
        return keys * self.delta if self.delta > 0 else keys

    def cloud(self, *masks: np.ndarray) -> PointCloud:
        """The cloud of the union of the masks."""
        mask = np.logical_or.reduce([self.fit(m) for m in masks])
        return PointCloud._canonical(_decode(self.cols, self.code[self.order[mask[self.order]]]), self.delta)

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Hausdorff distance of two masks: 0 when equal, inf when just one is empty."""
        a, b = self.fit(a), self.fit(b)
        if np.array_equal(a, b):
            return 0.0
        if not a.any() or not b.any():
            return math.inf
        return hausdorff(self.cloud(a), self.cloud(b), self.model)


def _recurrence(g: _Graph, step, start: tuple, p: int = 1, pre: int = 0, maxiter: int = 1000):
    """Orbit s_k = step(k, s_{k-1}) of a tuple of masks over g: (states, k, residual, stop).

    Past ``pre``, s_k is keyed by its phase (k - pre) mod p and digests of its
    masks without the zero bytes that pad older, shorter masks.  The first key
    seen before, at i, ends the run with the cycle s_i ... s_{k-1}, replayed
    from s_k on the filled successor tables (stop "cycle"); ``maxiter`` ends
    it unconverged at the last p + 1 states ("maxiter").
    """
    tail, seen = [start], {}
    for k in range(maxiter + 1):
        if k:
            tail = tail[-p:] + [step(k, tail[-1])]
        key = ((k - pre) % p, *(blake2b(np.packbits(m).tobytes().rstrip(b"\0")).digest() for m in tail[-1]))
        if k >= pre and (i := seen.setdefault(key, k)) < k:
            for j in range(k + 1, 2 * k - i):
                tail.append(step(j, tail[-1]))
            return tail[i - k :], k, 0.0, "cycle"
    residual = max(map(g.distance, tail[0], tail[-1])) if len(tail) > p else math.inf
    return tail, maxiter, residual, "maxiter"


def _check_maxiter(maxiter: int) -> None:
    """Raise ValueError for a negative maxiter, before any graph is built."""
    if maxiter < 0:
        raise ValueError(f"maxiter must be non-negative, got {maxiter}")


def _sweep(g: _Graph, incoming, maxiter: int):
    """Jacobi sweeps C'_v = union of snap(S_j(C_u)) over the (u, j) in
    incoming[v], every C_v starting at all nodes of g: (masks, k, residual, stop).

    masks[v] holds vertex v's masks over the orbit's cycle, or its last mask;
    the rest is ``_recurrence``'s.  From the model's seed flagged absorbing the
    masks only shrink, so the orbit ends at a fixed point or at ``maxiter``,
    and a sweep that adds a node raises RuntimeError.
    """

    def sweep(k, masks):
        new = tuple(g.image([(masks[u], j) for u, j in edges], step=k) for edges in incoming)
        if g.absorbing and any((g.fit(b) & ~g.fit(a)).any() for a, b in zip(masks, new)):
            raise RuntimeError(f"model {g.model.name!r}: seed_absorbing seed is not absorbing")
        return new

    states, k, residual, stop = _recurrence(g, sweep, (np.ones(g.n, bool),) * len(incoming), maxiter=maxiter)
    return list(zip(*(states if stop == "cycle" else states[-1:]))), k, residual, stop


def hutchinson_step(model: ModelSpec, cloud: PointCloud) -> PointCloud:
    """One application of F(A) = S_0(A) u ... u S_{N-1}(A), snapped."""
    if cloud.n == 0:
        raise ValueError("hutchinson_step needs a nonempty cloud")
    images = [np.asarray(fn(cloud.points), dtype=float) for fn in model.maps]
    raw = np.concatenate(images)
    model.escape_check(raw, cloud.delta)
    return PointCloud(raw, cloud.delta)


def _check_symbols(model: ModelSpec, symbols) -> None:
    """Raise ValueError naming the first symbol the model has no map for."""
    for sym in symbols:
        if not 0 <= sym < model.n_maps:
            raise ValueError(f"symbol {sym} outside the model's {model.n_maps} maps")


def _nearest(points: np.ndarray, cloud: PointCloud) -> np.ndarray:
    """Euclidean distance from each row of points to its nearest point of a
    1-D or 2-D cloud (1-D input is padded with a zero column), at any delta.

    The cloud's rows, in lexicographic order, form columns sorted by the
    second coordinate.  Each point walks the columns outward from its own
    first coordinate, on both sides, bisecting each column for its two
    nearest rows by a packed (column, rank of y) code, until the squared
    column gap is no smaller than the best squared distance found.  The
    squares are summed in coordinate order and the root is taken last, as a
    search tree does, so the result is the same float.
    """
    if cloud.dim > 2:
        raise ValueError(f"a cloud of dimension {cloud.dim}: distances need dimension 1 or 2")
    b = cloud.points
    if cloud.dim == 1:
        b, points = (np.column_stack((p[:, 0], np.zeros(len(p)))) for p in (b, points))
    cx, cy = _sorted_unique(b[:, 0]), _sorted_unique(b[:, 1])
    code = np.searchsorted(cx, b[:, 0]) * len(cy) + np.searchsorted(cy, b[:, 1])
    start = np.searchsorted(code, np.arange(len(cx) + 1) * len(cy))  # column c is rows start[c]:start[c + 1]
    home, ry = np.searchsorted(cx, points[:, 0]), np.searchsorted(cy, points[:, 1])
    # a column at +inf, which c = -1 reads too, ends every walk; by gets a spare row for i = len(b)
    cx, by = np.append(cx, np.inf), np.append(b[:, 1], 0.0)
    best = np.full(len(points), np.inf)
    for side in (1, -1):
        idx, c = np.arange(len(points)), home if side > 0 else home - 1
        while len(idx):
            gap = (points[idx, 0] - cx[c]) ** 2
            go = gap < best[idx]
            idx, c, gap, y = idx[go], c[go], gap[go], points[idx[go], 1]
            i = np.searchsorted(code, c * len(cy) + ry[idx])  # the first row of column c at or above y
            dy2 = np.minimum(np.where(i < start[c + 1], (y - by[i]) ** 2, np.inf),
                             np.where(i > start[c], (y - by[i - 1]) ** 2, np.inf))
            best[idx] = np.minimum(best[idx], gap + dy2)
            c = c + side
    return np.sqrt(best)


def _directed_dsigma(a: np.ndarray, b: np.ndarray, bits: int) -> float:
    """Code-space distance: the max over codes x of a of the min over codes y
    of b of 2**(bit length of x ^ y - 1 - bits), 0 where x = y.  b's codes
    must be sorted, as a cloud's rows are.

    The codes of b that share a prefix with x form a run of sorted b around
    x's place, so the nearest code is one of x's two sorted neighbours.
    """
    ca, cb = a[:, 0].astype(np.int64), b[:, 0].astype(np.int64)
    i = np.searchsorted(cb, ca)
    worst = int(np.max(np.minimum(ca ^ cb[np.minimum(i, len(cb) - 1)], ca ^ cb[np.maximum(i - 1, 0)])))
    return math.ldexp(1.0, worst.bit_length() - 1 - bits) if worst else 0.0


def directed_distance(a: PointCloud, b: PointCloud, model: ModelSpec = None) -> float:
    """One-sided distance sup_{x in a} dist(x, b) of 1-D or 2-D clouds, the
    largest ``_nearest`` distance (0 for a point of a that lies in b)."""
    if a.n == 0:
        return 0.0
    if b.n == 0:
        raise ValueError("distance to an empty cloud")
    if a.dim != b.dim or a.dim > 2:
        raise ValueError(f"clouds of dimension {a.dim} and {b.dim}: distances need one dimension, 1 or 2")
    if model is not None and model.dsigma_bits:
        return _directed_dsigma(a.points, b.points, model.dsigma_bits)
    return float(np.max(_nearest(a.points, b)))


def hausdorff(a: PointCloud, b: PointCloud, model: ModelSpec = None) -> float:
    """Hausdorff distance: the max of the two one-sided sup-inf distances
    (0 for equal clouds)."""
    if a.n == 0 or b.n == 0:
        raise ValueError("hausdorff distance needs nonempty clouds")
    if a == b:
        return 0.0
    return max(directed_distance(a, b, model), directed_distance(b, a, model))


def compute_K(
    model: ModelSpec,
    delta: float,
    maxiter: int = 1000,
    seed: PointCloud = None,
) -> AttractorReport:
    """Iterate the Hutchinson-Barnsley step from the seeded bounding cloud.

    Stops at the orbit's first recurrence with the union of its cycle, or at
    ``maxiter`` with the last cloud.  From the absorbing seed the clouds only
    shrink, so the recurrence is a fixed point: the grid nodes reachable from
    a cycle of the maps' node tables.  K is the vertex family over the full
    shift, whose one vertex has a loop for each map:

    >>> from choicedyn import models, restricted, sofic
    >>> m = models.three_point_model()
    >>> k = compute_K(m, 0.0)
    >>> k.cloud == restricted.vertex_limits(m, sofic.builtin("full_shift", 2), 0.0).union()
    True
    >>> sorted(models.label_cloud(k.cloud)), k.iterations, k.stop
    (['A', 'B', 'C'], 1, 'cycle')
    """
    _check_maxiter(maxiter)
    g = _Graph(model, delta, None if seed is None else seed.points)
    masks, k, residual, stop = _sweep(g, [[(0, j) for j in range(model.n_maps)]], maxiter)
    return AttractorReport(g.cloud(*masks[0]), k, residual, stop)


def individual_attractor(
    model: ModelSpec,
    w: UPString,
    delta: float,
    maxiter: int = None,
    seed: PointCloud = None,
) -> AttractorReport:
    """The per-strategy attractor A_w: the union over the orbit's cycle.

    Iterates T_k = snap(S_{w(k-1)}(T_{k-1})) from the seeded bounding cloud
    and stops at the first k past the preperiod with T_k == T_i, i < k at the
    same position in the period: A_w is the union of T_i, ..., T_{k-1}.
    Without a recurrence within ``maxiter`` steps (default 10 * diameter /
    delta, or the seed size at delta = 0, plus |preperiod| + 4p, p the
    period length) it is the union of the last p + 1 sets, unconverged.
    """
    if maxiter is not None:
        _check_maxiter(maxiter)
    _check_symbols(model, w.preperiod + w.period)
    g = _Graph(model, delta, None if seed is None else seed.points)
    p, pre = len(w.period), len(w.preperiod)
    if maxiter is None:
        maxiter = (math.ceil(10.0 * model.diameter() / g.delta) if g.delta > 0 else g.n) + pre + 4 * p
    states, k, residual, stop = _recurrence(
        g, lambda k, s: (g.image([(s[0], w.letter_at(k - 1))], step=k),), (np.ones(g.n, bool),), p, pre, maxiter
    )
    return AttractorReport(g.cloud(*[s[0] for s in states]), k, residual, stop)


def chaos_game(
    model: ModelSpec,
    probs,
    x0,
    steps: int,
    burnin: int,
    rng_seed: int,
    delta: float,
):
    """Random iteration: pick S_j with probability probs[j] each step.

    Returns ``(cloud, mean)`` where the cloud collects the post-burn-in
    points snapped at delta and mean is the empirical average of the
    observable, the first coordinate, over the post-burn-in orbit.
    Identical rng_seed gives bit-identical results.
    """
    probs = np.asarray(probs, dtype=float)
    if len(probs) != model.n_maps:
        raise ValueError(f"need {model.n_maps} probabilities, got {len(probs)}")
    if (probs < 0).any() or not probs.any():
        raise ValueError("probabilities must be non-negative and not all zero")
    if abs(float(probs.sum()) - 1.0) > 1e-12:
        raise ValueError("probabilities must sum to 1 within 1e-12")
    if burnin < 0:
        raise ValueError("burnin must be non-negative")
    if steps <= burnin:
        raise ValueError("steps must exceed burnin")
    start = [float(v) for v in np.atleast_1d(x0)]
    if len(start) != model.dim:
        raise ValueError(f"x0 needs {model.dim} coordinates, got {len(start)}")
    rng = np.random.default_rng(rng_seed)
    symbols = rng.choice(model.n_maps, size=steps, p=probs)
    fns = model.scalar_maps
    x = start[0] if model.dim == 1 else tuple(start)
    buf = np.empty((steps, model.dim))
    out = buf[:, 0] if model.dim == 1 else buf  # scalar states write one float per row
    for i, s in enumerate(symbols.tolist()):
        x = fns[s](x)
        out[i] = x
    model.escape_check(buf, delta)
    tail = buf[burnin:]
    cloud = PointCloud(tail, delta)
    mean = float(np.mean(tail[:, 0]))
    return cloud, mean
