"""Grid oracles for the benchmark, computed apart from the set engine.

Snapping works point by point (nearest node, ties toward -inf), so on the
seed grid of a model each map is a fixed table node -> node.  Every object
the engine computes by iterating clouds is then a property of the finite
transition graph of those tables:

* K, the limit of F^n(seed), is the set of nodes reachable from a cycle of
  the graph with one edge x -> T_j(x) per map (found with SCCs);
* A_w is the eventual image of the seed under the composed period table
  T_w, carried through one period;
* the vertex limit clouds of a presentation are the nodes of the product
  graph (grid node x presentation vertex) reachable from a cycle.

These functions evaluate the model's maps and apply the snapping rule
themselves.  They never call ``PointCloud``, ``compute_K``,
``individual_attractor`` or ``vertex_limits``.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.spatial import cKDTree


class OffGrid(ValueError):
    """A point does not snap to a node of the seed grid."""


def snap(points: np.ndarray, delta: float) -> np.ndarray:
    """The documented snapping rule: nearest node index, ties toward -inf."""
    return np.ceil(np.asarray(points, dtype=float) / delta - 0.5).astype(np.int64)


class Grid:
    """The nodes of a model's seed cloud, numbered in lexicographic order.

    For delta > 0 a node is an integer index vector and its coordinates are
    index * delta; for delta = 0 the nodes are the seed points themselves.
    """

    def __init__(self, model, delta: float):
        self.delta = float(delta)
        raw = np.asarray(model.seeder(delta), dtype=float).reshape(-1, model.dim)
        if self.delta > 0:
            idx = np.unique(snap(raw, self.delta), axis=0)
            self._lo = idx.min(axis=0)
            self._span = idx.max(axis=0) - self._lo + 1
            if int(np.prod(self._span)) != len(idx):
                raise OffGrid("the seed does not fill its bounding box of nodes")
            self.coords = idx * self.delta
        else:
            self.coords = np.unique(raw + 0.0, axis=0)
            self._lookup = {tuple(row): i for i, row in enumerate(self.coords.tolist())}

    def ids(self, points) -> np.ndarray:
        """Node id of each point, by the snapping rule; raises OffGrid."""
        pts = np.asarray(points, dtype=float).reshape(-1, self.coords.shape[1])
        if self.delta > 0:
            rel = snap(pts, self.delta) - self._lo
            if ((rel < 0) | (rel >= self._span)).any():
                raise OffGrid("a point snaps outside the seed grid")
            out = rel[:, 0].copy()
            for c in range(1, rel.shape[1]):
                out = out * self._span[c] + rel[:, c]
            return out
        try:
            return np.array([self._lookup[tuple(row)] for row in (pts + 0.0).tolist()], dtype=np.int64)
        except KeyError as exc:
            raise OffGrid(f"point {exc.args[0]} is not a seed point") from None

    def table(self, fn) -> np.ndarray:
        """The map fn as a node table: T[x] = id of snap(fn(coords[x]))."""
        return self.ids(fn(self.coords))


def _reachable_from_cycles(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Sorted ids of the nodes reachable from a cycle of the graph src -> dst."""
    graph = csr_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n))
    _, labels = connected_components(graph, directed=True, connection="strong")
    on_cycle = np.bincount(labels)[labels] > 1
    on_cycle[src[src == dst]] = True
    roots = np.flatnonzero(on_cycle)
    # one virtual root feeding every cycle node: a single BFS finds them all
    hub = csr_matrix(
        (np.ones(len(src) + len(roots), dtype=np.int8),
         (np.concatenate((src, np.full(len(roots), n))), np.concatenate((dst, roots)))),
        shape=(n + 1, n + 1),
    )
    order = breadth_first_order(hub, n, directed=True, return_predecessors=False)
    return np.sort(order[order != n])


def k_limit(tables) -> np.ndarray:
    """Node ids of the grid limit of F^n(seed): nodes reachable from a cycle."""
    n = len(tables[0])
    src = np.tile(np.arange(n), len(tables))
    return _reachable_from_cycles(n, src, np.concatenate(tables))


def a_w_limit(tables, pre, per):
    """Node ids of A_w along pre(per)^inf, and whether its phases repeat.

    The seed is carried through the preperiod, then through 2^k >= n periods
    (past every transient of the composed table), then once more through the
    period while collecting the union of the per-letter images.
    """
    n = len(tables[0])
    cur = np.arange(n)
    for s in pre:
        cur = np.unique(tables[s][cur])
    composed = np.arange(n)
    for s in per:
        composed = tables[s][composed]
    power = composed
    reach = 1
    while reach < n:
        power = power[power]
        reach *= 2
    cur = np.unique(power[cur])
    repeats = np.array_equal(np.unique(composed[cur]), cur)
    union = cur
    for s in per[:-1]:
        cur = np.unique(tables[s][cur])
        union = np.union1d(union, cur)
    return union, repeats


def vertex_limit_sets(tables, vertices, edges) -> dict:
    """Per presentation vertex, the node ids of its limit cloud.

    The product graph has node x * V + v and, for each presentation edge
    (u, j, v), the edges (x, u) -> (T_j[x], v).
    """
    n = len(tables[0])
    order = {v: i for i, v in enumerate(vertices)}
    V = len(vertices)
    xs = np.arange(n)
    src = np.concatenate([xs * V + order[u] for u, _, _ in edges])
    dst = np.concatenate([tables[j] * V + order[v] for _, j, v in edges])
    alive = _reachable_from_cycles(n * V, src, dst)
    return {v: alive[alive % V == order[v]] // V for v in vertices}


def start_vertices(edges, vertices, pre, per) -> frozenset:
    """Vertices from which pre(per)^inf can be read along the edges.

    The largest vertex set that reading one period maps back into itself,
    pulled back through the preperiod.
    """
    back = {}
    for u, j, v in edges:
        back.setdefault((v, j), set()).add(u)

    def pull(targets, word):
        for j in reversed(word):
            targets = {u for v in targets for u in back.get((v, j), ())}
        return targets

    targets = set(vertices)
    while True:
        shrunk = pull(targets, per)
        if shrunk == targets:
            return frozenset(pull(targets, pre))
        targets = shrunk


def chaos_orbit(model, probs, x0, steps: int, rng_seed: int) -> np.ndarray:
    """The chaos-game orbit: each step applies map j with probability probs[j].

    The symbols come from ``numpy.random.default_rng(rng_seed).choice``, as
    the chaos game documents; the orbit is carried with the model's scalar
    maps, one point at a time.
    """
    symbols = np.random.default_rng(rng_seed).choice(model.n_maps, size=steps, p=np.asarray(probs, dtype=float))
    fns = model.scalar_maps
    x = float(np.atleast_1d(x0)[0]) if model.dim == 1 else tuple(float(v) for v in x0)
    orbit = []
    for s in symbols.tolist():
        x = fns[s](x)
        orbit.append(x)
    return np.array(orbit, dtype=float).reshape(steps, model.dim)


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point of a to the nearest point of b."""
    return cKDTree(b).query(a, k=1)[0]


def directed(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean sup over a of the distance to b."""
    return float(distances(a, b).max()) if len(a) else 0.0


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    return max(directed(a, b), directed(b, a))


def cantor_distance(x: np.ndarray, depth: int = 12) -> np.ndarray:
    """Upper bound on the distance from each x to the middle-thirds set.

    The distance to the 2^depth intervals of the depth-level approximation
    plus their length 3^-depth, since every such interval meets the set
    within its own length.
    """
    lefts = np.zeros(1)
    for i in range(1, depth + 1):
        lefts = np.concatenate((lefts, lefts + 2.0 * 3.0 ** (-i)))
    lefts.sort()
    width = 3.0 ** (-depth)
    x = np.asarray(x, dtype=float).ravel()
    i = np.clip(np.searchsorted(lefts, x, side="right") - 1, 0, len(lefts) - 1)
    best = np.full(len(x), np.inf)
    for k in (i, np.minimum(i + 1, len(lefts) - 1)):
        gap = np.maximum(np.maximum(lefts[k] - x, x - lefts[k] - width), 0.0)
        best = np.minimum(best, gap)
    return best + width
