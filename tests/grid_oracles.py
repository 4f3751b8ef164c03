"""Grid oracles for the tests, computed apart from the set engine.

On the seed grid each map is a table node -> node (snapping works point by
point), so limits are properties of that finite graph.  These helpers
evaluate the maps and the snapping rule themselves, take and return plain
arrays, and never call the engine.
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree


def grid_tables(model, delta):
    """Seed-grid coordinates in lexicographic order and each map as a node table."""
    idx = np.unique(np.ceil(model.seeder(delta) / delta - 0.5).astype(np.int64), axis=0)
    lo, span = idx.min(axis=0), np.ptp(idx, axis=0) + 1
    assert np.prod(span) == len(idx)  # a full box: node id = row-major index

    def node(pts):
        rel = np.ceil(np.asarray(pts) / delta - 0.5).astype(np.int64) - lo
        assert ((rel >= 0) & (rel < span)).all()
        return np.ravel_multi_index(tuple(rel.T), tuple(span))

    coords = idx * delta
    return coords, [node(fn(coords)) for fn in model.maps]


def reachable_from_cycles(n, src, dst):
    """Which of the nodes 0 ... n-1 of the edges src -> dst a cycle reaches."""
    graph = csr_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    _, label = connected_components(graph, directed=True, connection="strong")
    reach = np.bincount(label)[label] > 1
    reach[src[src == dst]] = True
    while True:
        grown = reach.copy()
        grown[dst[reach[src]]] = True
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def tree_nearest(points, rows):
    """Euclidean distance from each of the points to its nearest row, by a search tree."""
    return cKDTree(rows).query(points)[0]
