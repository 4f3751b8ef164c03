"""Labeled-graph presentations of sofic subshifts.

A presentation is a finite directed graph whose edges carry symbols; the
subshift it presents consists of the label sequences of infinite directed
paths.  Presentations are kept essential (every vertex has at least one
outgoing edge), so a word is accepted exactly when some path carries it and
can be extended forever.  Graphs need not be deterministic: every query here
works on vertex subsets.

The start-vertex computation classifies strategy strings for slice
extraction: ``start_vertices(P, u)`` is the set of vertices from which the
infinite string ``u`` can be read, computed exactly for ultimately periodic
``u`` as a greatest fixed point along the period.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .symbolic import UPString

Edge = tuple  # (src: str, symbol: int, dst: str)


@dataclass(frozen=True)
class SoficPresentation:
    """A pruned labeled graph: vertex ids, edges (src, symbol, dst), alphabet size."""

    n_symbols: int
    vertices: tuple
    edges: frozenset

    @staticmethod
    def make(n_symbols: int, edges: Iterable[Edge]) -> "SoficPresentation":
        """Build a presentation and prune it to its essential part."""
        if n_symbols < 1:
            raise ValueError("alphabet needs at least one symbol")
        norm = set()
        for src, sym, dst in edges:
            sym = int(sym)
            if not 0 <= sym < n_symbols:
                raise ValueError(f"edge symbol {sym} outside alphabet of size {n_symbols}")
            norm.add((str(src), sym, str(dst)))
        vertices = {v for e in norm for v in (e[0], e[2])}
        # Essential part: drop vertices with no outgoing edge until stable.
        while dead := vertices - {src for src, _, _ in norm}:
            vertices -= dead
            norm = {e for e in norm if e[2] not in dead}
        return SoficPresentation(n_symbols, tuple(sorted(vertices)), frozenset(norm))

    @cached_property
    def _step(self) -> dict:
        return _label_table(self.edges)

    @cached_property
    def _back(self) -> dict:
        return _label_table((dst, sym, src) for src, sym, dst in self.edges)

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def to_text(self) -> str:
        """One edge per line: ``FROM SYMBOL TO``."""
        lines = [f"{src} {sym} {dst}" for src, sym, dst in sorted(self.edges)]
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def from_text(text: str, n_symbols=None) -> "SoficPresentation":
        edges = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"bad edge line {line!r}; expected FROM SYMBOL TO")
            edges.append((parts[0], int(parts[1]), parts[2]))
        if n_symbols is None:
            n_symbols = max((e[1] for e in edges), default=0) + 1
        return SoficPresentation.make(n_symbols, edges)


def _label_table(edges) -> dict:
    """(a, symbol) -> the frozenset of b over the edges (a, symbol, b)."""
    table: dict = {}
    for a, sym, b in edges:
        table.setdefault((a, sym), set()).add(b)
    return {k: frozenset(v) for k, v in table.items()}


def _walk(table: dict, frontier: frozenset, symbols) -> frozenset:
    """The vertices reached from frontier by reading symbols, in order, through table."""
    for sym in symbols:
        frontier = frozenset().union(*(table.get((v, sym), frozenset()) for v in frontier))
        if not frontier:
            break
    return frontier


def start_vertices(pres: SoficPresentation, u: UPString) -> frozenset:
    """Vertices from which the infinite string ``u`` is readable.

    Greatest fixed point of the backward-preimage map along the period,
    pulled back through the preperiod; empty iff u is not in the subshift.
    """
    targets = frozenset(pres.vertices)
    while True:
        shrunk = _walk(pres._back, targets, reversed(u.period))
        if shrunk == targets:
            break
        targets = shrunk
    return _walk(pres._back, targets, reversed(u.preperiod))


def builtin(name: str, n_symbols: int = 2) -> SoficPresentation:
    """Built-in presentations: full_shift, golden_mean, even_shift, golden_even.

    golden_mean forbids the factor 11; even_shift requires an even number of
    0s between consecutive 1s; golden_even is their intersection (two or a
    larger even number of 0s between 1s).  All but full_shift are over two
    symbols and reject any other n_symbols.
    """
    key = name.strip().lower()
    if key == "full_shift":
        return SoficPresentation.make(n_symbols, [("q", j, "q") for j in range(n_symbols)])
    binary = {
        "golden_mean": [("g0", 0, "g0"), ("g0", 1, "g1"), ("g1", 0, "g0")],
        "even_shift": [("e0", 1, "e0"), ("e0", 0, "e1"), ("e1", 0, "e0")],
        "golden_even": [("A", 0, "B"), ("B", 0, "C"), ("C", 0, "B"), ("C", 1, "A")],
    }
    if key not in binary:
        raise ValueError(f"unknown builtin presentation {name!r}")
    if n_symbols != 2:
        raise ValueError(f"builtin presentation {name!r} is over 2 symbols, not {n_symbols}")
    return SoficPresentation.make(2, binary[key])


def language(pres: SoficPresentation, max_len: int) -> set:
    """All accepted letter tuples of length <= max_len (test utility)."""
    if pres.is_empty:
        return set()
    out = {()}
    layer = {(): frozenset(pres.vertices)}
    for _ in range(max_len):
        nxt = {}
        for word, frontier in layer.items():
            for sym in range(pres.n_symbols):
                ext = _walk(pres._step, frontier, (sym,))
                if ext:
                    nxt[word + (sym,)] = ext
        layer = nxt
        out.update(layer.keys())
    return out
