"""Core k-uniform hypergraph type, validation, predicates, and text I/O.

Vertices are 1-based contiguous integers 1..n.  Edges are stored as sorted
tuples, and the edge list itself is kept in lexicographic order so that
identical structures are byte-for-byte identical.  Edge ids are 0-based
indices into ``edges``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from numbers import Integral
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadDimensions,
    BadFormat,
    DuplicateEdge,
    NonUniform,
    NotLinear,
    RepeatedVertexInEdge,
    VertexOutOfRange,
)


@dataclass(frozen=True)
class Hypergraph:
    """Immutable k-uniform hypergraph on vertex set {1, ..., n}.

    edges is sorted, and each edge is an increasing tuple of ints in 1..n:
    validate enforces this, and a direct construction must keep it.
    """

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def vertex_to_edges(self) -> tuple[tuple[int, ...], ...]:
        """0-based ids of each vertex's edges, vertex v at v-1."""
        v2e: list[list[int]] = [[] for _ in range(self.n)]
        for j, e in enumerate(self.edges):
            for v in e:
                v2e[v - 1].append(j)
        return tuple(map(tuple, v2e))

    def degree(self, v: int) -> int:
        return len(self.vertex_to_edges[v - 1])

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(ids) for ids in self.vertex_to_edges)

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """0-based ids of the edges containing vertex v."""
        return self.vertex_to_edges[v - 1]


def validate(raw_edges: Iterable[Sequence[int]], n: int, k: int | None = None) -> Hypergraph:
    """Build a Hypergraph from raw edge lists, rejecting malformed input.

    Uniformity k is inferred from the first edge unless given explicitly,
    and must be at least 2; n must be at least 1.  n, k and the vertex ids
    must be integers, not bools; numpy integers are stored as int.
    Duplicate edges are an error, never silently merged.
    """
    for name, value in (("n", n), ("k", k)):
        if value is not None and not _is_integer(value):
            raise BadDimensions(f"{name} must be an integer, got {value!r}")
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for raw in raw_edges:
        verts = list(raw)
        if k is None:
            k = len(verts)
        if len(verts) != k:
            raise NonUniform(f"edge {verts} has size {len(verts)}, expected {k}")
        for v in verts:
            if not _is_integer(v):
                raise VertexOutOfRange(f"vertex {v!r} is not an integer id")
        if len(set(verts)) != len(verts):
            raise RepeatedVertexInEdge(f"edge {verts} repeats a vertex")
        for v in verts:
            if not (1 <= v <= n):
                raise VertexOutOfRange(f"vertex {v} outside 1..{n}")
        e = tuple(sorted(map(int, verts)))
        if e in seen:
            raise DuplicateEdge(f"edge {list(e)} appears twice")
        seen.add(e)
        edges.append(e)
    if k is None:
        raise NonUniform("cannot infer uniformity from an empty edge list")
    if k < 2 or n < 1:
        raise BadDimensions(f"need k >= 2 and n >= 1, got k={k}, n={n}")
    return Hypergraph(k=int(k), n=int(n), edges=tuple(sorted(edges)))


def _is_integer(value) -> bool:
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


def _reach(g: Hypergraph) -> dict[int, int]:
    """Depth-first walk from vertex 1 along alternating vertex/edge paths:
    each reached vertex's parent, 0 for vertex 1."""
    parent = {1: 0}
    stack = [1]
    while stack:
        v = stack.pop()
        for j in g.incident_edges(v):
            for w in g.edges[j]:
                if w not in parent:
                    parent[w] = v
                    stack.append(w)
    return parent


def is_connected(g: Hypergraph) -> bool:
    """True iff every pair of vertices is joined by an alternating
    vertex/edge path."""
    return len(_reach(g)) == g.n


def is_linear(g: Hypergraph) -> bool:
    """True iff every pair of distinct edges shares at most one vertex,
    i.e. no vertex pair lies in two edges."""
    pairs = [pair for e in g.edges for pair in combinations(e, 2)]
    return len(pairs) == len(set(pairs))


def incidence_matrix(g: Hypergraph) -> np.ndarray:
    """Dense (n, m) 0/1 vertex-edge incidence matrix R; column j is edge j."""
    r = np.zeros((g.n, g.m))
    for j, e in enumerate(g.edges):
        r[[v - 1 for v in e], j] = 1.0
    return r


def pendent_edges(g: Hypergraph) -> set[int]:
    """0-based ids of edges containing at least k-1 degree-one vertices.

    A single isolated edge (all k vertices of degree one) counts as pendent.
    """
    if not is_linear(g):
        raise NotLinear("pendent edges are defined on linear hypergraphs")
    degs = g.degrees
    out = set()
    for j, e in enumerate(g.edges):
        ones = sum(1 for v in e if degs[v - 1] == 1)
        if ones >= g.k - 1:
            out.add(j)
    return out


# -- text format -------------------------------------------------------------
# line 1: "k n m"; then m lines of k space-separated vertex ids.
# '#' begins a comment line.  Edges are re-sorted lexicographically on read.

def format_hypergraph(g: Hypergraph) -> str:
    lines = [f"{g.k} {g.n} {g.m}"]
    for e in g.edges:
        lines.append(" ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    rows: list[list[int]] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError:
            raise BadFormat(f"non-integer token in line {line!r}") from None
    if not rows:
        raise BadFormat("empty hypergraph file")
    header = rows[0]
    if len(header) != 3:
        raise BadFormat(f"header must be 'k n m', got {header}")
    k, n, m = header
    body = rows[1:]
    if len(body) != m:
        raise BadFormat(f"expected {m} edge lines, found {len(body)}")
    return validate(body, n, k=k)


def read_hypergraph(path) -> Hypergraph:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise BadFormat(f"{path} is not UTF-8 text") from None
    return parse_hypergraph(text)


def write_hypergraph(g: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hypergraph(g))
