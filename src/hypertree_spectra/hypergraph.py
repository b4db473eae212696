"""Core k-uniform hypergraph type, validation, predicates, and text I/O.

Vertices are 1-based contiguous integers 1..n.  Edges are stored as sorted
tuples, and the edge list itself is kept in lexicographic order so that
identical structures are byte-for-byte identical.  Edge ids are 0-based
indices into ``edges``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    DuplicateEdge,
    NonUniform,
    NotLinear,
    RepeatedVertexInEdge,
    VertexOutOfRange,
)


@dataclass(frozen=True)
class Hypergraph:
    """Immutable k-uniform hypergraph on vertex set {1, ..., n}."""

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]
    vertex_to_edges: tuple[tuple[int, ...], ...] = field(compare=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.vertex_to_edges[v - 1])

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(ids) for ids in self.vertex_to_edges)

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """0-based ids of the edges containing vertex v."""
        return self.vertex_to_edges[v - 1]


@dataclass(frozen=True)
class IncidenceMatrix:
    """Sparse 0/1 vertex-edge incidence matrix, stored column-wise."""

    rows: int
    cols: int
    columns: tuple[tuple[int, ...], ...]  # column j = vertices of edge j

    def to_dense(self):
        import numpy as np

        r = np.zeros((self.rows, self.cols))
        for j, col in enumerate(self.columns):
            for i in col:
                r[i - 1, j] = 1.0
        return r


def validate(raw_edges: Iterable[Sequence[int]], n: int, k: int | None = None) -> Hypergraph:
    """Build a Hypergraph from raw edge lists, rejecting malformed input.

    Uniformity k is inferred from the first edge unless given explicitly.
    Duplicate edges are an error, never silently merged.
    """
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for raw in raw_edges:
        verts = list(raw)
        if k is None:
            k = len(verts)
        if len(verts) != k:
            raise NonUniform(f"edge {verts} has size {len(verts)}, expected {k}")
        if len(set(verts)) != len(verts):
            raise RepeatedVertexInEdge(f"edge {verts} repeats a vertex")
        for v in verts:
            if not (1 <= v <= n):
                raise VertexOutOfRange(f"vertex {v} outside 1..{n}")
        e = tuple(sorted(verts))
        if e in seen:
            raise DuplicateEdge(f"edge {list(e)} appears twice")
        seen.add(e)
        edges.append(e)
    if k is None:
        raise NonUniform("cannot infer uniformity from an empty edge list")
    edges.sort()
    v2e: list[list[int]] = [[] for _ in range(n)]
    for j, e in enumerate(edges):
        for v in e:
            v2e[v - 1].append(j)
    return Hypergraph(
        k=k,
        n=n,
        edges=tuple(edges),
        vertex_to_edges=tuple(tuple(ids) for ids in v2e),
    )


def is_connected(g: Hypergraph) -> bool:
    """True iff every pair of vertices is joined by an alternating
    vertex/edge path."""
    if g.n == 0:
        return False
    if g.n == 1:
        return True
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for j in g.incident_edges(v):
            for w in g.edges[j]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == g.n


def is_supertree(g: Hypergraph) -> bool:
    """Connected and acyclic, via the edge-count criterion
    m*(k-1) == n-1 for the connected case."""
    return is_connected(g) and g.m * (g.k - 1) == g.n - 1


def is_linear(g: Hypergraph) -> bool:
    """True iff every pair of distinct edges shares at most one vertex."""
    for i in range(g.m):
        ei = set(g.edges[i])
        for j in range(i + 1, g.m):
            if len(ei.intersection(g.edges[j])) > 1:
                return False
    return True


def incidence_matrix(g: Hypergraph) -> IncidenceMatrix:
    return IncidenceMatrix(rows=g.n, cols=g.m, columns=g.edges)


def pendent_edges(g: Hypergraph) -> set[int]:
    """0-based ids of edges containing at least k-1 degree-one vertices.

    A single isolated edge (all k vertices of degree one) counts as pendent.
    """
    if not is_linear(g):
        raise NotLinear("pendent_edges requires a linear hypergraph")
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
        rows.append([int(tok) for tok in line.split()])
    if not rows:
        raise ValueError("empty hypergraph file")
    header = rows[0]
    if len(header) != 3:
        raise ValueError(f"header must be 'k n m', got {header}")
    k, n, m = header
    body = rows[1:]
    if len(body) != m:
        raise ValueError(f"expected {m} edge lines, found {len(body)}")
    return validate(body, n, k=k)


def read_hypergraph(path) -> Hypergraph:
    with open(path, encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


def write_hypergraph(g: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hypergraph(g))
