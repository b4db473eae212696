"""Structural perturbations: edge moving, edge releasing, total grafting,
and the graft-sequence reduction of an ordinary tree to a path.

All transforms are pure: they return new hypergraphs and never mutate
their inputs.  Edge ids are 0-based indices into ``g.edges``.  Ordinary
trees are handled as 2-uniform supertrees (the k=2 census), so their
grafts are total grafts on ``tree_power(parents, 2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    InvalidSpec,
    MultipleEdge,
    NotLinear,
    NotPendentPaths,
    PendentEdge,
    VertexOutOfRange,
)
from .families import tree_power
from .hypergraph import Hypergraph, _is_integer, _reach, is_linear, pendent_edges


@dataclass(frozen=True)
class EdgeMoveSpec:
    """Move edges e_1..e_r from source vertices v_1..v_r to target u.

    Sources may repeat; the target must lie outside every moved edge.
    """

    edge_ids: tuple[int, ...]
    sources: tuple[int, ...]
    target: int


@dataclass(frozen=True)
class PendentPath:
    """A pendent path starting at its anchor vertex: the chain of link
    vertices (anchor first, free end last) and the 0-based edge ids."""

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.edge_ids)

    @property
    def end(self) -> int:
        return self.vertices[-1]


def move_edges(g: Hypergraph, spec: EdgeMoveSpec) -> Hypergraph:
    """E' = (E minus moved edges) plus the moved edges with each source
    vertex replaced by the target."""
    if len(spec.edge_ids) != len(spec.sources) or not spec.edge_ids:
        raise InvalidSpec("need r >= 1 edges with one source vertex each")
    if len(set(spec.edge_ids)) != len(spec.edge_ids):
        raise InvalidSpec("edge ids must be distinct")
    if not _is_integer(spec.target) or not (1 <= spec.target <= g.n):
        raise VertexOutOfRange(f"target {spec.target!r} is not a vertex id in 1..{g.n}")
    u = int(spec.target)
    new_edges: list[tuple[int, ...]] = []
    moved = set(spec.edge_ids)
    for eid, v in zip(spec.edge_ids, spec.sources):
        if not (0 <= eid < g.m):
            raise InvalidSpec(f"edge id {eid} out of range")
        e = g.edges[eid]
        if v not in e:
            raise InvalidSpec(f"source vertex {v} not in edge {list(e)}")
        if u in e:
            raise InvalidSpec(f"target vertex {u} already in edge {list(e)}")
        new_edges.append(tuple(sorted(set(e) - {v} | {u})))
    kept = [e for j, e in enumerate(g.edges) if j not in moved]
    combined = kept + new_edges
    if len(set(combined)) != len(combined):
        raise MultipleEdge("edge move would create a multiple edge")
    return Hypergraph(g.k, g.n, tuple(sorted(combined)))


def edge_release(g: Hypergraph, edge_id: int, u: int) -> Hypergraph:
    """Move every edge adjacent to the given non-pendent edge but not
    containing u from its (unique) common vertex to u."""
    pendent = pendent_edges(g)  # raises NotLinear
    if not (0 <= edge_id < g.m):
        raise InvalidSpec(f"edge id {edge_id} out of range")
    e = g.edges[edge_id]
    if u not in e:
        raise InvalidSpec(f"vertex {u} not in edge {list(e)}")
    if edge_id in pendent:
        raise PendentEdge("cannot release a pendent edge")
    # the other edges at e's vertices v != u; by linearity none contains u
    ids, sources = zip(
        *((j, v) for v in e if v != u for j in g.incident_edges(v) if j != edge_id)
    )
    return move_edges(g, EdgeMoveSpec(ids, sources, u))


def find_pendent_paths(g: Hypergraph, v: int) -> list[PendentPath]:
    """Maximal pendent paths starting at v, longest first.

    A pendent path edge carries k-2 degree-one filler vertices; interior
    link vertices have degree two and the far end degree one.
    """
    if not (1 <= v <= g.n):
        raise InvalidSpec(f"vertex {v} outside 1..{g.n}")
    if not is_linear(g):
        raise NotLinear("pendent paths are defined on linear hypergraphs")
    degs = g.degrees
    paths: list[PendentPath] = []
    for first in g.incident_edges(v):
        chain, edge_ids = [v], [first]
        while True:
            others = [w for w in g.edges[edge_ids[-1]] if w != chain[-1]]
            links = [w for w in others if degs[w - 1] > 1]
            if len(links) > 1 or (links and degs[links[0] - 1] > 2):
                break  # the edge branches
            if not links:
                # all remaining vertices degree one; pick the smallest as
                # the designated free end (any choice is automorphic)
                chain.append(min(others))
                paths.append(PendentPath(tuple(chain), tuple(edge_ids)))
                break
            chain.append(links[0])
            (nxt,) = (j for j in g.incident_edges(links[0]) if j != edge_ids[-1])
            if nxt == first:
                break  # walked around a 1-cycle
            edge_ids.append(nxt)
    paths.sort(key=lambda p: (-p.length, p.edge_ids))
    return paths


def total_graft(g: Hypergraph, v: int, p: int, q: int) -> Hypergraph:
    """Concatenate two pendent paths of lengths p and q at v into a single
    pendent path of length p+q (the strict-decrease direction requires
    both p and q nonzero, so zero lengths are rejected)."""
    if p < 1 or q < 1:
        raise NotPendentPaths(f"need p, q >= 1, got p={p}, q={q}")
    return _graft(g, v, find_pendent_paths(g, v), p, q)


def _graft(g: Hypergraph, v: int, paths: list[PendentPath], p: int, q: int) -> Hypergraph:
    """total_graft on v's pendent paths, already walked."""
    path_p = next((pp for pp in paths if pp.length == p), None)
    path_q = next((pp for pp in paths if pp.length == q and pp is not path_p), None)
    if path_p is None or path_q is None:
        raise NotPendentPaths(f"no two disjoint pendent paths of lengths {p} and {q} at vertex {v}")
    if g.degree(v) < 3:
        # both incident edges are the two paths: the base hypergraph is a
        # bare vertex and the graft is an isomorphism, not a perturbation
        raise NotPendentPaths(f"vertex {v} carries no edge besides the two pendent paths")
    # re-hang the q-path off the free end of the p-path: move its first
    # edge from v to end(P)
    return move_edges(g, EdgeMoveSpec((path_q.edge_ids[0],), (v,), path_p.end))


# -- ordinary trees: graft sequence reduction to a path ----------------------
# tree_power(parents, 2) keeps the tree's own node labels.

@dataclass(frozen=True)
class GraftStep:
    vertex: int
    p: int
    q: int


def graft_to_path(parents: Sequence[int]) -> list[GraftStep]:
    """Sequence of total grafts turning the tree into a path.

    Strategy: graft each vertex u of degree >= 3, furthest from node 1
    first (the smallest label on ties), d(u) - 2 times, each time joining
    its two shortest pendent paths.  The order is fixed once: grafts at the
    deepest such u move only pendent paths at u, so no other such vertex
    changes depth or degree (if node 1 lies on a moved path, u is the last).
    """
    g = tree_power(parents, 2)
    parent = _reach(g)  # each node after its parent
    depth = {1: 0}
    for x in list(parent)[1:]:
        depth[x] = depth[parent[x]] + 1
    steps: list[GraftStep] = []
    for u in sorted((u for u in depth if g.degree(u) >= 3), key=lambda u: (-depth[u], u)):
        while g.degree(u) > 2:
            paths = find_pendent_paths(g, u)  # one walk, to choose p and q and to graft
            p, q = sorted(c.length for c in paths)[:2]
            g = _graft(g, u, paths, p, q)
            steps.append(GraftStep(vertex=u, p=p, q=q))
    return steps


def apply_graft_sequence(parents: Sequence[int], steps: Sequence[GraftStep]) -> list[list[int]]:
    """Intermediate trees (as parent arrays) after each graft step."""
    g = tree_power(parents, 2)
    out = []
    for step in steps:
        g = total_graft(g, step.vertex, step.p, step.q)
        parent = _reach(g)  # a graft keeps a tree, so no check is needed
        out.append([parent[i] for i in range(2, g.n + 1)])
    return out
