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
    NotATree,
    NotLinear,
    NotPendentPaths,
    PendentEdge,
)
from .families import tree_power
from .hypergraph import Hypergraph, is_linear, pendent_edges, validate
from .spectral import DEFAULT_TOL, spectral_radius
from .tensors import TensorKind


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
    u = spec.target
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
    return validate(combined, g.n, k=g.k)


def edge_release(g: Hypergraph, edge_id: int, u: int) -> Hypergraph:
    """Move every edge adjacent to the given non-pendent edge but not
    containing u from its (unique) common vertex to u."""
    if not is_linear(g):
        raise NotLinear("edge_release requires a linear hypergraph")
    if not (0 <= edge_id < g.m):
        raise InvalidSpec(f"edge id {edge_id} out of range")
    e = g.edges[edge_id]
    if u not in e:
        raise InvalidSpec(f"vertex {u} not in edge {list(e)}")
    if edge_id in pendent_edges(g):
        raise PendentEdge("cannot release a pendent edge")
    ids: list[int] = []
    sources: list[int] = []
    for j, other in enumerate(g.edges):
        if j == edge_id or u in other:
            continue
        common = set(e).intersection(other)
        if common:
            (v,) = common  # unique by linearity
            ids.append(j)
            sources.append(v)
    return move_edges(g, EdgeMoveSpec(tuple(ids), tuple(sources), u))


def edge_release_best(
    g: Hypergraph,
    edge_id: int,
    kind: TensorKind = TensorKind.IncidenceQ,
    tol: float = DEFAULT_TOL,
) -> Hypergraph:
    """Release at the vertex of the edge with the largest Perron
    component, which guarantees the radius strictly increases."""
    if not (0 <= edge_id < g.m):
        raise InvalidSpec(f"edge id {edge_id} out of range")
    result = spectral_radius(kind, g, tol=tol)
    u = max(g.edges[edge_id], key=lambda v: result.eigvec[v - 1])
    return edge_release(g, edge_id, u)


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
    for start_eid in g.incident_edges(v):
        chain_vertices = [v]
        chain_edges = []
        cur_v, cur_e = v, start_eid
        ok = True
        visited_edges = set()
        while True:
            if cur_e in visited_edges:  # walked around a 1-cycle
                ok = False
                break
            visited_edges.add(cur_e)
            others = [w for w in g.edges[cur_e] if w != cur_v]
            continuing = [w for w in others if degs[w - 1] == 2]
            if any(degs[w - 1] > 2 for w in others) or len(continuing) > 1:
                ok = False
                break
            chain_edges.append(cur_e)
            if not continuing:
                # all remaining vertices degree one; pick the smallest as
                # the designated free end (any choice is automorphic)
                chain_vertices.append(min(others))
                break
            w = continuing[0]
            chain_vertices.append(w)
            nxt = [j for j in g.incident_edges(w) if j != cur_e]
            cur_v, cur_e = w, nxt[0]
        if ok:
            paths.append(PendentPath(tuple(chain_vertices), tuple(chain_edges)))
    paths.sort(key=lambda p: (-p.length, p.edge_ids))
    return paths


def total_graft(g: Hypergraph, v: int, p: int, q: int) -> Hypergraph:
    """Concatenate two pendent paths of lengths p and q at v into a single
    pendent path of length p+q (the strict-decrease direction requires
    both p and q nonzero, so zero lengths are rejected)."""
    if p < 1 or q < 1:
        raise NotPendentPaths(f"need p, q >= 1, got p={p}, q={q}")
    paths = find_pendent_paths(g, v)
    path_p = next((pp for pp in paths if pp.length == p), None)
    path_q = next(
        (pp for pp in paths if pp.length == q and pp is not path_p), None
    )
    if path_p is None or path_q is None:
        raise NotPendentPaths(
            f"no two disjoint pendent paths of lengths {p} and {q} at vertex {v}"
        )
    if g.degree(v) < 3:
        # both incident edges are the two paths: the base hypergraph is a
        # bare vertex and the graft is an isomorphism, not a perturbation
        raise NotPendentPaths(
            f"vertex {v} carries no edge besides the two pendent paths"
        )
    # re-hang the q-path off the free end of the p-path: move its first
    # edge from v to end(P)
    spec = EdgeMoveSpec((path_q.edge_ids[0],), (v,), path_p.end)
    return move_edges(g, spec)


# -- ordinary trees: graft sequence reduction to a path ----------------------
# tree_power(parents, 2) keeps the tree's own node labels.

@dataclass(frozen=True)
class GraftStep:
    vertex: int
    p: int
    q: int


def edges_to_parents(edges: Sequence[tuple[int, int]], n_prime: int) -> list[int]:
    """Root the tree at node 1 and emit the parent of each node 2..n';
    NotATree unless the edges form a tree on nodes 1..n'."""
    g = validate(edges, n_prime, k=2)
    if g.m != n_prime - 1:  # with n'-1 edges, connected means acyclic
        raise NotATree(f"{g.m} edges on {n_prime} nodes cannot form a tree")
    parent = {1: 0}
    stack = [1]
    while stack:
        u = stack.pop()
        for j in g.incident_edges(u):
            for w in g.edges[j]:
                if w not in parent:
                    parent[w] = u
                    stack.append(w)
    if len(parent) != n_prime:
        raise NotATree("edge list is not a connected tree")
    return [parent[i] for i in range(2, n_prime + 1)]


def graft_to_path(parents: Sequence[int]) -> list[GraftStep]:
    """Sequence of total grafts turning the tree into a path.

    Strategy: repeatedly pick a vertex of degree >= 3 furthest from node 1
    (the smallest such label on ties) and graft its two shortest pendent
    paths (the smaller first node on ties), d(u) - 2 grafts per vertex.
    """
    g = tree_power(parents, 2)
    steps: list[GraftStep] = []
    while True:
        heavy = [u for u in range(1, g.n + 1) if g.degree(u) >= 3]
        if not heavy:
            return steps
        parent = [0, 0] + edges_to_parents(g.edges, g.n)

        def depth(x: int) -> int:
            d = 0
            while x != 1:
                x, d = parent[x], d + 1
            return d

        u = max(heavy, key=lambda x: (depth(x), -x))
        while g.degree(u) > 2:
            paths = sorted(find_pendent_paths(g, u), key=lambda c: (c.length, c.vertices))
            p, q = paths[0].length, paths[1].length
            g = total_graft(g, u, p, q)
            steps.append(GraftStep(vertex=u, p=p, q=q))


def apply_graft_sequence(
    parents: Sequence[int], steps: Sequence[GraftStep]
) -> list[list[int]]:
    """Intermediate trees (as parent arrays) after each graft step."""
    g = tree_power(parents, 2)
    out = []
    for step in steps:
        g = total_graft(g, step.vertex, step.p, step.q)
        out.append(edges_to_parents(g.edges, g.n))
    return out
