"""Canonical forms of supertrees.

A supertree's bipartite vertex/edge incidence graph is a tree, so a
rooted-tree canonical code (computed at the tree center) yields an exact
canonical labeling, ``_label``, which also numbers the census shapes.  The
leaf peeling that finds the center is also the supertree test: any other
hypergraph raises NotATree.

A canonical form is the relabeled edge list: a sorted tuple of sorted
vertex tuples.  Two supertrees are isomorphic iff their canonical forms
are equal.
"""

from __future__ import annotations

from typing import Sequence

from .errors import NotATree, TooLarge
from .hypergraph import Hypergraph

CanonicalForm = tuple[tuple[int, ...], ...]


def canonical_form(g: Hypergraph) -> CanonicalForm:
    """Canonical form of a supertree; NotATree for any other hypergraph."""
    return _supertree_canonical(g.edges, g.n)


def _supertree_canonical(edges: Sequence[Sequence[int]], n: int) -> CanonicalForm:
    """Canonical form of the supertree on vertices 1..n with these edges;
    NotATree unless the edges form a supertree, TooLarge when its codes
    nest too deep to compare."""
    try:
        order, _, code = _center_peel(edges, n)
        c = order[-1]
        form: list[tuple[int, ...]] = []
        if c < n:
            _label(code[c], [1], 2, form)
        else:
            _label((code[c],), [], 1, form)
    except RecursionError:
        raise TooLarge(f"{len(edges)} edges nest too deep for a canonical form") from None
    return tuple(sorted(form))


def _label(branches: tuple, top: list[int], nxt: int, edges: list) -> int:
    """Append the edge of each edge branch (by code) -- the vertices in top
    and its children -- and the edges below it, numbering vertices in
    pre-order from nxt; return the next free number."""
    for branch in branches:
        edge = list(top)
        for child in branch:
            edge.append(nxt)
            nxt = _label(child, [nxt], nxt + 1, edges)
        edges.append(tuple(edge))
    return nxt


def _center_peel(edges: Sequence[Sequence[int]], n: int) -> tuple[list, list, list]:
    """Leaf peel of the incidence tree, whose nodes are ints (vertex v is
    v-1, edge j is n+j): the peel order, center last, and each node's
    parent and AHU code.  NotATree unless the edges form a supertree."""
    # with sum(|e| - 1) = n - 1 the incidence graph has one link fewer than
    # nodes, so it is a tree iff it has no cycle, iff peeling removes it all
    if sum(len(e) - 1 for e in edges) != n - 1:
        raise NotATree(f"{len(edges)} edges on {n} vertices cannot form a supertree")
    adj: list[list[int]] = [[] for _ in range(n + len(edges))]
    for j, e in enumerate(edges):
        for v in e:
            adj[v - 1].append(n + j)
            adj[n + j].append(v - 1)

    # one leaf peel: when a node peels its children have peeled, and its one
    # neighbour left is its parent.  Every leaf is a vertex and the tree is
    # bipartite, so leaf-to-leaf paths have even length and the last node
    # peeled is the one center.  AHU codes come at peel time: a node's code
    # is its children's codes, sorted.  Siblings in a bipartite tree all
    # have one type, so the codes need no vertex/edge tag.
    degree = [len(nbrs) for nbrs in adj]
    order = [x for x, d in enumerate(degree) if d <= 1]
    parent = [-1] * len(adj)
    code: list = [[] for _ in adj]  # children's codes until the node peels
    for x in order:  # order grows while it is walked
        code[x] = tuple(sorted(code[x]))
        for nb in adj[x]:
            if parent[nb] != x:  # the one neighbour left
                parent[x] = nb
                code[nb].append(code[x])
                degree[nb] -= 1
                if degree[nb] == 1:
                    order.append(nb)
    if len(order) < len(adj):
        raise NotATree("the edges contain a cycle")
    return order, parent, code
