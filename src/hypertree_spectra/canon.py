"""Canonical forms of supertrees.

A supertree's bipartite vertex/edge incidence graph is a tree, so a
rooted-tree canonical code (computed at the tree center) yields an exact
canonical labeling.  The leaf peeling that finds the center is also the
supertree test: any other hypergraph raises NotATree.

A canonical form is the relabeled edge list: a sorted tuple of sorted
vertex tuples.  Two supertrees are isomorphic iff their canonical forms
are equal.
"""

from __future__ import annotations

from typing import Sequence

from .errors import NotATree
from .hypergraph import Hypergraph

CanonicalForm = tuple[tuple[int, ...], ...]


def canonical_form(g: Hypergraph) -> CanonicalForm:
    """Canonical form of a supertree; NotATree for any other hypergraph."""
    return _supertree_canonical(g.edges, g.n)


def _supertree_canonical(edges: Sequence[Sequence[int]], n: int) -> CanonicalForm:
    """Canonical form of the supertree on vertices 1..n with these edges;
    NotATree unless the edges form a supertree."""
    order, _, kids, _ = _center_peel(edges, n)
    # label vertices in pre-order, smallest child code first (equal codes
    # are automorphic subtrees, so their order is immaterial)
    label = [0] * (n + 1)
    nxt_label = 1
    stack = [order[-1]]
    while stack:
        x = stack.pop()
        if x < n:
            label[x + 1] = nxt_label
            nxt_label += 1
        stack.extend(reversed(kids[x]))
    return tuple(sorted(tuple(sorted(label[v] for v in e)) for e in edges))


def _center_peel(edges: Sequence[Sequence[int]], n: int) -> tuple[list, list, list, list]:
    """Leaf peel of the incidence tree, whose nodes are ints (vertex v is
    v-1, edge j is n+j): the peel order, center last, and each node's
    parent, children sorted by code, and AHU code.  NotATree unless the
    edges form a supertree."""
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
    kids: list[list[int]] = [[] for _ in adj]
    code: list = [()] * len(adj)
    for x in order:  # order grows while it is walked
        kids[x].sort(key=code.__getitem__)
        code[x] = tuple(code[c] for c in kids[x])
        for nb in adj[x]:
            if parent[nb] != x:  # the one neighbour left
                parent[x] = nb
                kids[nb].append(x)
                degree[nb] -= 1
                if degree[nb] == 1:
                    order.append(nb)
    if len(order) < len(adj):
        raise NotATree("the edges contain a cycle")
    return order, parent, kids, code
