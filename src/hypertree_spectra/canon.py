"""Canonical forms and vertex automorphism orbits of supertrees.

A supertree's bipartite vertex/edge incidence graph is a tree, so a
rooted-tree canonical code (computed at the tree center) yields an exact
canonical labeling, and the same pass yields the vertex automorphism
orbits.  The leaf peeling that finds the center is also the supertree
test: any other hypergraph raises NotATree.

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
    return _supertree_canonical(g.edges, g.n)[0]


def automorphism_orbits(g: Hypergraph) -> list[set[int]]:
    """Vertex orbits of the automorphism group of a supertree, in order of
    their smallest vertex; NotATree for any other hypergraph."""
    orbit = _supertree_canonical(g.edges, g.n)[1]
    return [{v for v, o in enumerate(orbit, 1) if o == rep} for rep in sorted(set(orbit))]


def _supertree_canonical(edges: Sequence[Sequence[int]], n: int) -> tuple[CanonicalForm, list[int]]:
    """Canonical form of the supertree on vertices 1..n with these edges,
    and its vertex orbits: orbit[v-1] is the smallest vertex that an
    automorphism maps v to.  Incidence-tree nodes are ints: vertex v is
    v-1, edge j is n+j.  NotATree unless the edges form a supertree."""
    # with sum(|e| - 1) = n - 1 the incidence graph has one link fewer than
    # nodes, so it is a tree iff it has no cycle, iff peeling removes it all
    if sum(len(e) - 1 for e in edges) != n - 1:
        raise NotATree(f"{len(edges)} edges on {n} vertices cannot form a supertree")
    adj: list[list[int]] = [[] for _ in range(n + len(edges))]
    for j, e in enumerate(edges):
        for v in e:
            adj[v - 1].append(n + j)
            adj[n + j].append(v - 1)

    # the center: every leaf is a vertex and the tree is bipartite, so
    # leaf-to-leaf paths have even length and peeling leaves ends at one node
    degree = [len(nbrs) for nbrs in adj]
    leaves = [x for x, d in enumerate(degree) if d <= 1]
    remaining = len(adj)
    while remaining > 1:
        if not leaves:
            raise NotATree("the edges contain a cycle")
        remaining -= len(leaves)
        nxt = []
        for leaf in leaves:
            for nb in adj[leaf]:
                degree[nb] -= 1
                if degree[nb] == 1:
                    nxt.append(nb)
        leaves = nxt
    (root,) = leaves

    parent = [-1] * len(adj)
    order = [root]
    for x in order:  # breadth-first; order grows while it is walked
        for nb in adj[x]:
            if nb != parent[x]:
                parent[nb] = x
                order.append(nb)
    # AHU codes bottom-up: a node's code is its children's codes, sorted.
    # Siblings in a bipartite tree all have one type, so the codes need no
    # vertex/edge tag.
    code: list = [()] * len(adj)
    kids: list[list[int]] = [[]] * len(adj)
    for x in reversed(order):
        kids[x] = sorted((c for c in adj[x] if c != parent[x]), key=code.__getitem__)
        code[x] = tuple(code[c] for c in kids[x])
    # automorphisms fix the center, so two nodes share an orbit iff their
    # root paths carry equal codes; key[x] numbers x's path, not its code
    key = [0] * len(adj)
    keys: dict[tuple, int] = {}
    for x in order[1:]:
        key[x] = keys.setdefault((key[parent[x]], code[x]), len(keys) + 1)
    smallest: dict[int, int] = {}
    orbit = [smallest.setdefault(key[v - 1], v) for v in range(1, n + 1)]
    # label vertices in pre-order, smallest child code first (equal codes
    # are automorphic subtrees, so their order is immaterial)
    label = [0] * (n + 1)
    nxt_label = 1
    stack = [root]
    while stack:
        x = stack.pop()
        if x < n:
            label[x + 1] = nxt_label
            nxt_label += 1
        stack.extend(reversed(kids[x]))
    return tuple(sorted(tuple(sorted(label[v] for v in e)) for e in edges)), orbit
