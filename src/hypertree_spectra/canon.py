"""Canonical forms of supertrees.

A supertree's bipartite vertex/edge incidence graph is a tree, so its AHU
code rooted at the tree's center (Aho, Hopcroft & Ullman 1974) yields an
exact canonical labeling, ``_label``, which also numbers the census shapes.
A code is a bit string: "1", the children's codes in sorted order, "0".  No
code is a proper prefix of another, so with "0" < "1" codes sort as nested
lists of child codes do, and nothing recurses.  The leaf peeling that finds
the center is also the supertree test: any other hypergraph raises NotATree.

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
    order, _, code = _center_peel(g.edges, g.n)
    return tuple(sorted(_label(code, order[-1] < g.n)))


def _label(code: str, vertex_root: bool) -> list[tuple[int, ...]]:
    """The edges of the incidence tree with this AHU code, rooted at a
    vertex or an edge, numbering vertices from 1 in pre-order: one scan in
    which "1" opens a node and "0" closes it, listing an edge as it closes."""
    edges = []
    path: list = []  # the open nodes: a vertex's number, an edge's vertex list
    nxt = 1
    for bit in code:
        if bit == "0":
            node = path.pop()
            if isinstance(node, list):
                edges.append(tuple(node))
        elif (len(path) % 2 == 0) == vertex_root:  # a vertex, child of an edge
            if path:
                path[-1].append(nxt)
            path.append(nxt)
            nxt += 1
        else:  # an edge, child of the vertex path[-1] if any
            path.append(path[-1:])
    return edges


def _center_peel(edges: Sequence[Sequence[int]], n: int) -> tuple[list, list, str]:
    """Leaf peel of the incidence tree, whose nodes are ints (vertex v is
    v-1, edge j is n+j): the peel order, center last, each node's parent,
    and the center's AHU code.  NotATree unless the edges form a supertree."""
    # with sum(|e| - 1) = n - 1 the incidence graph has one link fewer than
    # nodes, so it is a tree iff it has no cycle, iff peeling removes it all
    if sum(len(e) - 1 for e in edges) != n - 1:
        raise NotATree(f"{len(edges)} edges on {n} vertices cannot form a supertree")
    adj: list[list[int]] = [[] for _ in range(n + len(edges))]
    for j, e in enumerate(edges):
        for v in e:
            adj[v - 1].append(n + j)
            adj[n + j].append(v - 1)

    # one leaf peel: a node peels after its children, and its one neighbour
    # left is its parent.  Every leaf is a vertex, so leaf-to-leaf paths in
    # the bipartite tree have even length and the last node peeled is the
    # one center.  Only the parent keeps a child's code, so the live codes
    # cover disjoint subtrees; siblings all have one type, so need no tag.
    degree = [len(nbrs) for nbrs in adj]
    order = [x for x, d in enumerate(degree) if d <= 1]
    parent = [-1] * len(adj)
    kids: list[list[str]] = [[] for _ in adj]  # children's codes until the node peels
    for x in order:  # order grows while it is walked
        code = "1" + "".join(sorted(kids[x])) + "0"
        kids[x].clear()
        for nb in adj[x]:
            if parent[nb] != x:  # the one neighbour left
                parent[x] = nb
                kids[nb].append(code)
                degree[nb] -= 1
                if degree[nb] == 1:
                    order.append(nb)
    if len(order) < len(adj):
        raise NotATree("the edges contain a cycle")
    return order, parent, code
