"""Canonical forms of supertrees.

A supertree's bipartite vertex/edge incidence tree has one center, and its
AHU code rooted there (Aho, Hopcroft & Ullman 1974) yields an exact
canonical labeling, ``_label``, which also numbers the census shapes.  A
code is a bit string: "1", the children's codes in sorted order, "0".  No
code is a proper prefix of another, so with "0" < "1" codes sort as nested
lists of child codes do, and nothing recurses.  Vertices and edges
alternate by depth, so ``_label`` knows each node's type from its bit's
position and numbers a code in one pass.  The codes are read off the
solver's leaf peel, ``spectral._elimination_order``, which gives each
edge's parent vertex and the edges by height, and is also the supertree
test: any other hypergraph raises NotATree.

A canonical form is the relabeled edge list: a sorted tuple of sorted
vertex tuples.  Two supertrees are isomorphic iff their canonical forms
are equal.
"""

from __future__ import annotations

from .errors import Disconnected, NotATree
from .hypergraph import Hypergraph
from .spectral import _elimination_order
from .tensors import _edge_index

CanonicalForm = tuple[tuple[int, ...], ...]


def canonical_form(g: Hypergraph) -> CanonicalForm:
    """Canonical form of a supertree; NotATree for any other hypergraph."""
    # with sum(|e| - 1) = n - 1 the incidence graph has one link fewer than
    # nodes, so it is a tree iff it has no cycle, which the peel finds
    if sum(len(e) - 1 for e in g.edges) != g.n - 1:
        raise NotATree(f"{g.m} edges on {g.n} vertices cannot form a supertree")
    if not g.edges:  # one vertex
        return ()
    try:
        verts, (_, levels, order, _, _) = _elimination_order(_edge_index([g]), g.n)
    except Disconnected:
        raise NotATree("the edges contain a cycle") from None
    # an edge's children are its vertices but its parent (position 0), and
    # a vertex's children are the edges it is the parent of, all of smaller
    # height, so walking the edges by height finds every child's code done.
    # Only the parent keeps a child's code, so the live codes cover disjoint
    # subtrees and memory stays linear
    edges, kids = verts[0].tolist(), {}  # a vertex's children's codes

    def code(children) -> str:
        return "1" + "".join(sorted(children)) + "0"

    for j in order.tolist():
        parent, *children = edges[j]
        codes = [code(kids.pop(v, ())) for v in children]
        kids.setdefault(parent, []).append(code(codes))
    # the last height is one edge, the center, whose code takes all its
    # vertices, or edges around their shared parent vertex, the center
    last = levels[-1][0]
    if last.stop - last.start > 1:
        return _label(code(kids[parent]), True)
    kids[parent].pop()  # the center's own code, appended last
    return _label(code([code(kids[parent]), *codes]), False)


def _label(code: str, vertex_root: bool) -> CanonicalForm:
    """The sorted edges of the incidence tree with this AHU code, rooted at
    a vertex or an edge, vertices numbered from 1 in pre-order.  Read in
    pairs from a vertex level, a pair's first bit opens a vertex or closes
    an edge, its second opens an edge or closes a vertex; an edge's list
    starts with its parent vertex, the one that opens the next edge."""
    edges, open_edges, nxt = [], [[]], 1  # open_edges[0] is the root edge, or holds a root vertex
    bits = iter(code if vertex_root else code[1:-1])
    for first, second in zip(bits, bits):
        if first == "1":  # a vertex of the edge open_edges[-1] opens
            open_edges[-1].append(nxt)
            if second == "1":  # and opens its first edge
                open_edges.append([nxt])
            nxt += 1
        else:  # an edge closes, and its parent vertex opens another or closes
            edge = open_edges.pop()
            edges.append(tuple(edge))
            if second == "1":
                open_edges.append(edge[:1])
    return tuple(sorted(edges if vertex_root else [*edges, tuple(open_edges[0])]))
