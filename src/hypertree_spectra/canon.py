"""Canonical forms and isomorphism tests.

For connected acyclic hypergraphs (supertrees) the bipartite
vertex/edge incidence graph is a tree, so a rooted-tree canonical code
(computed at the tree center) yields an exact canonical labeling in
linear time.  Non-acyclic hypergraphs fall back to exhaustive search
over relabelings restricted to degree classes, guarded by a size cap.

A canonical form is the relabeled edge list: a sorted tuple of sorted
vertex tuples.  Two hypergraphs are isomorphic iff their canonical forms
are equal.
"""

from __future__ import annotations

import itertools
import math

from .errors import TooLarge
from .hypergraph import Hypergraph, is_connected, validate

CanonicalForm = tuple[tuple[int, ...], ...]

_BRUTE_FORCE_CAP = 2_000_000  # permutations examined in the fallback


def canonical_form(g: Hypergraph) -> CanonicalForm:
    if g.m == 0:
        return ()
    if is_connected(g) and g.m * (g.k - 1) == g.n - 1:
        return _supertree_canonical(g)
    return _brute_force_canonical(g)


def is_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    if (a.k, a.n, a.m) != (b.k, b.n, b.m):
        return False
    if sorted(a.degrees) != sorted(b.degrees):
        return False
    return canonical_form(a) == canonical_form(b)


def relabel(g: Hypergraph, perm: dict[int, int]) -> Hypergraph:
    """Apply a vertex relabeling old -> new and re-sort edges."""
    edges = [[perm[v] for v in e] for e in g.edges]
    return validate(edges, g.n, k=g.k)


# -- supertree canonicalization via the bipartite incidence tree -------------

def _supertree_canonical(g: Hypergraph) -> CanonicalForm:
    # bipartite tree nodes: ('v', vertex) and ('e', edge id)
    adj: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for v in range(1, g.n + 1):
        adj[("v", v)] = [("e", j) for j in g.incident_edges(v)]
    for j, e in enumerate(g.edges):
        adj[("e", j)] = [("v", v) for v in e]

    centers = _tree_centers(adj)
    best = None
    for root in centers:
        labeling = _canonical_labeling(g, adj, root)
        form = _apply_labeling(g, labeling)
        if best is None or form < best:
            best = form
    assert best is not None
    return best


def _tree_centers(adj: dict) -> list:
    degree = {node: len(nbrs) for node, nbrs in adj.items()}
    leaves = [node for node, d in degree.items() if d <= 1]
    remaining = len(adj)
    while remaining > 2:
        remaining -= len(leaves)
        nxt = []
        for leaf in leaves:
            for nb in adj[leaf]:
                degree[nb] -= 1
                if degree[nb] == 1:
                    nxt.append(nb)
            degree[leaf] = 0
        leaves = nxt
    return leaves


def _canonical_labeling(g: Hypergraph, adj: dict, root) -> dict[int, int]:
    # rooted AHU codes: code(node) = (type, sorted child codes)
    code: dict = {}
    order: list = []  # post-order
    stack = [(root, None, False)]
    while stack:
        node, parent, processed = stack.pop()
        if processed:
            children = [nb for nb in adj[node] if nb != parent]
            tag = 0 if node[0] == "v" else 1
            code[node] = (tag, tuple(sorted(code[c] for c in children)))
            order.append(node)
            continue
        stack.append((node, parent, True))
        for nb in adj[node]:
            if nb != parent:
                stack.append((nb, node, False))

    # pre-order traversal with children sorted by code; assign vertex
    # labels in first-visit order (ties are automorphic, order immaterial)
    labeling: dict[int, int] = {}
    nxt = 1
    stack2 = [(root, None)]
    while stack2:
        node, parent = stack2.pop()
        if node[0] == "v":
            labeling[node[1]] = nxt
            nxt += 1
        children = sorted(
            (nb for nb in adj[node] if nb != parent),
            key=lambda c: code[c],
            reverse=True,  # stack pops smallest-code child first
        )
        for c in children:
            stack2.append((c, node))
    return labeling


def _apply_labeling(g: Hypergraph, labeling: dict[int, int]) -> CanonicalForm:
    return tuple(sorted(tuple(sorted(labeling[v] for v in e)) for e in g.edges))


# -- brute-force fallback ----------------------------------------------------

def _brute_force_canonical(g: Hypergraph) -> CanonicalForm:
    # permute only within degree classes; a canonical labeling must map
    # equal-degree vertices among themselves
    by_degree: dict[int, list[int]] = {}
    for v in range(1, g.n + 1):
        by_degree.setdefault(g.degree(v), []).append(v)
    classes = [by_degree[d] for d in sorted(by_degree)]
    count = math.prod(math.factorial(len(c)) for c in classes)
    if count > _BRUTE_FORCE_CAP:
        raise TooLarge(
            f"brute-force canonicalization would examine {count} relabelings"
        )
    # new labels for each class: consecutive ranges in degree order
    ranges = []
    start = 1
    for c in classes:
        ranges.append(list(range(start, start + len(c))))
        start += len(c)
    best: CanonicalForm | None = None
    for perms in itertools.product(
        *(itertools.permutations(rng) for rng in ranges)
    ):
        labeling = {}
        for cls, new_labels in zip(classes, perms):
            for old, new in zip(cls, new_labels):
                labeling[old] = new
        form = _apply_labeling(g, labeling)
        if best is None or form < best:
            best = form
    assert best is not None
    return best
