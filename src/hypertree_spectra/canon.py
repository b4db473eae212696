"""Canonical forms and isomorphism tests.

For connected acyclic hypergraphs (supertrees) the bipartite
vertex/edge incidence graph is a tree, so a rooted-tree canonical code
(computed at the tree center) yields an exact canonical labeling, and
the same pass yields the vertex automorphism orbits.  Non-acyclic
hypergraphs fall back to exhaustive search over relabelings restricted
to degree classes, guarded by a size cap.

A canonical form is the relabeled edge list: a sorted tuple of sorted
vertex tuples.  Two hypergraphs are isomorphic iff their canonical forms
are equal.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .errors import NotATree, TooLarge
from .hypergraph import Hypergraph, is_supertree

CanonicalForm = tuple[tuple[int, ...], ...]

_BRUTE_FORCE_CAP = 2_000_000  # permutations examined in the fallback


def canonical_form(g: Hypergraph) -> CanonicalForm:
    if g.m == 0:
        return ()
    if is_supertree(g):
        return _supertree_canonical(g.edges, g.n)[0]
    return _brute_force_canonical(g)


def is_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    if (a.k, a.n, a.m) != (b.k, b.n, b.m):
        return False
    if sorted(a.degrees) != sorted(b.degrees):
        return False
    return canonical_form(a) == canonical_form(b)


# -- supertree canonicalization via the bipartite incidence tree -------------

def automorphism_orbits(g: Hypergraph) -> list[set[int]]:
    """Vertex orbits of the automorphism group of a supertree, in order of
    their smallest vertex."""
    if not is_supertree(g):
        raise NotATree("automorphism orbits are computed for supertrees only")
    orbit = _supertree_canonical(g.edges, g.n)[1]
    return [{v for v, o in enumerate(orbit, 1) if o == rep} for rep in sorted(set(orbit))]


def _supertree_canonical(edges: Sequence[Sequence[int]], n: int) -> tuple[CanonicalForm, list[int]]:
    """Canonical form of the supertree on vertices 1..n with these edges,
    and its vertex orbits: orbit[v-1] is the smallest vertex that an
    automorphism maps v to.  Incidence-tree nodes are ints: vertex v is
    v-1, edge j is n+j."""
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
    return _apply_labeling(edges, label), orbit


def _apply_labeling(edges: Sequence[Sequence[int]], label) -> CanonicalForm:
    """The edge list with each vertex v renamed label[v], sorted."""
    return tuple(sorted(tuple(sorted(label[v] for v in e)) for e in edges))


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
        form = _apply_labeling(g.edges, labeling)
        if best is None or form < best:
            best = form
    assert best is not None
    return best
