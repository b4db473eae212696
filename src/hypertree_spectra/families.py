"""Constructors for the named hypergraph families.

All constructors label vertices deterministically in ascending order so
that repeated calls are byte-for-byte identical.
"""

from __future__ import annotations

from typing import Sequence

from .errors import BadDimensions, BadOverlap, NotATree
from .hypergraph import Hypergraph, _is_integer, is_connected, validate


def _supertree_edges(n: int, k: int, what: str) -> int:
    """m = (n-1)/(k-1), the number of edges of every k-uniform supertree on
    n vertices; BadDimensions, naming what was asked for, unless one exists."""
    if not (_is_integer(n) and _is_integer(k)) or k < 2 or n < k or (n - 1) % (k - 1) != 0:
        raise BadDimensions(f"no {what} with n={n!r}, k={k!r}")
    return (n - 1) // (k - 1)


def hyperstar(n: int, k: int) -> Hypergraph:
    """All edges through center vertex 1; leaves partitioned in ascending
    (k-1)-blocks."""
    m = _supertree_edges(n, k, "hyperstar")
    edges = []
    v = 2
    for _ in range(m):
        edges.append([1] + list(range(v, v + k - 1)))
        v += k - 1
    return validate(edges, n, k=k)


def loose_path(n: int, k: int) -> Hypergraph:
    """Consecutive edges share exactly one vertex: the 1-path."""
    return s_path(_supertree_edges(n, k, "loose path"), 1, k)


def double_star(a: int, b: int, k: int) -> Hypergraph:
    """k-th power of the ordinary double star S(a, b): a bridge edge whose
    end vertices carry a and b pendent edges."""
    if not all(map(_is_integer, (a, b, k))) or a < 0 or b < 0 or k < 2:
        raise BadDimensions(
            f"double_star needs integers a, b >= 0 and k >= 2, got ({a!r}, {b!r}, {k!r})"
        )
    return tree_power([1] * (a + 1) + [2] * b, k)


def tree_power(parents: Sequence[int], k: int) -> Hypergraph:
    """k-th power of an ordinary tree given as a parent array.

    ``parents[i]`` is the parent of node i+2 (the array covers nodes
    2..n', the tree being rooted at node 1).  Each ordinary edge becomes a
    k-edge padded with k-2 fresh degree-one vertices, numbered from n'+1
    in edge order.
    """
    if not _is_integer(k) or k < 2:
        raise BadDimensions(f"tree_power needs an integer k >= 2, got {k!r}")
    n_prime = len(parents) + 1
    if n_prime < 2:
        raise NotATree("tree must have at least 2 nodes")
    for i, p in enumerate(parents):
        # a 2-cycle is the one way to repeat an edge at k=2
        if not (_is_integer(p) and 1 <= p <= n_prime) or p == i + 2 or (
            p > 1 and parents[p - 2] == i + 2
        ):
            raise NotATree(f"bad parent {p} for node {i + 2}")
    edges = []
    for i, p in enumerate(parents):
        pad = n_prime + 1 + i * (k - 2)
        edges.append([p, i + 2, *range(pad, pad + k - 2)])
    g = validate(edges, n_prime + len(parents) * (k - 2), k=k)
    # with n'-1 edges, connected means acyclic
    if not is_connected(g):
        raise NotATree("parent array contains a cycle or unreachable node")
    return g


def s_path(m: int, s: int, k: int) -> Hypergraph:
    """k-uniform path whose consecutive edges overlap in exactly s vertices."""
    _check_overlap("s_path", m, s, k, 1)
    n = k + (m - 1) * (k - s)
    edges = []
    for i in range(m):
        start = i * (k - s) + 1
        edges.append(list(range(start, start + k)))
    return validate(edges, n, k=k)


def s_cycle(m: int, s: int, k: int) -> Hypergraph:
    """k-uniform cycle whose consecutive edges (cyclically) overlap in
    exactly s vertices."""
    _check_overlap("s_cycle", m, s, k, 3)
    n = m * (k - s)
    edges = []
    for i in range(m):
        start = i * (k - s)
        edges.append([(start + t) % n + 1 for t in range(k)])
    return validate(edges, n, k=k)


def _check_overlap(what: str, m: int, s: int, k: int, least: int) -> None:
    """BadOverlap unless m, s and k are integers, 1 <= s <= k/2 and m >= least."""
    if not all(map(_is_integer, (m, s, k))):
        raise BadOverlap(f"{what} needs integers m, s, k, got ({m!r}, {s!r}, {k!r})")
    if not (1 <= s <= k // 2):
        raise BadOverlap(f"need 1 <= s <= k/2, got s={s}, k={k}")
    if m < least:
        raise BadOverlap(f"{what} needs m >= {least}, got {m}")


def single_edge(k: int) -> Hypergraph:
    if not _is_integer(k) or k < 2:
        raise BadDimensions(f"single_edge needs an integer k >= 2, got {k!r}")
    return validate([list(range(1, k + 1))], k, k=k)
