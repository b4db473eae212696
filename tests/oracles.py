"""Independent oracles used only by the tests."""

import itertools

from hypertree_spectra import canonical_form, is_linear, is_supertree, validate
from hypertree_spectra.canon import CanonicalForm
from hypertree_spectra.errors import BadDimensions


def tree_canonical_code(edges, n_prime):
    """Canonical form of a free tree given as an edge list on 1..n'."""
    return canonical_form(validate(edges, n_prime, k=2))


def brute_force_supertrees(n: int, k: int) -> list[CanonicalForm]:
    """Completeness oracle: filter all m-subsets of all possible k-edges on
    n labeled vertices down to supertrees, then deduplicate by canonical
    form.  Only viable for tiny n.
    """
    if (n - 1) % (k - 1) != 0:
        raise BadDimensions(f"no supertree with n={n}, k={k}")
    m = (n - 1) // (k - 1)
    all_edges = list(itertools.combinations(range(1, n + 1), k))
    forms: set[CanonicalForm] = set()
    for subset in itertools.combinations(all_edges, m):
        g = validate([list(e) for e in subset], n, k=k)
        if is_supertree(g) and is_linear(g):
            forms.add(canonical_form(g))
    return sorted(forms)


def has_berge_cycle(g) -> bool:
    """Direct cycle search on the bipartite incidence graph.

    A Berge cycle (distinct vertices, distinct edges, alternating
    incidences) exists iff the bipartite vertex/edge incidence graph
    contains a cycle.  Oracle for the counting criterion of is_supertree.
    """
    # nodes: ('v', i) and ('e', j); DFS with parent tracking
    visited: set[tuple[str, int]] = set()
    for start_v in range(1, g.n + 1):
        node = ("v", start_v)
        if node in visited:
            continue
        stack: list[tuple[tuple[str, int], tuple[str, int] | None]] = [(node, None)]
        visited.add(node)
        while stack:
            cur, parent = stack.pop()
            kind, idx = cur
            if kind == "v":
                neighbors = [("e", j) for j in g.incident_edges(idx)]
            else:
                neighbors = [("v", v) for v in g.edges[idx]]
            for nb in neighbors:
                if nb == parent:
                    continue
                if nb in visited:
                    return True
                visited.add(nb)
                stack.append((nb, cur))
    return False
