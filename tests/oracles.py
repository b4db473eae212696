"""Independent oracles used only by the tests."""

import itertools
import math

import numpy as np

from hypertree_spectra import (
    EdgeMoveSpec,
    Hypergraph,
    TensorKind,
    apply,
    canonical_form,
    find_pendent_paths,
    is_connected,
    is_linear,
    move_edges,
    pendent_edges,
    total_graft,
    tree_power,
    validate,
)
from hypertree_spectra.canon import CanonicalForm, _center_peel
from hypertree_spectra.census import _supertree_shapes
from hypertree_spectra.errors import (
    BadDimensions,
    Disconnected,
    InvalidSpec,
    NotLinear,
    PendentEdge,
    TooLarge,
)
from hypertree_spectra.hypergraph import _reach
from hypertree_spectra.spectral import NARROW_WIDTH
from hypertree_spectra.tensors import _row_offset
from hypertree_spectra.transforms import GraftStep, edges_to_parents

_BRUTE_FORCE_CAP = 2_000_000  # permutations examined by brute_force_canonical
MAX_TREE_NODES = 10  # enumerate_trees' cap


def relabel(g, perm: dict[int, int]):
    """Apply a vertex relabeling old -> new and re-sort edges."""
    return validate([[perm[v] for v in e] for e in g.edges], g.n, k=g.k)


def parents_to_edges(parents) -> list[tuple[int, int]]:
    """Edge list of the tree whose node i+2 has parent parents[i]."""
    return [(p, i + 2) for i, p in enumerate(parents)]


def prufer_decode(seq, n_prime):
    """Standard Prüfer decoding: bijection with labeled trees on n' nodes."""
    degree = [1] * (n_prime + 1)
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(1, n_prime + 1) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [x for x in range(1, n_prime + 1) if degree[x] == 1]
    edges.append((u, v))
    return edges


def enumerate_trees(n_prime: int) -> list[list[int]]:
    """All free trees on n' nodes, one parent array per isomorphism class:
    the 2-uniform supertree census with n'-1 edges."""
    if not (2 <= n_prime <= MAX_TREE_NODES):
        raise TooLarge(f"enumerate_trees supports 2 <= n' <= {MAX_TREE_NODES}")
    return [edges_to_parents(g.edges, n_prime) for g in _supertree_shapes(n_prime - 1, 2)]


def is_supertree(g: Hypergraph) -> bool:
    """Connected and acyclic, via the edge-count criterion
    m*(k-1) == n-1 for the connected case; oracle for canon's leaf peel."""
    return is_connected(g) and g.m * (g.k - 1) == g.n - 1


def orbit_constancy_check(g, orbits: list[set[int]], result, rel_tol: float = 1e-7) -> bool:
    """True iff the eigvec components agree (relatively) within each orbit
    block; ValueError unless the blocks partition 1..n."""
    covered: set[int] = set()
    for block in orbits:
        for v in block:
            if not (1 <= v <= g.n) or v in covered:
                raise ValueError(f"vertex {v} repeated or out of range")
            covered.add(v)
    if len(covered) != g.n:
        raise ValueError("orbit blocks do not cover every vertex")
    x = result.eigvec
    for block in orbits:
        vals = [x[v - 1] for v in block]
        lo, hi = min(vals), max(vals)
        if hi - lo > rel_tol * max(hi, 1e-300):
            return False
    return True


def rayleigh(kind: TensorKind, g: Hypergraph, x) -> float:
    """x^T (T x^{k-1})."""
    return float(x @ apply(kind, g, x))


def is_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    """Isomorphism of two supertrees, by their canonical forms."""
    if (a.k, a.n, a.m) != (b.k, b.n, b.m):
        return False
    if sorted(a.degrees) != sorted(b.degrees):
        return False
    return canonical_form(a) == canonical_form(b)


def supertree_orbits(edges, n: int) -> list[int]:
    """orbit[v-1] is the smallest vertex that an automorphism of the
    supertree maps v to.  Automorphisms fix the center, so two nodes share
    an orbit iff their paths from the center carry equal codes, level by
    level.  The codes are nested tuples of the children's codes, sorted,
    built here from the peel's order and parents rather than taken from
    canon's bit strings.  NotATree unless the edges form a supertree."""
    order, parent, _ = _center_peel(edges, n)
    code: list = [[] for _ in order]  # children's codes until the node's turn
    for x in order:  # children before parents
        code[x] = tuple(sorted(code[x]))
        if parent[x] >= 0:
            code[parent[x]].append(code[x])
    key = [0] * len(order)  # key[x] numbers x's path from the center
    keys: dict[tuple, int] = {}
    for x in reversed(order[:-1]):  # parents before children
        key[x] = keys.setdefault((key[parent[x]], code[x]), len(keys) + 1)
    smallest: dict[int, int] = {}
    return [smallest.setdefault(key[v - 1], v) for v in range(1, n + 1)]


def automorphism_orbits(g) -> list[set[int]]:
    """Vertex orbits of the automorphism group of a supertree, in order of
    their smallest vertex; NotATree for any other hypergraph."""
    orbit = supertree_orbits(g.edges, g.n)
    return [{v for v, o in enumerate(orbit, 1) if o == rep} for rep in sorted(set(orbit))]


def grow_and_dedup(m: int, k: int) -> list[CanonicalForm]:
    """Reference census, sorted: grow a pendent edge at the smallest vertex
    of each orbit of each kept form, and keep the set of canonical forms.
    Every supertree with m >= 2 edges has a pendent edge whose removal
    leaves a smaller one, and automorphic vertices give isomorphic
    children, so this reaches every class."""
    level: set[CanonicalForm] = {(tuple(range(1, k + 1)),)}
    for size in range(1, m):
        n = size * (k - 1) + 1
        fresh = tuple(range(n + 1, n + k))
        level = {
            canonical_form(Hypergraph(k, n + k - 1, tuple(sorted(form + ((v, *fresh),)))))
            for form in level
            for v in set(supertree_orbits(form, n))
        }
    return sorted(level)


def brute_force_canonical(g: Hypergraph) -> CanonicalForm:
    """Canonical form of any hypergraph: the smallest relabeled edge list
    over every relabeling within degree classes.  TooLarge beyond
    _BRUTE_FORCE_CAP relabelings."""
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
        form = tuple(sorted(tuple(sorted(labeling[v] for v in e)) for e in g.edges))
        if best is None or form < best:
            best = form
    assert best is not None
    return best


def dense_power_iteration(dense, tol=1e-12, max_iter=200000, shift=1.0):
    """Shifted power iteration run directly on the materialized tensor;
    returns its Collatz-Wielandt bracket of rho, which any shift > 0 gives
    for a connected hypergraph."""
    k, n = dense.k, dense.n
    x = np.full(n, n ** (-1.0 / k))
    for _ in range(max_iter):
        y = dense.contract(x) + shift * x ** (k - 1)
        ratios = y / x ** (k - 1)
        if ratios.max() - ratios.min() <= tol:
            return ratios.min() - shift, ratios.max() - shift
        x = y ** (1.0 / (k - 1))
        x = x / (x**k).sum() ** (1.0 / k)
    raise AssertionError("dense oracle did not converge")


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


def brute_force_orbits(g) -> list[set[int]]:
    """Vertex orbits under every relabeling that maps the edge set onto
    itself, found by trying each permutation within degree classes, in
    order of their smallest vertex.  Only viable for tiny n."""
    by_degree: dict[int, list[int]] = {}
    for v in range(1, g.n + 1):
        by_degree.setdefault(g.degree(v), []).append(v)
    classes = list(by_degree.values())
    edges = set(g.edges)
    orbit = {v: {v} for v in range(1, g.n + 1)}
    for images in itertools.product(*(itertools.permutations(c) for c in classes)):
        sigma = {old: new for c, img in zip(classes, images) for old, new in zip(c, img)}
        if all(tuple(sorted(sigma[v] for v in e)) in edges for e in g.edges):
            for v in orbit:
                orbit[v].add(sigma[v])
    blocks = {min(o): o for o in orbit.values()}
    return [blocks[v] for v in sorted(blocks)]


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


def union_find_connected(g) -> bool:
    """Connectivity by union-find over each edge's vertices; oracle for
    the depth-first walk behind is_connected."""
    root = list(range(g.n + 1))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for e in g.edges:
        for v in e[1:]:
            root[find(v)] = find(e[0])
    return len({find(v) for v in range(1, g.n + 1)}) == 1


def edge_loop_apply(kind, g, x):
    """(T x^{k-1}) edge by edge and vertex by vertex in plain Python loops;
    reference for the vectorized kernel behind apply."""
    k = g.k
    out = [0.0] * g.n
    for e in g.edges:
        idx = [v - 1 for v in e]
        if kind is TensorKind.IncidenceQ:
            s = sum(x[i] for i in idx) ** (k - 1)
            for i in idx:
                out[i] += s
            continue
        for t in range(k):
            p = 1.0
            for u in range(k):
                if u != t:
                    p *= x[idx[u]]
            out[idx[t]] += p
    if kind is TensorKind.SignlessLaplacian:
        for i, d in enumerate(g.degrees):
            out[i] += d * x[i] ** (k - 1)
    return out


def elimination_order_by_queue(edges, n: int) -> tuple[list[list[int]], list[int]]:
    """Oracle for spectral._elimination_order on one graph, its edges given
    0-based: a queue peel in plain Python.  An edge joins the next round
    when a removal leaves it at most one vertex shared with another live
    edge; its height is its round, and its parent is that shared vertex at
    the start of the round, or its first vertex if it has none.  Returns
    the edges with the parent moved to position 0 (and the first vertex to
    the parent's place), and the heights.  Disconnected if a cycle is left."""
    degree = [0] * n
    incident: list[list[int]] = [[] for _ in range(n)]
    for j, e in enumerate(edges):
        for v in e:
            degree[v] += 1
            incident[v].append(j)
    shared = [sum(degree[v] > 1 for v in e) for e in edges]
    live = [True] * len(edges)
    height = [-1] * len(edges)
    order = [list(e) for e in edges]
    level = [j for j, s in enumerate(shared) if s <= 1]
    h = 0
    while level:
        for j in level:
            height[j], live[j] = h, False
            e = order[j]
            p = next((i for i, v in enumerate(e) if degree[v] > 1), 0)
            e[0], e[p] = e[p], e[0]
        following = []
        for j in level:
            for v in edges[j]:
                degree[v] -= 1
                if degree[v] == 1:  # v's one live edge, if any, shares one vertex fewer
                    for i in incident[v]:
                        if live[i]:
                            shared[i] -= 1
                            if shared[i] == 1:
                                following.append(i)
        level, h = following, h + 1
    if any(live):
        raise Disconnected("the edges contain a cycle")
    return order, height


def elimination_order_by_heights(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference for spectral._elimination_order, as it was before the
    peel built the schedule itself: the order in which a Newton-Noda step
    eliminates a batch of supertrees, from their (B, m, k) 0-based edge
    index; Disconnected unless every row is a supertree.

    Rounds of leaf peeling remove, in every row at once, each edge with at
    most one vertex in another remaining edge; an edge's height is its
    round.  Its parent is that shared vertex, or its first vertex when it is
    the last edge; the others are its children.  Every vertex but one root
    per row is a child of exactly one edge, and is the parent only of
    edges of smaller height.  Returns idx with each parent moved to
    position 0, and the (B, m) heights.

    The peel has two phases.  Numpy rounds cost O(B m k) each, one per
    height, so they alone would cost O(m k height) on a deep supertree:
    2.0 s on loose_path(20001, 3), whose 5000 rounds peel two edges each.
    While a round peels more than NARROW_WIDTH edges of the batch, as a
    census batch's first rounds and a star's one round do, it runs in
    numpy: one bincount of the live edges' vertices gives each vertex's
    degree, and so each edge's count of shared vertices.  The first round
    that peels NARROW_WIDTH edges or fewer hands the live edges, with those
    degrees and counts, to a queue in Python ints that touches each edge
    and incidence once, O(m k) in all (0.011 s on that path): removing an
    edge lowers its vertices' degrees, a vertex left in one live edge
    lowers that edge's count, and an edge whose count falls to 1 joins the
    next round.  Each vertex keeps the sum of its live edges' numbers,
    which names its one live edge once its degree is 1.  The hand-off
    reuses NARROW_WIDTH, at the measured crossover: on one tree whose
    rounds all peel w edges (legs of four edges), the two phases cost the
    same at about w = 8-12 for k = 2, 3 and 6-8 for k = 5, and on batches
    of loose paths, whose numpy rounds pay for every row, the queue was
    still the faster at w = 32.

    With m (k-1) = n-1 a row is a supertree iff it has no cycle.  The
    edges of a cycle never peel and acyclic rows empty first, so a round
    that finds no leaf, which always falls to the queue, means a cycle:
    the queue then ends with live edges left.
    """
    rows, m, k = idx.shape
    flat = _row_offset(idx, n)
    height = np.zeros((rows, m), dtype=np.intp)
    parent = np.zeros((rows, m), dtype=np.intp)
    live = np.ones((rows, m), dtype=bool)
    h = 0
    while live.any():
        deg = np.bincount(flat[live].ravel(), minlength=rows * n)[flat]
        leaf = live & ((deg > 1).sum(axis=2) <= 1)
        if np.count_nonzero(leaf) <= NARROW_WIDTH:
            break
        height[leaf] = h
        parent[leaf] = deg.argmax(axis=2)[leaf]
        live &= ~leaf
        h += 1
    if live.any():
        # the queue, on the live edges numbered j = 0, 1, ... in idx's order,
        # each vertex numbered by one of its slots in their incidences; a
        # vertex's sum of edge numbers is a float, exact below 2**53
        ids = np.flatnonzero(live)
        inc = flat.reshape(-1, k)[ids].ravel()
        slot = np.empty(rows * n, dtype=np.intp)
        slot[inc] = np.arange(len(inc))
        verts = slot[inc]
        deg = deg.reshape(-1, k)[ids]
        owner = np.bincount(verts, np.arange(len(ids)).repeat(k), len(inc)).astype(np.intp)
        degree, owner = deg.ravel().tolist(), owner.tolist()
        count, verts = (deg > 1).sum(axis=1).tolist(), verts.reshape(-1, k).tolist()
        level = [j for j, s in enumerate(count) if s <= 1]
        heights, places = [0] * len(ids), [0] * len(ids)
        left = len(ids)
        while level:
            left -= len(level)
            for j in level:
                heights[j] = h
                for i, v in enumerate(verts[j]):
                    if degree[v] > 1:
                        places[j] = i
                        break
            following = []
            for j in level:
                for v in verts[j]:
                    degree[v] -= 1
                    owner[v] -= j
                    if degree[v] == 1:  # v's one live edge shares one vertex fewer
                        i = owner[v]
                        count[i] -= 1
                        if count[i] == 1:
                            following.append(i)
            level, h = following, h + 1
        if left:
            raise Disconnected("spectral_radius requires a connected hypergraph")
        height.reshape(-1)[ids] = heights
        parent.reshape(-1)[ids] = places
    # move each edge's parent to position 0, and its first vertex to the
    # parent's place
    r, e = np.arange(rows)[:, None], np.arange(m)
    out = idx.copy()
    out[r, e, parent] = idx[..., 0]
    out[..., 0] = idx[r, e, parent]
    return out, height


def schedule_by_heights(flat: np.ndarray, height: np.ndarray) -> tuple:
    """Reference for the schedule spectral._elimination_order builds, by a
    stable argsort of the heights: the schedule of a Newton-Noda step on
    rows of elimination_order_by_heights' idx, row-offset (flat), and
    height: the (B m, k) edge index, each height's
    edges as a slice and its parents' places, the edges in height order,
    every edge's parent place as a list when the schedule is narrow (None
    otherwise), and the level-major permutation of the B n vertices.

    The permutation lists the children of the edges in height order, each
    edge's k-1 children together, then the B roots, so that each height's
    children are one contiguous (edges, k-1) run and every edge's parent,
    a child of a higher edge or a root, has its own place in it.  A
    schedule is narrow when its heights hold at most NARROW_WIDTH edges
    each on average; _newton_noda_step then eliminates it edge by edge."""
    rows, m, k = flat.shape
    verts = flat.reshape(-1, k)
    order = np.argsort(height.ravel(), kind="stable")
    perm = np.empty(rows * (m * (k - 1) + 1), dtype=np.intp)
    by_height = verts[order]
    perm[:-rows] = by_height[:, 1:].ravel()
    perm[-rows:] = verts[height.argmax(axis=1) + m * np.arange(rows), 0]
    place = np.empty_like(perm)
    place[perm] = np.arange(len(perm))
    parent = place[by_height[:, 0]]
    stops = np.cumsum(np.bincount(height.ravel())).tolist()
    levels = [(slice(s, e), parent[s:e]) for s, e in zip([0, *stops], stops)]
    narrow = parent.tolist() if len(order) <= NARROW_WIDTH * len(levels) else None
    return verts, levels, order, narrow, perm


def graft_to_path_by_rounds(parents) -> list[GraftStep]:
    """Oracle for transforms.graft_to_path: in rounds, walk the current
    tree from node 1, pick a vertex of degree >= 3 furthest from node 1
    (the smallest label on ties) and graft its two shortest pendent paths
    until it has degree 2."""
    g = tree_power(parents, 2)
    steps: list[GraftStep] = []
    while True:
        heavy = [u for u in range(1, g.n + 1) if g.degree(u) >= 3]
        if not heavy:
            return steps
        parent = _reach(g)

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


def release_by_scan(g: Hypergraph, edge_id: int, u: int) -> Hypergraph:
    """Oracle for transforms.edge_release: scan every other edge for one
    that meets edge e at a vertex v != u, and move them all to u in one
    spec."""
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
