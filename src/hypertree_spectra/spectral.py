"""Spectral radii via Newton-Noda steps (any tensor of a supertree) or
shifted higher-order power iteration (any hypergraph that is not a
supertree), closed forms, the bisection root solver, and degree /
incidence-matrix bounds (the incidence sandwich is strict only for k >= 3;
see bounds_report).

The H-eigenpair convention throughout is T x^{k-1} = lambda x^{[k-1]} with
x normalized so that sum_i x_i^k = 1.  For a connected hypergraph both
iterations keep the iterate strictly positive, and each step brackets rho
between min_i y_i / x_i^{k-1} - 1 and max_i y_i / x_i^{k-1} - 1, with
y = T x^{k-1} + x^{[k-1]} (Collatz-Wielandt); the shift by 1 keeps the
power iterate y^{[1/(k-1)]} positive, since the adjacency tensor has zero
diagonal, and makes it converge.  Every solve starts from WARM_STEPS power
steps on the uniform vector, which bracket nothing and count as no
iteration; the bracket holds for any positive x.  A Newton-Noda step
(Liu, Guo & Lin, Numer. Math. 2017), taken on the degree-one map
(T x^{k-1})^{[1/(k-1)]} (Ng, Qi & Zhou, SIAM J. Matrix Anal. Appl. 2009),
solves one linear system per row by eliminating along the supertree, each
edge's block scaled to a diagonal plus c 11^T, in O(m k) time and memory,
and converges quadratically.  spectral_radii(kinds, graphs) runs the
iteration on a batch of graphs sharing (n, m, k) under a tuple of kinds,
one row per graph and kind, kind-major: each kind's rows form a block
(kind, start, stop), each graph is indexed and peeled once for all kinds,
and each step gathers x once for one tensor evaluation and one set of
Newton-Noda factors over all blocks; the elimination takes the factors
and knows no tensor.  Its core, _solve, takes the batch's edge index and
freezes each row as plain values as it closes; spectral_radii makes each a
SpectralResult, and the census each graph's record.  It has two kernels
with the same arithmetic in the same order, each sum over an edge's
children left to right, so they give the same bits: numpy, one height of
every row at a time, for wide batches such as a census, and Python
floats, edge by edge, for a schedule whose heights hold at most
NARROW_WIDTH edges on average, such as a single path or graft-chain
tree.  The schedule comes from a leaf peel of the batch in O(m k) per
graph whatever its height, which emits the edges height by height and
builds the schedule in one pass, once per batch (_elimination_order);
when rows close, a stable filter takes the kept rows' schedule from it
(_kept_rows).  A disconnected graph raises Disconnected.  In a batch with
m (k-1) = n-1 such a graph has a cycle, which that leaf peel finds; any
other batch is searched graph by graph.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import (
    BadDimensions,
    BadParameter,
    DimensionMismatch,
    Disconnected,
    NoConvergence,
)
from .families import _supertree_edges
from .hypergraph import Hypergraph, _is_integer, incidence_matrix, is_connected
from .tensors import (
    TensorKind,
    _check_graph,
    _check_kind,
    _contract,
    _edge_index,
    _fold,
    _linearize,
    _row_offset,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10**6
# A Collatz-Wielandt bracket encloses rho up to rounding: of the ratios that
# form it, and of each vertex's edge terms, summed one by one.  So brackets
# count as apart, and a closed form as inside, only beyond this relative
# pad, above the offsets measured on large stars (README's solver notes).
ROUNDING_PAD = 1e-12
# Far from rho a Newton-Noda step can widen the bracket, for a few steps in a
# row (README's solver notes); a row whose bracket has not narrowed for this
# many steps is taken to be stuck at its rounding floor.
NEWTON_PATIENCE = 30
# Shifted power steps that every solve takes from the uniform vector before
# its first bracket, to find the rough shape of the Perron vector; README's
# solver notes give the step counts that chose two.
WARM_STEPS = 2
# A Newton-Noda step eliminates a schedule edge by edge in Python floats
# when its heights hold at most this many edges on average, and height by
# height in numpy otherwise, whose fixed cost per height outweighs a few
# edges; below the measured crossover for every k (README's solver notes).
# _elimination_order's leaf peel leaves numpy for a queue in Python ints at
# the first round that peels at most this many edges, near the crossover
# of its two phases.
NARROW_WIDTH = 8
ALPHA_STAR_TOL = 1e-13  # relative, for alpha_star's bisection


@dataclass(frozen=True)
class SpectralResult:
    eigvec: np.ndarray  # positive, sum of k-th powers == 1
    residual: float  # max-norm of apply(.) - rho * x^[k-1]
    iterations: int  # bracketed steps, after the WARM_STEPS warm-up steps
    lower: float  # final min-ratio bracket
    upper: float  # final max-ratio bracket

    @property
    def rho(self) -> float:
        """The bracket's midpoint."""
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class BoundsReport:
    avg_degree: float
    max_degree: int
    lower_deg: float  # k^{k-1} * d
    upper_deg: float  # k^{k-1} * Delta
    rho_rrt: float  # rho(R R^T)
    sandwich_upper: float  # k^{k-2} * rho(R R^T)


def spectral_radius(
    kind: TensorKind,
    g: Hypergraph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralResult:
    """Perron root with min/max ratio brackets: Newton-Noda steps on a
    supertree, shifted power iteration otherwise.

    Near the rounding floor a Newton-Noda step can fail or stop shrinking
    the bracket, and the solve then finishes with power steps.
    """
    _check_kind(kind)
    return spectral_radii((kind,), [g], tol, max_iter)[0][0]


def spectral_radii(
    kinds: tuple[TensorKind, ...],
    graphs: list[Hypergraph],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[list[SpectralResult]]:
    """spectral_radius of every graph under every kind of the non-empty
    tuple kinds, in one batch of kind-major rows: row r is graph r % B
    under kinds[r // B].  Returns one result list per kind, in the order of
    graphs, which must share (n, m, k).  Each row runs exactly the
    iteration spectral_radius runs on it alone, and is frozen into its own
    result when its own bracket closes.

    Every row starts from WARM_STEPS shifted power steps on the uniform
    vector, by the power step of the loop.  Only the bracketed steps after
    them count: as a result's iterations, and against max_iter.

    An iteration in which every open row narrowed its bracket skips the
    stall and floor bookkeeping, which would reset every stall count and
    find no row at its floor, and one in which every row took a finite,
    positive Newton-Noda step skips the power step, which would have no
    row to step."""
    _check_budget(tol, max_iter)
    if not (isinstance(kinds, tuple) and kinds and all(isinstance(kd, TensorKind) for kd in kinds)):
        raise BadParameter(f"kinds must be a non-empty tuple of TensorKind, got {kinds!r}")
    if not isinstance(graphs, Sequence):
        raise BadParameter(f"graphs must be a sequence of Hypergraph, got {type(graphs).__name__}")
    for g in graphs:
        _check_graph(g)
    if not graphs:
        return [[] for _ in kinds]
    if len({(g.n, g.m, g.k) for g in graphs}) > 1:
        raise DimensionMismatch("a batch of graphs must share (n, m, k)")
    n, m, k = graphs[0].n, graphs[0].m, graphs[0].k
    # with m (k-1) = n-1 a graph is a supertree, which Newton-Noda needs,
    # iff it is connected, and _elimination_order's leaf peeling decides it
    if m * (k - 1) != n - 1 and not all(is_connected(g) for g in graphs):
        raise Disconnected("spectral_radius requires a connected hypergraph")
    return [
        [SpectralResult(v.copy(), res, it, lo, hi) for v, res, it, lo, hi in rows]
        for rows in _solve(kinds, _edge_index(graphs), n, tol, max_iter)
    ]


def _check_budget(tol, max_iter) -> None:
    if isinstance(tol, bool) or not isinstance(tol, Real) or not 0 < tol < math.inf:
        raise BadParameter(f"tol must be positive and finite, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, Integral) or max_iter < 1:
        raise BadParameter(f"max_iter must be an integer of at least 1, got {max_iter!r}")


def _solve(kinds: tuple, idx: np.ndarray, n: int, tol: float, max_iter: int) -> list[list[tuple]]:
    """spectral_radii's iteration on the connected graphs with the (B, m, k)
    0-based edge index idx, after checking tol and max_iter alone: one list
    per kind of each graph's row, frozen when its bracket closes as the
    plain values (eigvec, residual, iterations, lower, upper), the eigvec a
    row of one array shared by the rows that closed with it."""
    _check_budget(tol, max_iter)
    count, m, k = idx.shape
    newton = m * (k - 1) == n - 1
    # each graph is indexed and peeled once, for its rows under every kind;
    # the schedule of the active rows is filtered from it as rows close
    if newton:
        flat, schedule = _elimination_order(idx, n, len(kinds))
    else:
        flat, schedule = _row_offset(np.tile(idx, (len(kinds), 1, 1)), n), None
    rows = len(flat)
    # (kind, start, stop): a row keeps its kind-major place as rows freeze,
    # so each kind's rows stay contiguous
    blocks = [(kd, i * count, (i + 1) * count) for i, kd in enumerate(kinds)]
    results: list[tuple | None] = [None] * rows
    active = np.arange(rows)  # batch row -> its kind-major row
    on_newton = np.full(rows, newton)  # rows still taking Newton-Noda steps
    best = np.full(rows, np.inf)  # each row's narrowest bracket so far
    stalls = np.zeros(rows, dtype=np.intp)  # steps since it narrowed
    x = np.full((rows, n), n ** (-1.0 / k))
    for _ in range(WARM_STEPS):
        y = _contract(blocks, flat, x.ravel()[flat], n) + x ** (k - 1)
        x = _normalized(_power_step(y, k), k)
    for it in range(1, max_iter + 1):
        vals = x.ravel()[flat]
        ax = _contract(blocks, flat, vals, n)
        xk1 = x ** (k - 1)
        y = ax + xk1
        ratios = y / xk1 - 1
        lower = ratios.min(axis=1)
        upper = ratios.max(axis=1)
        width = upper - lower
        done = width <= tol
        if done.any():
            closed = np.flatnonzero(done)
            lo, hi = lower[closed], upper[closed]
            rho = 0.5 * (lo + hi)
            residual = np.abs(ax[closed] - rho[:, None] * xk1[closed]).max(axis=1)
            for at, v, res, a, b in zip(
                active[closed].tolist(), x[closed], residual.tolist(), lo.tolist(), hi.tolist()
            ):
                results[at] = v, res, it, a, b
            if done.all():
                return [results[i : i + count] for i in range(0, rows, count)]
            keep = ~done
            active, x, xk1, ax, y = active[keep], x[keep], xk1[keep], ax[keep], y[keep]
            vals, lower, upper, width = vals[keep], lower[keep], upper[keep], width[keep]
            on_newton, best, stalls = on_newton[keep], best[keep], stalls[keep]
            stops = np.searchsorted(active, count * np.arange(1, len(kinds) + 1)).tolist()
            blocks = [(kd, s, e) for kd, s, e in zip(kinds, [0, *stops], stops) if e > s]
            flat = _row_offset(flat[keep] % n, n)
            schedule = _kept_rows(schedule, keep, flat, n) if newton else None
        x_next, power = y, slice(None)  # power: the rows that take a power step
        if newton:
            # A row at its rounding floor (a bracket within ROUNDING_PAD that
            # stopped narrowing), a row that stalls for NEWTON_PATIENCE
            # steps, and a row whose step fails finish with power steps
            narrower = width < best
            if narrower.all():  # no row stalls, and none is at its floor
                best = width
                stalls.fill(0)
                on_newton &= NEWTON_PATIENCE > 0
            else:
                best = np.where(narrower, width, best)
                stalls = np.where(narrower, 0, stalls + 1)
                floor = (stalls > 0) & (best <= ROUNDING_PAD * np.abs(upper))
                on_newton &= (stalls < NEWTON_PATIENCE) & ~floor
            if on_newton.any():
                # all active rows step on one schedule; rows on Newton take the step
                step = _newton_noda_step(schedule, x, xk1, ax, _linearize(blocks, x, vals), upper)
                on_newton &= (np.isfinite(step) & (step > 0)).all(axis=1)
                if on_newton.all():
                    x_next, power = step, None
                elif on_newton.any():
                    x_next, power = step, ~on_newton
        # the other rows, and rows whose step failed, take a power step
        if power is not None:
            x_next[power] = _power_step(y[power], k)
        x = _normalized(x_next, k)
    widest = int(np.argmax(width))
    lo, hi = float(lower[widest]), float(upper[widest])
    raise NoConvergence(
        f"no convergence after {max_iter} iterations for {len(active)} of {rows} rows "
        f"(widest bracket [{lo}, {hi}], {kinds[active[widest] // count].name})",
        lower=lo,
        upper=hi,
        iterations=max_iter,
    )


def _power_step(y: np.ndarray, k: int) -> np.ndarray:
    """The shifted power step y^{[1/(k-1)]} from y = T x^{k-1} + x^{[k-1]},
    before normalization; a row with an entry below 1e-300 is divided by
    its largest entry."""
    root = y ** (1.0 / (k - 1))
    tiny = root.min(axis=1) < 1e-300
    if tiny.any():
        root[tiny] /= np.maximum(root[tiny].max(axis=1, keepdims=True), 1e-300)
    return root


def _normalized(x: np.ndarray, k: int) -> np.ndarray:
    """x, each row divided in place so that its k-th powers sum to 1."""
    x /= ((x**k).sum(axis=1) ** (1.0 / k))[:, None]
    return x


def _elimination_order(idx: np.ndarray, n: int, copies: int = 1) -> tuple[np.ndarray, tuple]:
    """The parent-first index and the Newton-Noda schedule of copies blocks
    of the batch of supertrees with the (B, m, k) 0-based edge index idx,
    peeled once for all blocks; Disconnected unless every row is a
    supertree.

    Rounds of leaf peeling remove, in every row at once, each edge with at
    most one vertex in another remaining edge; an edge's height is its
    round.  Its parent is that shared vertex, or its first vertex when it is
    the last edge; the others are its children.  Every vertex but one root
    per row is a child of exactly one edge, and is the parent only of
    edges of smaller height.  The index is idx repeated copies times, each
    parent moved to position 0, row-offset: (copies B, m, k).

    The schedule (verts, levels, order, narrow, perm) holds the index as
    (copies B m, k) rows; the edges in height order, block by block within
    a height and row-major within a block; each height as a slice of order
    with its parents' places in perm; those places as a list when the
    heights hold at most NARROW_WIDTH edges on average, for
    _newton_noda_step's edge-by-edge kernel (None otherwise); and perm,
    the children of the edges in height order, each edge's k-1 together,
    then the roots in row order, so that each height's children are one
    contiguous run and every edge's parent has its own place.

    The peel emits the edges height by height, each height once per block,
    so the schedule is built in one pass over that order, with no sort.
    While a round peels more than NARROW_WIDTH edges of the batch it runs
    in numpy: one bincount of the live edges' vertices gives each vertex's
    degree, and so each edge's count of shared vertices.  The first round
    that peels NARROW_WIDTH edges or fewer hands the live edges, with those
    degrees and counts, to a queue in Python ints (_peel_queue) that
    touches each edge and incidence once, so the peel costs O(m k) per
    graph whatever its height.  With m (k-1) = n-1 a row is a supertree
    iff it has no cycle.  The edges of a cycle never peel and acyclic rows
    empty first, so a round that finds no leaf, which always falls to the
    queue, means a cycle: the queue then ends with live edges left.
    """
    rows, m, k = idx.shape
    width = rows * m  # edges in one block
    shifts = [width * c for c in range(copies)]  # each block's first edge
    flat = inc = _row_offset(idx, n).reshape(-1, k)  # inc: the live edges' vertices
    ids, parent = np.arange(width), np.zeros(width, dtype=np.intp)  # live edges; parent places
    # every block's edges by height, and where each height ends
    order, stops = np.empty(copies * width, dtype=np.intp), [0]
    while True:
        deg = np.bincount(inc.ravel(), minlength=rows * n)[inc]
        many = deg > 1
        shared = many @ np.full(k, 1)  # a matrix product sums short rows fastest
        leaf = shared <= 1
        if np.count_nonzero(leaf) <= NARROW_WIDTH:
            break
        peeled, ids, inc = ids[leaf], ids[~leaf], np.compress(~leaf, inc, axis=0)
        parent[peeled] = many[leaf] @ np.arange(k)  # a leaf's one shared vertex, or 0
        stops.append(stops[-1] + len(peeled) * copies)
        order[stops[-2] : stops[-1]] = np.add.outer(shifts, peeled).ravel()
    parent[ids] = _peel_queue(inc, deg, shared, ids, shifts, order, stops, rows * n)
    # move each edge's parent to position 0, and its first vertex to the
    # parent's place, and repeat the index once per block
    edge = np.arange(width)
    flat[:, 0], flat[edge, parent] = flat[edge, parent], flat[:, 0].copy()
    verts = (flat + np.arange(0, copies * rows * n, rows * n)[:, None, None]).reshape(-1, k)
    # the children in height order, then each row's root, its one vertex
    # that is no child, in row order
    perm, kids = np.empty(copies * rows * n, dtype=np.intp), len(order) * (k - 1)
    perm[:kids] = verts[order, 1:].ravel()
    perm[kids:] = np.flatnonzero(np.bincount(perm[:kids], minlength=len(perm)) == 0)
    return verts.reshape(copies * rows, m, k), _schedule(verts, order, perm, stops)


def _peel_queue(inc, deg, shared, ids, shifts, order, stops, vertices) -> list:
    """_elimination_order's queue on the live edges ids, with their
    vertices inc, those vertices' degrees deg and each edge's count of
    shared vertices: every live edge's parent place.  Fills the rest of
    order with the live edges by height, each height once per block
    shift, and appends the end of each height to stops; Disconnected if
    edges are left.  Removing an edge lowers its vertices' degrees, a
    vertex left in one live edge lowers that edge's count, and an edge
    whose count falls to 1 joins the next height.  Each vertex keeps the
    sum of its live edges' numbers, which names its one live edge once
    its degree is 1.  Its lists, O(m k) Python objects, die on return,
    before the schedule is built."""
    # the live edges numbered j = 0, 1, ... in idx's order, each vertex
    # numbered by one of its slots in their incidences; a vertex's sum of
    # edge numbers is a float, exact below 2**53
    slot = np.empty(vertices, dtype=np.intp)
    slot[inc.ravel()] = np.arange(inc.size)
    verts = slot[inc]
    owner = np.bincount(verts.ravel(), np.arange(len(ids)).repeat(inc.shape[1]), inc.size)
    degree, owner, count = deg.ravel().tolist(), owner.astype(np.intp).tolist(), shared.tolist()
    verts, edges, start = verts.tolist(), ids.tolist(), stops[-1]
    level, places, queued = [j for j, s in enumerate(count) if s <= 1], [0] * len(edges), []
    while level:
        level.sort()
        for j in level:
            for i, v in enumerate(verts[j]):
                if degree[v] > 1:
                    places[j] = i
                    break
        following = []
        for j in level:
            for v in verts[j]:
                degree[v] = d = degree[v] - 1
                owner[v] -= j
                if d == 1:  # v's one live edge shares one vertex fewer
                    i = owner[v]
                    count[i] -= 1
                    if count[i] == 1:
                        following.append(i)
        for s in shifts:
            for j in level:
                queued.append(edges[j] + s)
        stops.append(start + len(queued))
        level = following
    if len(queued) < len(shifts) * len(edges):
        raise Disconnected("spectral_radius requires a connected hypergraph")
    order[start:] = queued
    return places


def _schedule(verts: np.ndarray, order: np.ndarray, perm: np.ndarray, stops: list) -> tuple:
    """The schedule (verts, levels, order, narrow, perm) from its parts and
    the bounds 0, ..., E of the heights in order; an edge's parent place is
    that of its first vertex in perm."""
    place = np.empty_like(perm)
    place[perm] = np.arange(len(perm))
    parent = place[verts[:, 0][order]]
    levels = [(e, parent[e]) for e in map(slice, stops, stops[1:])]
    narrow = parent.tolist() if len(order) <= NARROW_WIDTH * len(levels) else None
    return verts, levels, order, narrow, perm


def _kept_rows(schedule: tuple, keep: np.ndarray, flat: np.ndarray, n: int) -> tuple:
    """The schedule of the rows where keep is true, with flat their index
    row-offset as rows 0, 1, ...: a stable filter of schedule, == the one
    _elimination_order builds for those rows alone."""
    _, levels, order, _, perm = schedule
    m, row = flat.shape[1], order // flat.shape[1]
    gone = np.arange(1, len(keep) + 1) - np.cumsum(keep)  # rows dropped up to each row
    stops = [0, *np.cumsum(keep[row])[[e.stop - 1 for e, _ in levels]].tolist()]
    order = (order - m * gone[row])[keep[row]]
    perm = (perm - n * gone[perm // n])[keep[perm // n]]
    return _schedule(flat.reshape(-1, flat.shape[2]), order, perm, stops[: stops.index(stops[-1]) + 1])


def _newton_noda_step(
    schedule: tuple, x: np.ndarray, xk1: np.ndarray, ax: np.ndarray, factors: tuple, top: np.ndarray
) -> np.ndarray:
    """One Newton-Noda step from the positive rows of x, with xk1 = x^{[k-1]},
    ax = T x^{k-1} and the factors of M(x) = T x^{k-2} (tensors._linearize),
    before normalization; a row whose step fails is not finite and positive.

    The step is Noda's iteration on the degree-one map
    F(x) = (T x^{k-1})^{[1/(k-1)]} (Ng, Qi & Zhou, SIAM J. Matrix Anal.
    Appl. 2009), whose Jacobian is diag(q)^{-1} M with M = T x^{k-2} and
    q = ax^{[(k-2)/(k-1)]}.  schedule comes from _elimination_order or
    _kept_rows, and top is each row's bracket top, mu = top^{1/(k-1)}.
    Then Z = mu diag(q) - M has
    Z x = ax ((top / r)^{1/(k-1)} - 1) >= 0, r the Collatz-Wielandt
    ratios, so it is a nonsingular M-matrix while the row's bracket is
    open, and w = Z^{-1} (q x) > 0.  The step is t w with
    t = <x^{[k-1]}, x> / <x^{[k-1]}, w>; at k = 2 it is Noda's iteration
    on the matrix.  Newton's method on T x^{k-1} itself, of degree k-1,
    shrinks a component that is too large only by (k-2)/(k-1) per step.

    Off the diagonal, Z of a supertree is nonzero only inside the edges'
    blocks, so S Z S, S = diag(sigma), is -c there (_linearize); the step
    solves S Z S w' = S q x, w = S w', eliminating each edge's children C
    onto its parent p, leaves first, with no fill.  C's block is
    diag(d) - c 11^T, d their pivots plus c (held from the start); by
    Sherman-Morrison, with r = 1/d, s = sum r, t = sum b r, cg = c/(1 - c s),
    p's pivot loses cg c s, b_p gains cg t, and w_C = b_C r + (t + w_p) cg r.
    The pivots, b and c are gathered once into the schedule's level-major
    order, where each height is a slice of (edges, k-1) children, and w is
    scattered back once.  In between, a narrow schedule is eliminated edge
    by edge in Python floats (_eliminate_edges), any other height by
    height in numpy, every edge of a height in one slice.  Both kernels
    take the same operations in the same order, each sum over C left to
    right, so the step is the same to the bit whichever runs.  The last
    pivot, at the root, carries the near-singularity; once the bracket top
    is within rounding of rho it may round to the wrong sign, which only
    flips the sign of w and leaves t w unchanged.
    """
    verts, levels, order, narrow, perm = schedule
    c, diag, sigma = factors
    rows, k = len(x), verts.shape[1]
    q, mu = ax ** ((k - 2) / (k - 1)), top ** (1.0 / (k - 1))
    pivot = (mu[:, None] * q).ravel() - np.bincount(verts.ravel(), diag.ravel(), x.size)
    pivot *= (sigma**2).ravel()
    pivot, b, c = pivot[perm], (q * x * sigma).ravel()[perm], c.ravel()[order]
    # each child's (edges, k-1) place, a view of the level-major pivots
    kids = pivot[:-rows].reshape(-1, k - 1)
    kids += c[:, None]
    w = None if narrow is None else _eliminate_edges(
        narrow, pivot.tolist(), b.tolist(), c.tolist(), rows, k
    )
    with np.errstate(all="ignore"):
        if w is None:  # the numpy kernel
            b_kids = b[:-rows].reshape(-1, k - 1)
            folds = []
            for e, parent in levels:
                ce, r = c[e], 1 / kids[e]
                br = b_kids[e] * r
                cs, t = ce * _fold(np.add, r), _fold(np.add, br)
                cg = ce / (1 - cs)
                np.subtract.at(pivot, parent, cg * cs)
                np.add.at(b, parent, cg * t)
                folds.append((br, cg[:, None] * r, t))
            w = np.empty(x.size)
            w[-rows:] = b[-rows:] / pivot[-rows:]
            w_kids = w[:-rows].reshape(-1, k - 1)
            for (e, parent), (br, cgr, t) in zip(reversed(levels), reversed(folds)):
                w_kids[e] = br + (t + w[parent])[:, None] * cgr
        step = np.empty(x.size)
        step[perm] = w
        w = step.reshape(x.shape) * sigma
        t = (xk1 * x).sum(axis=1) / (xk1 * w).sum(axis=1)
        return t[:, None] * w


def _eliminate_edges(
    parents: list, pivot: list, b: list, c: list, rows: int, k: int
) -> list | None:
    """The level-major solution w of _newton_noda_step's scaled system,
    eliminated edge by edge in Python floats, from the level-major pivots
    and b, the edges' c in height order and each edge's parent place (the
    schedule's narrow list); None if a division by zero stops it, where
    numpy gives inf or nan.

    Works in place: once its edge is folded, a child's pivot is replaced by
    r and its b by b r, and back-substitution turns b into w."""
    kids, edges, w = len(pivot) - rows, len(c), k - 1
    cgs, ts = [0.0] * edges, [0.0] * edges
    try:
        for j in range(edges):
            lo = j * w
            s = pivot[lo] = 1 / pivot[lo]
            t = b[lo] = b[lo] * s
            for i in range(lo + 1, lo + w):
                r = pivot[i] = 1 / pivot[i]
                br = b[i] = b[i] * r
                s += r
                t += br
            ce, p = c[j], parents[j]
            cs = ce * s
            cgs[j] = cg = ce / (1 - cs)
            pivot[p] -= cg * cs
            b[p] += cg * t
            ts[j] = t
        for i in range(kids, len(pivot)):
            b[i] = b[i] / pivot[i]
    except ZeroDivisionError:
        return None
    for j in range(edges - 1, -1, -1):
        lo, cg = j * w, cgs[j]
        tw = ts[j] + b[parents[j]]
        for i in range(lo, lo + w):
            b[i] += tw * (cg * pivot[i])
    return b


def alpha_star(m: int, k: int) -> float:
    """Largest real root of x^k - (m-1) x^{k-1} - m = 0, located in
    (m-1, m] and found by bisection to the relative tolerance ALPHA_STAR_TOL.

    f(m-1) = -m < 0 and f(m) = m^{k-1} - m >= 0, so [m-1, m] brackets it.
    The bisection also stops once the midpoint rounds to an endpoint.
    """
    if not (_is_integer(m) and _is_integer(k)) or m < 1 or k < 2:
        raise BadDimensions(f"alpha_star needs integers m >= 1, k >= 2, got ({m!r}, {k!r})")

    def f(x: float) -> float:
        return x**k - (m - 1) * x ** (k - 1) - m

    lo, hi = float(m - 1), float(m)
    while hi - lo > ALPHA_STAR_TOL * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def closed_form_hyperstar(kind: TensorKind, n: int, k: int) -> float:
    """Exact spectral radius of the hyperstar on n vertices."""
    m = _supertree_edges(n, k, "hyperstar")
    _check_kind(kind)
    if kind is TensorKind.Adjacency:
        return m ** (1.0 / k)
    if kind is TensorKind.SignlessLaplacian:
        return 1.0 + alpha_star(m, k)
    return (m ** (1.0 / (k - 1)) + k - 1) ** (k - 1)


def bounds_report(g: Hypergraph) -> BoundsReport:
    """Degree bounds k^{k-1} d <= rho(Q*) <= k^{k-1} Delta and the
    incidence-matrix sandwich rho(RR^T) <= rho(Q*) <= k^{k-2} rho(RR^T).

    For k >= 3 the lower comparison is strict, and so is the upper one
    unless g is regular, where the uniform Perron vector attains it.  At
    k = 2, Q* is the matrix RR^T, so both comparisons are equalities.
    """
    if not is_connected(g):
        raise Disconnected("bounds_report requires a connected hypergraph")
    k = g.k
    d = k * g.m / g.n
    delta = max(g.degrees)
    r = incidence_matrix(g)
    # R^T R (m x m) shares the nonzero spectrum of R R^T (n x n), if m > 0
    gram = r.T @ r if 0 < g.m < g.n else r @ r.T
    rho_rrt = float(np.linalg.eigvalsh(gram)[-1])
    return BoundsReport(
        avg_degree=d,
        max_degree=delta,
        lower_deg=k ** (k - 1) * d,
        upper_deg=float(k ** (k - 1) * delta),
        rho_rrt=rho_rrt,
        sandwich_upper=k ** (k - 2) * rho_rrt,
    )
