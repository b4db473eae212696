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
and converges quadratically, in
about ten steps where the power iteration needs thousands on long paths
and nearly degenerate shapes.  spectral_radii(kinds, graphs) runs the
iteration on a batch of graphs sharing (n, m, k) under a tuple of kinds,
one row per graph and kind, kind-major: each kind's rows form a block
(kind, start, stop), each graph is indexed and peeled once for all kinds,
and each step gathers x once for one tensor evaluation and one set of
Newton-Noda factors over all blocks; the elimination takes the factors
and knows no tensor.  It has two kernels with the same arithmetic in the
same order, each sum over an edge's children left to right, so they give
the same bits: numpy, one height of every row at a time, for wide
batches such as a census, and Python floats, edge by edge, for a
schedule whose heights hold at most NARROW_WIDTH edges on average, such
as a single path or graft-chain tree, where numpy's fixed cost per height
outweighs the few edges it holds.  The elimination order comes from a
leaf peel of the batch in O(m k) per graph whatever its height: numpy
rounds while a round peels more than NARROW_WIDTH edges, then a queue in
Python ints for the rest (_elimination_order).  A disconnected graph
raises Disconnected.  In a batch with m (k-1) = n-1 such a graph has a
cycle, which that leaf peel finds; any other batch is searched graph by
graph.
"""

from __future__ import annotations

import functools
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
    _linearize,
    _row_offset,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10**6
# A Collatz-Wielandt bracket encloses rho up to rounding: of the ratios that
# form it, and of each vertex's edge terms, summed one by one.  On
# hyperstars of up to 20000 edges, k = 3..5, the exact closed forms fall
# outside the computed brackets by up to 2.0e-13 relative (IncidenceQ at
# n = 80001, k = 5), so brackets count as apart, and a closed form as
# inside, only beyond this relative pad.
ROUNDING_PAD = 1e-12
# Far from rho a Newton-Noda step can widen the bracket; on 60 random tree
# powers per k = 2, 3, 4 of up to 79 edges, pure Newton-Noda steps needed up
# to 24 steps (q, k = 4), with up to 6 in a row without a narrower bracket.
# A row that takes this many is taken to be stuck at its rounding floor.
NEWTON_PATIENCE = 30
# Shifted power steps that every solve takes from the uniform vector before
# its first bracket.  They find the rough shape of the Perron vector: over
# the 144 solves of graft chains of 15 edges, 889 bracketed iterations (745
# of them Newton-Noda steps) follow them against 1047 from the uniform
# vector.  Three steps save a few more there, but loose_path(121, 3) then
# takes one more under IncidenceQ.
WARM_STEPS = 2
# A Newton-Noda step eliminates a schedule edge by edge in Python floats
# when its heights hold at most this many edges on average, and height by
# height in numpy otherwise.  A height costs numpy about 19 calls, some
# 25-30 us whatever its width, and an edge costs the Python loop about
# 1.6 us at k = 3, more at larger k.  Timing both kernels on steps of
# batches of loose paths (m = 20, widths 6 to 20; numpy 2.4, Python 3.11,
# one CPU of a shared host), the loop was as fast as numpy at about 18
# edges per height for k = 2, 16 for k = 3, 12 for k = 4, 10-12 for k = 5
# and 10 for k = 9; at 8 it is the faster kernel for every k measured.
# _elimination_order's leaf peel leaves numpy for a queue in Python ints at
# the first round that peels at most this many edges; see its docstring.
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
    if isinstance(tol, bool) or not isinstance(tol, Real) or not 0 < tol < math.inf:
        raise BadParameter(f"tol must be positive and finite, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, Integral) or max_iter < 1:
        raise BadParameter(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    if not (isinstance(kinds, tuple) and kinds and all(isinstance(kd, TensorKind) for kd in kinds)):
        raise BadParameter(f"kinds must be a non-empty tuple of TensorKind, got {kinds!r}")
    if not isinstance(graphs, Sequence):
        raise BadParameter(f"graphs must be a sequence of Hypergraph, got {type(graphs).__name__}")
    for g in graphs:
        _check_graph(g)
    count = len(graphs)
    if not graphs:
        return [[] for _ in kinds]
    if len({(g.n, g.m, g.k) for g in graphs}) > 1:
        raise DimensionMismatch("a batch of graphs must share (n, m, k)")
    n, m, k = graphs[0].n, graphs[0].m, graphs[0].k
    # with m (k-1) = n-1 a graph is a supertree, which Newton-Noda needs,
    # iff it is connected, and _elimination_order's leaf peeling decides it
    newton = m * (k - 1) == n - 1
    if not newton and not all(is_connected(g) for g in graphs):
        raise Disconnected("spectral_radius requires a connected hypergraph")
    # each graph is indexed and peeled once, for its rows under every kind
    idx = _edge_index(graphs)
    if newton:
        idx, height = _elimination_order(idx, n)
        height = np.tile(height, (len(kinds), 1))
    idx = np.tile(idx, (len(kinds), 1, 1))
    rows = len(idx)
    # (kind, start, stop): a row keeps its kind-major place as rows freeze,
    # so each kind's rows stay contiguous
    blocks = [(kd, i * count, (i + 1) * count) for i, kd in enumerate(kinds)]
    schedule = None  # built for the active rows when a Newton step needs it
    results: list[SpectralResult | None] = [None] * rows
    active = np.arange(rows)  # batch row -> its kind-major row
    on_newton = np.full(rows, newton)  # rows still taking Newton-Noda steps
    best = np.full(rows, np.inf)  # each row's narrowest bracket so far
    stalls = np.zeros(rows, dtype=np.intp)  # steps since it narrowed
    flat = _row_offset(idx, n)
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
            for r, at, res, a, b in zip(
                closed.tolist(), active[closed].tolist(), residual.tolist(), lo.tolist(),
                hi.tolist(),
            ):
                results[at] = SpectralResult(
                    eigvec=x[r].copy(), residual=res, iterations=it, lower=a, upper=b
                )
            if done.all():
                return [results[i : i + count] for i in range(0, rows, count)]
            keep = ~done
            active, x, xk1, ax, y = active[keep], x[keep], xk1[keep], ax[keep], y[keep]
            vals, lower, upper, width = vals[keep], lower[keep], upper[keep], width[keep]
            on_newton, best, stalls = on_newton[keep], best[keep], stalls[keep]
            stops = np.searchsorted(active, count * np.arange(1, len(kinds) + 1)).tolist()
            blocks = [(kd, s, e) for kd, s, e in zip(kinds, [0, *stops], stops) if e > s]
            flat, schedule = _row_offset(idx[active], n), None
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
                if schedule is None:
                    schedule = _schedule(flat, height[active])
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


def _elimination_order(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The order in which a Newton-Noda step eliminates a batch of
    supertrees, from their (B, m, k) 0-based edge index; Disconnected
    unless every row is a supertree.

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


def _schedule(flat: np.ndarray, height: np.ndarray) -> tuple:
    """Schedule of a Newton-Noda step on rows of _elimination_order's idx,
    row-offset (flat), and height: the (B m, k) edge index, each height's
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


def _newton_noda_step(
    schedule: tuple, x: np.ndarray, xk1: np.ndarray, ax: np.ndarray, factors: tuple, top: np.ndarray
) -> np.ndarray:
    """One Newton-Noda step from the positive rows of x, with xk1 = x^{[k-1]},
    ax = T x^{k-1} and the factors of M(x) = T x^{k-2} (tensors._linearize),
    before normalization; a row whose step fails is not finite and positive.

    The step is Noda's iteration on the degree-one map
    F(x) = (T x^{k-1})^{[1/(k-1)]} (Ng, Qi & Zhou, SIAM J. Matrix Anal.
    Appl. 2009), whose Jacobian is diag(q)^{-1} M with M = T x^{k-2} and
    q = ax^{[(k-2)/(k-1)]}.  schedule comes from _schedule, and top is each
    row's bracket top, mu = top^{1/(k-1)}.  Then Z = mu diag(q) - M has
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
                cs, t = ce * _sum_rows(r), _sum_rows(br)
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


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Each row's sum, left to right as _eliminate_edges adds: np.add.reduce
    adds a row of 8 or more entries pairwise."""
    return np.add.reduce(a, 1) if a.shape[1] < 8 else functools.reduce(np.add, a.T)


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
    kids = len(pivot) - rows
    cgs, ts = [], []
    try:
        for lo, p, ce in zip(range(0, kids, k - 1), parents, c):
            s = pivot[lo] = 1 / pivot[lo]
            t = b[lo] = b[lo] * s
            for i in range(lo + 1, lo + k - 1):
                r = pivot[i] = 1 / pivot[i]
                br = b[i] = b[i] * r
                s += r
                t += br
            cs = ce * s
            cg = ce / (1 - cs)
            pivot[p] -= cg * cs
            b[p] += cg * t
            cgs.append(cg)
            ts.append(t)
        for i in range(kids, len(pivot)):
            b[i] = b[i] / pivot[i]
    except ZeroDivisionError:
        return None
    backward = range(kids - k + 1, -1, 1 - k)
    for lo, p, cg, t in zip(backward, reversed(parents), reversed(cgs), reversed(ts)):
        tw = t + b[p]
        for i in range(lo, lo + k - 1):
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
