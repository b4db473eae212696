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
power iterate positive, since the adjacency tensor has zero diagonal, and
makes it converge.  A Newton-Noda step (Liu, Guo & Lin, Numer. Math. 2017)
solves one linear system per row by eliminating along the supertree, each
edge's block a diagonal plus a rank-one term, in O(m k) time and memory,
and converges quadratically, in about ten steps where the power iteration
needs thousands on long paths and nearly degenerate shapes.  spectral_radii
runs the iteration on a batch of graphs sharing (n, m, k), one row per graph.
A disconnected graph raises Disconnected.  In a batch with m (k-1) = n-1
such a graph has a cycle, which the leaf peeling that orders the
elimination finds; any other batch is searched graph by graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensions,
    BadParameter,
    DimensionMismatch,
    Disconnected,
    NoConvergence,
    NotSquare,
)
from .hypergraph import Hypergraph, incidence_matrix, is_connected
from .tensors import TensorKind, _contract, _edge_index, _linearize, _row_offset

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10**6
# A Collatz-Wielandt bracket encloses rho up to rounding: of the ratios that
# form it, and of each vertex's edge terms, summed one by one.  On
# hyperstars of up to 20000 edges, k = 3..5, the exact closed forms fall
# outside the computed brackets by up to 2.0e-13 relative (IncidenceQ at
# n = 80001, k = 5), so brackets count as apart, and a closed form as
# inside, only beyond this relative pad.
ROUNDING_PAD = 1e-12
# Far from rho a Newton-Noda step can widen the bracket; on random trees
# of up to 79 edges, up to 9 steps ran without a narrower one.  A row that
# takes this many is taken to be stuck at its rounding floor.
NEWTON_PATIENCE = 30
ALPHA_STAR_TOL = 1e-13  # relative, for alpha_star's bisection


@dataclass(frozen=True)
class SpectralResult:
    rho: float
    eigvec: np.ndarray  # positive, sum of k-th powers == 1
    residual: float  # max-norm of apply(.) - rho * x^[k-1]
    iterations: int
    lower: float  # final min-ratio bracket
    upper: float  # final max-ratio bracket


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
    return _solve(kind, [g], tol, max_iter)[0]


def spectral_radii(
    kind: TensorKind,
    graphs: list[Hypergraph],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[SpectralResult]:
    """spectral_radius of every graph, iterated together as one batch.

    The graphs must share (n, m, k).  Each row runs exactly the iteration
    spectral_radius runs on it alone, and is frozen into its own result
    when its own bracket closes.
    """
    return _solve(kind, graphs, tol, max_iter)


def _solve(
    kind: TensorKind, graphs: list[Hypergraph], tol: float, max_iter: int
) -> list[SpectralResult]:
    if not tol > 0:
        raise BadParameter(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise BadParameter(f"max_iter must be at least 1, got {max_iter}")
    if not graphs:
        return []
    if len({(g.n, g.m, g.k) for g in graphs}) > 1:
        raise DimensionMismatch("a batch of graphs must share (n, m, k)")
    n, m, k = graphs[0].n, graphs[0].m, graphs[0].k
    # with m (k-1) = n-1 a graph is a supertree, which Newton-Noda needs,
    # iff it is connected, and _elimination_order's leaf peeling decides it
    newton = m * (k - 1) == n - 1
    if not newton and not all(is_connected(g) for g in graphs):
        raise Disconnected("spectral_radius requires a connected hypergraph")
    idx = _edge_index(graphs)
    idx, height = _elimination_order(idx, n) if newton else (idx, None)
    schedule = None  # built for the active rows when a Newton step needs it
    results: list[SpectralResult | None] = [None] * len(graphs)
    active = np.arange(len(graphs))  # batch row -> position in graphs
    on_newton = np.full(len(graphs), newton)  # rows still taking Newton-Noda steps
    best = np.full(len(graphs), np.inf)  # each row's narrowest bracket so far
    stalls = np.zeros(len(graphs), dtype=np.intp)  # steps since it narrowed
    flat = _row_offset(idx, n)
    x = np.full((len(active), n), n ** (-1.0 / k))
    for it in range(1, max_iter + 1):
        ax = _contract(kind, flat, x)
        xk1 = x ** (k - 1)
        y = ax + xk1
        ratios = y / xk1 - 1
        lower = ratios.min(axis=1)
        upper = ratios.max(axis=1)
        done = upper - lower <= tol
        if done.any():
            for r in np.flatnonzero(done):
                lo, hi = float(lower[r]), float(upper[r])
                rho = 0.5 * (lo + hi)
                results[active[r]] = SpectralResult(
                    rho=rho,
                    eigvec=x[r].copy(),
                    residual=float(np.max(np.abs(ax[r] - rho * xk1[r]))),
                    iterations=it,
                    lower=lo,
                    upper=hi,
                )
            if done.all():
                return results
            keep = ~done
            active, x, xk1, y = active[keep], x[keep], xk1[keep], y[keep]
            lower, upper = lower[keep], upper[keep]
            on_newton, best, stalls = on_newton[keep], best[keep], stalls[keep]
            flat, schedule = _row_offset(idx[active], n), None
        x_next = y ** (1.0 / (k - 1))
        tiny = x_next.min(axis=1) < 1e-300
        if tiny.any():
            x_next[tiny] /= np.maximum(x_next[tiny].max(axis=1, keepdims=True), 1e-300)
        if newton:
            # A row at its rounding floor (a bracket within ROUNDING_PAD that
            # stopped narrowing), a row that stalls for NEWTON_PATIENCE
            # steps, and a row whose step fails finish with power steps
            narrower = upper - lower < best
            best = np.where(narrower, upper - lower, best)
            stalls = np.where(narrower, 0, stalls + 1)
            floor = (stalls > 0) & (best <= ROUNDING_PAD * np.abs(upper))
            on_newton &= (stalls < NEWTON_PATIENCE) & ~floor
            if on_newton.any():
                # all active rows step on one schedule; rows on Newton take the step
                if schedule is None:
                    schedule = _schedule(idx[active], height[active], n)
                step = _newton_noda_step(kind, schedule, x, xk1, upper)
                on_newton &= (np.isfinite(step) & (step > 0)).all(axis=1)
                x_next[on_newton] = step[on_newton]
        x = x_next
        x /= ((x**k).sum(axis=1) ** (1.0 / k))[:, None]
    widest = int(np.argmax(upper - lower))
    lo, hi = float(lower[widest]), float(upper[widest])
    raise NoConvergence(
        f"no convergence after {max_iter} iterations for {len(active)} of "
        f"{len(graphs)} graphs (widest bracket [{lo}, {hi}])",
        lower=lo,
        upper=hi,
        iterations=max_iter,
    )


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

    With m (k-1) = n-1 a row is a supertree iff it has no cycle.  The
    edges of a cycle never peel and acyclic rows empty first, so a round
    that finds no leaf means a cycle.
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
        if not leaf.any():
            raise Disconnected("spectral_radius requires a connected hypergraph")
        height[leaf] = h
        parent[leaf] = deg.argmax(axis=2)[leaf]
        live &= ~leaf
        h += 1
    order = np.broadcast_to(np.arange(k), idx.shape).copy()
    np.put_along_axis(order, parent[..., None], 0, axis=2)
    order[..., 0] = parent
    return np.take_along_axis(idx, order, axis=2), height


def _schedule(idx: np.ndarray, height: np.ndarray, n: int) -> tuple:
    """Schedule of a Newton-Noda step on rows of _elimination_order's idx and
    height: the (B m, k) row-offset edge index, each height's (edge, parent,
    child) flat indices, lowest first, and every row's root vertex."""
    rows, m, k = idx.shape
    verts = _row_offset(idx, n).reshape(-1, k)
    order = np.argsort(height.ravel(), kind="stable")
    split = np.split(order, np.cumsum(np.bincount(height.ravel()))[:-1])
    root = verts[height.argmax(axis=1) + m * np.arange(rows), 0]
    return verts, [(e, verts[e, 0], verts[e, 1:]) for e in split], root


def _newton_noda_step(
    kind: TensorKind, schedule: tuple, x: np.ndarray, xk1: np.ndarray, top: np.ndarray
) -> np.ndarray:
    """One Newton-Noda step from the positive rows of x, before
    normalization; a row whose step fails is not finite and positive.

    schedule comes from _schedule, and top is each row's bracket top, so
    Z = top D - M, with D = diag(x^{[k-2]}) and M = T x^{k-2}, is a
    nonsingular M-matrix while the row's bracket is open, and
    w = Z^{-1} x^{[k-1]} > 0.  The step y = (k-2) x + t w,
    t = <x^{[k-1]}, x> / <x^{[k-1]}, w>, is Newton's on T x^{k-1} = lambda
    x^{[k-1]} with <x^{[k-1]}, x> held fixed; at k = 2 it is Noda's
    iteration.

    Off the diagonal, Z of a supertree is nonzero only inside the edges'
    blocks, -c u u^T there (_linearize), so eliminating each edge's children
    C onto its parent p, one height at a time, makes no fill.  Their block
    is diag(d) - c u u^T, d being their pivots plus c u^2; by
    Sherman-Morrison, with s = sum u^2/d, t = sum u b/d and g = 1/(1 - c s),
    p's pivot loses (c u_p)^2 s g, b_p gains c u_p t g, and
    w_C = b_C/d + c g (t + u_p w_p) u/d: O(m k) time and memory per row.
    The last pivot, at the root, carries the near-singularity; once the
    bracket top is within rounding of rho it may round to the wrong sign,
    which only flips the sign of w and leaves t w unchanged.
    """
    verts, levels, root = schedule
    k = verts.shape[1]
    c, u, diag = _linearize(kind, verts, x)
    pivot = (top[:, None] * x ** (k - 2)).ravel() - np.bincount(verts.ravel(), diag.ravel(), x.size)
    b = xk1.ravel().copy()
    folds = []
    with np.errstate(all="ignore"):
        for e, parent, child in levels:
            ce, up, uc, bc = c[e], u[e, 0], u[e, 1:], b[child]
            d = pivot[child] + ce[:, None] * uc**2
            ud = uc / d
            s, t = (uc * ud).sum(axis=1), (bc * ud).sum(axis=1)
            cg = ce / (1 - ce * s)
            np.subtract.at(pivot, parent, cg * ce * up**2 * s)
            np.add.at(b, parent, cg * up * t)
            folds.append((bc / d, cg[:, None] * ud, t, up))
        w = np.zeros(x.size)
        w[root] = b[root] / pivot[root]
        for (_, parent, child), (bd, cgud, t, up) in zip(reversed(levels), reversed(folds)):
            w[child] = bd + (t + up * w[parent])[:, None] * cgud
        w = w.reshape(x.shape)
        t = (xk1 * x).sum(axis=1) / (xk1 * w).sum(axis=1)
        return (k - 2) * x + t[:, None] * w


def matrix_spectral_radius(mat) -> float:
    """Largest eigenvalue of a symmetric matrix (here a Gram matrix)."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NotSquare(f"matrix has shape {mat.shape}")
    return float(np.linalg.eigvalsh(mat)[-1])


def alpha_star(m: int, k: int) -> float:
    """Largest real root of x^k - (m-1) x^{k-1} - m = 0, located in
    (m-1, m] and found by bisection to the relative tolerance ALPHA_STAR_TOL.

    f(m-1) = -m < 0 and f(m) = m^{k-1} - m >= 0, so [m-1, m] brackets it.
    The bisection also stops once the midpoint rounds to an endpoint.
    """
    if m < 1 or k < 2:
        raise BadDimensions(f"alpha_star needs m >= 1, k >= 2, got ({m}, {k})")

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
    if k < 2 or n < k or (n - 1) % (k - 1) != 0:
        raise BadDimensions(f"no hyperstar with n={n}, k={k}")
    m = (n - 1) // (k - 1)
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
    rho_rrt = matrix_spectral_radius(gram)
    return BoundsReport(
        avg_degree=d,
        max_degree=delta,
        lower_deg=k ** (k - 1) * d,
        upper_deg=float(k ** (k - 1) * delta),
        rho_rrt=rho_rrt,
        sandwich_upper=k ** (k - 2) * rho_rrt,
    )
