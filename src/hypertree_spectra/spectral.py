"""Spectral radii via shifted higher-order power iteration, closed forms,
the bisection root solver, and degree / incidence-matrix bounds (the
incidence sandwich is strict only for k >= 3; see bounds_report).

The H-eigenpair convention throughout is T x^{k-1} = lambda x^{[k-1]} with
x normalized so that sum_i x_i^k = 1.  For a connected hypergraph the
shifted iteration keeps the iterate strictly positive and brackets
rho + shift between min_i y_i / x_i^{k-1} and max_i y_i / x_i^{k-1}.
spectral_radii runs that iteration on a batch of graphs sharing (n, m, k),
one row per graph.
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
from .tensors import TensorKind, _contract, _degrees, _edge_index, _row_offset

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10**6


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
    shift: float = 1.0,
) -> SpectralResult:
    """Shifted higher-order power iteration with min/max ratio brackets.

    The shift keeps the iterate positive (the adjacency tensor has zero
    diagonal) and makes the iteration convergent for connected inputs.
    """
    return _solve(kind, [g], tol, max_iter, shift)[0]


def spectral_radii(
    kind: TensorKind,
    graphs: list[Hypergraph],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[SpectralResult]:
    """spectral_radius of every graph, iterated together as one batch.

    The graphs must share (n, m, k).  Each row runs exactly the iteration
    spectral_radius runs on it alone with the default shift 1, and is
    frozen into its own result when its own bracket closes.
    """
    return _solve(kind, graphs, tol, max_iter, 1.0)


def _solve(
    kind: TensorKind, graphs: list[Hypergraph], tol: float, max_iter: int, shift: float
) -> list[SpectralResult]:
    if not tol > 0:
        raise BadParameter(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise BadParameter(f"max_iter must be at least 1, got {max_iter}")
    if not graphs:
        return []
    if len({(g.n, g.m, g.k) for g in graphs}) > 1:
        raise DimensionMismatch("a batch of graphs must share (n, m, k)")
    if not all(is_connected(g) for g in graphs):
        raise Disconnected("spectral_radius requires a connected hypergraph")
    n, k = graphs[0].n, graphs[0].k
    idx = _edge_index(graphs)
    results: list[SpectralResult | None] = [None] * len(graphs)
    active = np.arange(len(graphs))  # batch row -> position in graphs
    flat = _row_offset(idx, n)
    deg = _degrees(flat, len(active), n)
    x = np.full((len(active), n), n ** (-1.0 / k))
    for it in range(1, max_iter + 1):
        ax = _contract(kind, flat, x, deg)
        xk1 = x ** (k - 1)
        y = ax + shift * xk1
        ratios = y / xk1
        lower = ratios.min(axis=1)
        upper = ratios.max(axis=1)
        done = upper - lower <= tol
        if done.any():
            for r in np.flatnonzero(done):
                lo, hi = float(lower[r]), float(upper[r])
                rho = 0.5 * (lo + hi) - shift
                results[active[r]] = SpectralResult(
                    rho=rho,
                    eigvec=x[r].copy(),
                    residual=float(np.max(np.abs(ax[r] - rho * xk1[r]))),
                    iterations=it,
                    lower=lo - shift,
                    upper=hi - shift,
                )
            if done.all():
                return results
            keep = ~done
            active, y, deg = active[keep], y[keep], deg[keep]
            flat = _row_offset(idx[active], n)
        x = y ** (1.0 / (k - 1))
        tiny = x.min(axis=1) < 1e-300
        if tiny.any():
            x[tiny] /= np.maximum(x[tiny].max(axis=1, keepdims=True), 1e-300)
        x /= ((x**k).sum(axis=1) ** (1.0 / k))[:, None]
    keep = ~done
    widest = int(np.argmax(np.where(keep, upper - lower, -np.inf)))
    lo, hi = float(lower[widest]) - shift, float(upper[widest]) - shift
    raise NoConvergence(
        f"no convergence after {max_iter} iterations for {int(keep.sum())} of "
        f"{len(graphs)} graphs (widest bracket [{lo}, {hi}])",
        lower=lo,
        upper=hi,
        iterations=max_iter,
    )


def matrix_spectral_radius(mat) -> float:
    """Largest eigenvalue of a symmetric matrix (here a Gram matrix)."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NotSquare(f"matrix has shape {mat.shape}")
    return float(np.linalg.eigvalsh(mat)[-1])


def alpha_star(m: int, k: int, tol: float = 1e-13) -> float:
    """Largest real root of x^k - (m-1) x^{k-1} - m = 0, located in
    (m-1, m] and found by bisection to the relative tolerance tol.

    f(m-1) = -m < 0 and f(m) = m^{k-1} - m >= 0, so [m-1, m] brackets it.
    The bisection also stops once the midpoint rounds to an endpoint.
    """
    if m < 1 or k < 2:
        raise BadDimensions(f"alpha_star needs m >= 1, k >= 2, got ({m}, {k})")

    def f(x: float) -> float:
        return x**k - (m - 1) * x ** (k - 1) - m

    lo, hi = float(m - 1), float(m)
    while hi - lo > tol * hi:
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
