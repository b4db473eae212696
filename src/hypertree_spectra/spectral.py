"""Spectral radii via shifted higher-order power iteration, closed forms,
the bisection root solver, and degree / incidence-matrix bounds.

The H-eigenpair convention throughout is T x^{k-1} = lambda x^{[k-1]} with
x normalized so that sum_i x_i^k = 1.  For a connected hypergraph the
shifted iteration keeps the iterate strictly positive and brackets
rho + shift between min_i y_i / x_i^{k-1} and max_i y_i / x_i^{k-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimensions, BadPartition, Disconnected, NoConvergence, NotSquare
from .hypergraph import Hypergraph, incidence_matrix, is_connected
from .tensors import TensorKind, apply

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


def _knorm(x: np.ndarray, k: int) -> float:
    return float((x**k).sum() ** (1.0 / k))


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
    if not is_connected(g):
        raise Disconnected("spectral_radius requires a connected hypergraph")
    if tol <= 0:
        raise ValueError("tol must be positive")
    k = g.k
    x = np.full(g.n, g.n ** (-1.0 / k))
    lower = upper = float("nan")
    for it in range(1, max_iter + 1):
        ax = apply(kind, g, x)
        xk1 = x ** (k - 1)
        y = ax + shift * xk1
        ratios = y / xk1
        lower = float(ratios.min())
        upper = float(ratios.max())
        if upper - lower <= tol:
            rho = 0.5 * (lower + upper) - shift
            residual = float(np.max(np.abs(ax - rho * xk1)))
            return SpectralResult(
                rho=rho,
                eigvec=x,
                residual=residual,
                iterations=it,
                lower=lower - shift,
                upper=upper - shift,
            )
        x = y ** (1.0 / (k - 1))
        if x.min() < 1e-300:
            x = x / max(x.max(), 1e-300)
        x = x / _knorm(x, k)
    raise NoConvergence(
        f"no convergence after {max_iter} iterations "
        f"(bracket [{lower - shift}, {upper - shift}])",
        lower=lower - shift,
        upper=upper - shift,
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


def strict_margin(tol: float, scale: float) -> float:
    """Minimum numeric gap accepted as witnessing a strict inequality."""
    return max(100.0 * tol, 1e-8 * abs(scale))


def bounds_report(g: Hypergraph) -> BoundsReport:
    """Degree bounds k^{k-1} d <= rho(Q*) <= k^{k-1} Delta and the
    incidence-matrix sandwich rho(RR^T) < rho(Q*) < k^{k-2} rho(RR^T)."""
    if not is_connected(g):
        raise Disconnected("bounds_report requires a connected hypergraph")
    k = g.k
    d = k * g.m / g.n
    delta = max(g.degrees)
    r = incidence_matrix(g).to_dense()
    # R^T R (m x m) shares the nonzero spectrum of R R^T (n x n)
    gram = r.T @ r if g.m < g.n else r @ r.T
    rho_rrt = matrix_spectral_radius(gram)
    return BoundsReport(
        avg_degree=d,
        max_degree=delta,
        lower_deg=k ** (k - 1) * d,
        upper_deg=float(k ** (k - 1) * delta),
        rho_rrt=rho_rrt,
        sandwich_upper=k ** (k - 2) * rho_rrt,
    )


def orbit_constancy_check(
    g: Hypergraph,
    orbits: list[set[int]],
    result: SpectralResult,
    rel_tol: float = 1e-7,
) -> bool:
    """True iff eigvec components agree (relatively) within each orbit block."""
    covered: set[int] = set()
    for block in orbits:
        for v in block:
            if not (1 <= v <= g.n) or v in covered:
                raise BadPartition(f"vertex {v} repeated or out of range")
            covered.add(v)
    if len(covered) != g.n:
        raise BadPartition("orbit blocks do not cover every vertex")
    x = result.eigvec
    for block in orbits:
        vals = [x[v - 1] for v in block]
        lo, hi = min(vals), max(vals)
        if hi - lo > rel_tol * max(hi, 1e-300):
            return False
    return True
