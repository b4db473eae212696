"""Edge-based application of the three spectral tensors and a dense
materialized oracle for small instances.

All three operators act on a k-uniform hypergraph G:

* Adjacency: entry 1/(k-1)! on every permutation of every edge tuple.
* SignlessLaplacian: adjacency plus the diagonal degree tensor.
* IncidenceQ: entry at (i_1, ..., i_k) counts edges containing all of
  i_1, ..., i_k.

apply() gathers x over the (m, k) edge index array and scatters the edge
terms back with one bincount (O(m*k) arithmetic), never materializing the
n^k tensor.  The solver gathers x once per step for a batch of graphs
sharing (n, m, k), and both kernels take the batch's blocks (kind, start,
stop) of rows: _contract scatters every block's edge terms with one
bincount, and _linearize writes each block's slice of the O(m*k) factors
of T x^{k-2}, each edge's k x k block scaled to a diagonal plus c_e 11^T.
Both fold an edge's k entries by columns (_fold), with the bits of
numpy's cumprod and prod and not their cost per edge; every sum along an
edge or over an edge's children goes left to right too, at every k.
dense_build() materializes the tensor, as an oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadParameter, DimensionMismatch, TooLarge
from .hypergraph import Hypergraph

DEFAULT_DENSE_CAP = 10**7


class TensorKind(Enum):
    Adjacency = "adj"
    SignlessLaplacian = "q"
    IncidenceQ = "qstar"


def _check_kind(kind) -> None:
    if not isinstance(kind, TensorKind):
        raise BadParameter(f"kind must be a TensorKind, got {kind!r}")


def _check_graph(g) -> None:
    if not isinstance(g, Hypergraph):
        raise BadParameter(f"expected a Hypergraph, got {type(g).__name__}")


@dataclass(frozen=True)
class DenseTensor:
    k: int
    n: int
    values: np.ndarray  # shape (n,) * k, symmetric, nonnegative

    def contract(self, x: np.ndarray) -> np.ndarray:
        """(T x^{k-1})_i by repeated contraction over the last axis."""
        y = self.values
        for _ in range(self.k - 1):
            y = y @ x
        return y


def _check_vector(g: Hypergraph, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise DimensionMismatch(f"vector has shape {x.shape}, expected ({g.n},)")
    return x


def _edge_index(graphs) -> np.ndarray:
    """(B, m, k) array of the 0-based vertices of each edge of each graph;
    the graphs must share (m, k)."""
    m, k = graphs[0].m, graphs[0].k
    vertices = itertools.chain.from_iterable(itertools.chain.from_iterable(g.edges for g in graphs))
    return np.fromiter(vertices, np.intp, len(graphs) * m * k).reshape(len(graphs), m, k) - 1


def _row_offset(idx: np.ndarray, n: int) -> np.ndarray:
    """idx shifted by n per row, so that it indexes a flattened (B, n) array."""
    return idx + n * np.arange(len(idx))[:, None, None]


def _contract(blocks: list, flat: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """(T x^{k-1}) for every row of x (B, n) at once, each block (kind,
    start, stop) of rows under its own kind.

    flat is the (B, m, k) row-offset index array of the batch and vals is
    x gathered over it.  Each vertex of an edge receives the product of the
    other k-1 entries (prefix times suffix products, so zeros in x are
    safe), plus for SignlessLaplacian its own entry to the k-1 (the degree
    tensor is the sum over edges e and v in e of e_v^{(x)k}), or for
    IncidenceQ the edge sum raised to k-1; one bincount adds the
    contributions of all rows up per vertex.
    """
    rows, _, k = vals.shape
    part = np.empty_like(vals)
    for kind, s, e in blocks:
        v, p = vals[s:e], part[s:e]
        if kind is TensorKind.IncidenceQ:
            p[...] = _fold(np.add, v)[..., None] ** (k - 1)
        else:
            p[..., 1] = v[..., 0]
            for j in range(2, k):
                np.multiply(p[..., j - 1], v[..., j - 1], out=p[..., j])
            suffix = v[..., k - 1]
            for j in range(k - 2, 0, -1):
                p[..., j] *= suffix
                suffix = suffix * v[..., j]
            p[..., 0] = suffix
        if kind is TensorKind.SignlessLaplacian:
            p += v ** (k - 1)
    # float even when flat is empty (an edgeless graph), where bincount gives int
    out = np.bincount(flat.ravel(), weights=part.ravel(), minlength=rows * n)
    return out.astype(float, copy=False).reshape(rows, n)


def _linearize(blocks: list, x: np.ndarray, vals: np.ndarray) -> tuple:
    """c, diag and sigma, the factors of the edge blocks of M(x) = T x^{k-2}
    (so M(x) x = T x^{k-1}) for every row of x (B, n) > 0, each block
    (kind, start, stop) of rows under its own kind, from vals, x gathered
    over the (B, m, k) row-offset edge index: c is (B, m), diag is
    (B, m, k) and sigma is (B, n).

    Block [a, b] of edge e adds c_e / (sigma_a sigma_b) to M[e_a, e_b] off
    the diagonal and diag_a on it, so with S = diag(sigma) every off-diagonal
    entry of S M S in the block is c_e.  For IncidenceQ, sigma = 1 and every
    entry is c_e, the edge sum to the power k-2.  Otherwise an entry off the
    diagonal is the product of the other k-2 entries over k-1, so sigma = x
    and c_e is the edge product over k-1; diag_a is 0 for Adjacency and
    x_a^{k-2} for SignlessLaplacian.
    """
    k = vals.shape[2]
    c, diag, sigma = np.empty(vals.shape[:2]), np.empty_like(vals), x.copy()
    for kind, s, e in blocks:
        v = vals[s:e]
        if kind is TensorKind.IncidenceQ:
            c[s:e] = _fold(np.add, v) ** (k - 2)
            diag[s:e] = c[s:e, :, None]
            sigma[s:e] = 1.0
        else:
            np.divide(_fold(np.multiply, v), k - 1, out=c[s:e])
            diag[s:e] = v ** (k - 2) if kind is TensorKind.SignlessLaplacian else 0.0
    return c, diag, sigma


def _fold(op, a: np.ndarray) -> np.ndarray:
    """The ufunc op folded over the last axis of a, left to right, one
    elementwise operation per column (a[..., 0] itself for one column):
    numpy's reductions pay a fixed cost for every row of a short axis, and
    its sum adds 8 or more entries pairwise.  Every sum along an edge or
    over an edge's children is this fold, at every k."""
    out = op(a[..., 0], a[..., 1]) if a.shape[-1] > 1 else a[..., 0]
    for j in range(2, a.shape[-1]):
        op(out, a[..., j], out=out)
    return out


def apply(kind: TensorKind, g: Hypergraph, x) -> np.ndarray:
    """(T x^{k-1}) for the selected tensor, computed from the edge list."""
    _check_kind(kind)
    _check_graph(g)
    x = _check_vector(g, x)
    # a batch of one needs no row offset
    flat = _edge_index([g])
    return _contract([(kind, 0, 1)], flat, x[flat], g.n)[0]


def dense_build(kind: TensorKind, g: Hypergraph) -> DenseTensor:
    """Dense symmetric tensor, n^k <= DEFAULT_DENSE_CAP; oracle for apply()."""
    _check_kind(kind)
    _check_graph(g)
    n, k = g.n, g.k
    if n**k > DEFAULT_DENSE_CAP:
        raise TooLarge(f"n^k = {n**k} exceeds cap {DEFAULT_DENSE_CAP}")
    t = np.zeros((n,) * k)
    if kind is TensorKind.IncidenceQ:
        for e in g.edges:
            idx = [v - 1 for v in e]
            for tup in itertools.product(idx, repeat=k):
                t[tup] += 1.0
        return DenseTensor(k=k, n=n, values=t)
    w = 1.0 / math.factorial(k - 1)
    for e in g.edges:
        idx = [v - 1 for v in e]
        for tup in itertools.permutations(idx):
            t[tup] = w
    if kind is TensorKind.SignlessLaplacian:
        for i, d in enumerate(g.degrees):
            t[(i,) * k] += float(d)
    return DenseTensor(k=k, n=n, values=t)
