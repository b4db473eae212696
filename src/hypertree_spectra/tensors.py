"""Edge-based application of the three spectral tensors and a dense
materialized oracle for small instances.

All three operators act on a k-uniform hypergraph G:

* Adjacency: entry 1/(k-1)! on every permutation of every edge tuple.
* SignlessLaplacian: adjacency plus the diagonal degree tensor.
* IncidenceQ: entry at (i_1, ..., i_k) counts edges containing all of
  i_1, ..., i_k.

apply() gathers x over the (m, k) edge index array and scatters the edge
terms back with one bincount (O(m*k) arithmetic), never materializing the
n^k tensor; the solver runs the same kernel on a batch of graphs that
share (n, m, k), and gives the Newton-Noda solver's matrices T x^{k-2}
as O(m*k) factors, each edge's k x k block being a diagonal plus a
rank-one term.  dense_build() materializes the tensor, as an oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, TooLarge
from .hypergraph import Hypergraph

DEFAULT_DENSE_CAP = 10**7


class TensorKind(Enum):
    Adjacency = "adj"
    SignlessLaplacian = "q"
    IncidenceQ = "qstar"


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
    return np.array([g.edges for g in graphs], dtype=np.intp).reshape(len(graphs), m, k) - 1


def _row_offset(idx: np.ndarray, n: int) -> np.ndarray:
    """idx shifted by n per row, so that it indexes a flattened (B, n) array."""
    return idx + n * np.arange(len(idx))[:, None, None]


def _contract(kind: TensorKind, flat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(T x^{k-1}) for every row of x (B, n) at once.

    flat is the (B, m, k) row-offset index array of the batch.  Each vertex
    of an edge receives the product of the other k-1 entries (prefix times
    suffix products, so zeros in x are safe), plus for SignlessLaplacian
    its own entry to the k-1 (the degree tensor is the sum over edges e and
    v in e of e_v^{(x)k}), or for IncidenceQ the edge sum raised to k-1;
    one bincount adds the contributions up per vertex.
    """
    rows, n = x.shape
    k = flat.shape[2]
    vals = x.ravel()[flat]
    if kind is TensorKind.IncidenceQ:
        part = np.repeat(vals.sum(axis=2, keepdims=True) ** (k - 1), k, axis=2)
    else:
        prefix = np.cumprod(vals, axis=2)
        suffix = np.cumprod(vals[..., ::-1], axis=2)[..., ::-1]
        part = np.ones_like(vals)
        part[..., 1:] = prefix[..., :-1]
        part[..., :-1] *= suffix[..., 1:]
        if kind is TensorKind.SignlessLaplacian:
            part += vals ** (k - 1)
    # float even when flat is empty (an edgeless graph), where bincount gives int
    out = np.bincount(flat.ravel(), weights=part.ravel(), minlength=rows * n)
    return out.astype(float, copy=False).reshape(rows, n)


def _linearize(kind: TensorKind, flat: np.ndarray, x: np.ndarray) -> tuple:
    """c and u and diag, the factors of the edge blocks of M(x) = T x^{k-2}
    (so M(x) x = T x^{k-1}) for every row of x (B, n) > 0, from the (..., k)
    row-offset edge index flat: c has its shape (...), u and diag its own.

    Block [a, b] of edge e adds c_e u_a u_b to M[e_a, e_b] off the diagonal
    and diag_a on it.  For IncidenceQ, u = 1 and every entry is c_e, the
    edge sum to the power k-2.  Otherwise an off-diagonal entry is the
    product of the other k-2 entries over k-1, so u = 1/x and c_e is the
    edge product over k-1; diag_a is 0 for Adjacency and x_a^{k-2} for
    SignlessLaplacian.
    """
    k = flat.shape[-1]
    vals = x.ravel()[flat]
    if kind is TensorKind.IncidenceQ:
        c = vals.sum(axis=-1) ** (k - 2)
        return c, np.ones_like(vals), np.repeat(c[..., None], k, axis=-1)
    diag = vals ** (k - 2) if kind is TensorKind.SignlessLaplacian else np.zeros_like(vals)
    return vals.prod(axis=-1) / (k - 1), 1.0 / vals, diag


def apply(kind: TensorKind, g: Hypergraph, x) -> np.ndarray:
    """(T x^{k-1}) for the selected tensor, computed from the edge list."""
    x = _check_vector(g, x)
    # a batch of one needs no row offset
    return _contract(kind, _edge_index([g]), x[None, :])[0]


def dense_build(kind: TensorKind, g: Hypergraph, cap: int = DEFAULT_DENSE_CAP) -> DenseTensor:
    """Fully materialized symmetric tensor; oracle for apply()."""
    n, k = g.n, g.k
    if n**k > cap:
        raise TooLarge(f"n^k = {n**k} exceeds cap {cap}")
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
