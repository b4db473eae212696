import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree_spectra import (
    TensorKind,
    apply,
    dense_build,
    enumerate_supertrees,
    hyperstar,
    s_cycle,
    single_edge,
    validate,
)
from hypertree_spectra.errors import DimensionMismatch, TooLarge
from hypertree_spectra.census import _supertree_shapes
from hypertree_spectra.tensors import _contract, _edge_index, _linearize, _row_offset
from oracles import edge_loop_apply, rayleigh, relabel

KINDS = list(TensorKind)


def test_apply_single_edge_adjacency_ones():
    g = single_edge(3)
    assert np.allclose(apply(TensorKind.Adjacency, g, np.ones(3)), np.ones(3))


def test_apply_single_edge_incidence_q_ones():
    g = single_edge(3)
    assert np.allclose(apply(TensorKind.IncidenceQ, g, np.ones(3)), np.full(3, 9.0))


def test_apply_hyperstar_signless_ones():
    # center degree 2: 2*1 + 2 products; leaves: 1 + 1
    g = hyperstar(5, 3)
    out = apply(TensorKind.SignlessLaplacian, g, np.ones(5))
    assert np.allclose(out, [4.0, 2.0, 2.0, 2.0, 2.0])
    # cross-check against the dense oracle
    dense = dense_build(TensorKind.SignlessLaplacian, g)
    assert np.allclose(out, dense.contract(np.ones(5)))


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply(TensorKind.Adjacency, single_edge(3), np.ones(4))


def test_rayleigh_single_edge():
    g = single_edge(3)
    x = np.ones(3)
    assert rayleigh(TensorKind.IncidenceQ, g, x) == pytest.approx(27.0)
    assert rayleigh(TensorKind.Adjacency, g, x) == pytest.approx(3.0)


def test_rayleigh_hyperstar_incidence_q():
    g = hyperstar(7, 3)
    assert rayleigh(TensorKind.IncidenceQ, g, np.ones(7)) == pytest.approx(81.0)


def test_dense_entries_single_edge():
    g = single_edge(3)
    q = dense_build(TensorKind.IncidenceQ, g).values
    assert q[0, 1, 2] == 1.0
    assert q[0, 0, 1] == 1.0
    assert q[0, 0, 0] == 1.0
    a = dense_build(TensorKind.Adjacency, g).values
    assert a[0, 1, 2] == 0.5  # 1/(k-1)!
    assert a[0, 0, 1] == 0.0


def test_dense_entries_disjoint_edges():
    g = validate([[1, 2, 3], [4, 5, 6]], 6)
    q = dense_build(TensorKind.IncidenceQ, g).values
    assert q[0, 3, 3] == 0.0  # no edge contains both 1 and 4


def test_dense_cap():
    # 217^3 > 10^7: the cap raises before anything is allocated
    with pytest.raises(TooLarge):
        dense_build(TensorKind.Adjacency, hyperstar(217, 3))


def test_dense_symmetry_and_nonnegativity(small_instance):
    g = small_instance
    for kind in KINDS:
        t = dense_build(kind, g).values
        assert (t >= 0).all()
        axes = list(range(g.k))
        for perm in itertools.permutations(axes):
            assert np.array_equal(t, t.transpose(perm))


def test_oracle_equivalence_random_vectors(small_instance, rng):
    g = small_instance
    for kind in KINDS:
        dense = dense_build(kind, g)
        for _ in range(100):
            x = rng.random(g.n)
            assert np.max(np.abs(apply(kind, g, x) - dense.contract(x))) < 1e-10


@pytest.mark.parametrize("k,m", [(2, 6), (3, 5), (4, 4), (5, 3)])
def test_apply_matches_oracles_on_census(k, m, rng):
    """Every supertree shape of the census and the edgeless one-vertex
    graph, with positive x, x with zero entries and a unit vector, against
    the dense tensor and the edge loop."""
    census = enumerate_supertrees(m * (k - 1) + 1, k, max_edges=m)
    for g in [rec.hypergraph for rec in census.records] + [validate([], 1, k=k)]:
        zeros = rng.random(g.n)
        zeros[rng.random(g.n) < 0.4] = 0.0
        unit = np.zeros(g.n)
        unit[rng.integers(g.n)] = 1.0
        for kind in KINDS:
            dense = dense_build(kind, g)
            for x in (rng.random(g.n) + 0.05, zeros, unit):
                out = apply(kind, g, x)
                assert np.max(np.abs(out - dense.contract(x))) < 1e-10
                assert np.max(np.abs(out - edge_loop_apply(kind, g, x))) < 1e-10
                assert rayleigh(kind, g, x) == pytest.approx(
                    float(x @ dense.contract(x)), rel=1e-12, abs=1e-12
                )


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_linearization_matches_dense_oracle(corpus_instance, kind, rng):
    """The edge blocks rebuilt from the factors, c_e / (sigma_a sigma_b) off
    the diagonal and diag_a on it, sum to M(x), the dense tensor contracted
    k-2 times, and M(x) x = apply.  The last draws spread x over 1e-6..1,
    where for Adjacency and SignlessLaplacian the edge product over
    sigma_a sigma_b = x_a x_b has to give the product of the other k-2."""
    g = corpus_instance
    dense = dense_build(kind, g).values
    flat = _edge_index([g])
    draws = [rng.random(g.n) + 0.05 for _ in range(20)]
    draws += [10.0 ** rng.uniform(-6, 0, g.n) for _ in range(5)]
    for x in draws:
        c, diag, sigma = (f[0] for f in _linearize([(kind, 0, 1)], x[None], x[flat]))
        scaled = np.zeros((g.n, g.n))  # S M S off the diagonal, S = diag(sigma)
        mx = np.zeros((g.n, g.n))
        for e, ce, de in zip(flat[0], c, diag):
            scaled[np.ix_(e, e)] += ce
            mx[e, e] += de
        np.fill_diagonal(scaled, 0.0)
        mx += scaled / np.outer(sigma, sigma)
        oracle = dense
        for _ in range(g.k - 2):
            oracle = oracle @ x
        assert np.allclose(mx, oracle, rtol=1e-12, atol=1e-12)
        assert np.allclose(mx @ x, apply(kind, g, x), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k,m", [(2, 7), (3, 5), (4, 4)])
def test_block_kernels_equal_one_block_calls(k, m, rng):
    """On a kind-major batch of census shapes, with uneven blocks as after
    rows freeze, each block of _contract's and _linearize's output is ==
    to a one-block call on that block's rows alone: a vertex's bincount
    sum takes only its own row's terms, in the same order."""
    graphs = _supertree_shapes(m, k)
    n = graphs[0].n
    idx = np.tile(_edge_index(graphs), (len(KINDS), 1, 1))
    cuts = sorted(rng.choice(np.arange(1, len(idx)), 2, replace=False).tolist())
    bounds = [0, *cuts, len(idx)]
    blocks = list(zip(KINDS, bounds, bounds[1:]))
    x = 10.0 ** rng.uniform(-6, 0, (len(idx), n))
    flat = _row_offset(idx, n)
    vals = x.ravel()[flat]
    ax = _contract(blocks, flat, vals, n)
    factors = _linearize(blocks, x, vals)
    for kind, s, e in blocks:
        one = _row_offset(idx[s:e], n)
        sub = x[s:e].ravel()[one]
        assert np.array_equal(ax[s:e], _contract([(kind, 0, e - s)], one, sub, n))
        for got, want in zip(factors, _linearize([(kind, 0, e - s)], x[s:e], sub)):
            assert np.array_equal(got[s:e], want)


def test_linearization_scales_by_x_except_incidence_q(rng):
    """In a kind-major batch of all three kinds, sigma is x on the
    Adjacency and SignlessLaplacian rows, where it turns each off-diagonal
    entry of an edge block into c_e, and 1 on the IncidenceQ rows, whose
    entries are c_e already."""
    graphs = _supertree_shapes(4, 3)
    n, count = graphs[0].n, len(graphs)
    idx = np.tile(_edge_index(graphs), (len(KINDS), 1, 1))
    blocks = [(kind, i * count, (i + 1) * count) for i, kind in enumerate(KINDS)]
    x = rng.random((len(idx), n)) + 0.05
    sigma = _linearize(blocks, x, x.ravel()[_row_offset(idx, n)])[2]
    for kind, s, e in blocks:
        want = np.ones((e - s, n)) if kind is TensorKind.IncidenceQ else x[s:e]
        assert np.array_equal(sigma[s:e], want)


def test_rayleigh_identity_random(small_instance, rng):
    g = small_instance
    for kind in KINDS:
        for _ in range(20):
            x = rng.random(g.n) + 0.1
            lhs = rayleigh(kind, g, x)
            rhs = float(x @ apply(kind, g, x))
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_incidence_q_psd_even_k(rng):
    for g in [single_edge(4), s_cycle(3, 2, 4), hyperstar(13, 4)]:
        for _ in range(1000):
            x = rng.normal(size=g.n)
            assert rayleigh(TensorKind.IncidenceQ, g, x) >= -1e-12


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_permutation_equivariance(rnd):
    g = hyperstar(7, 3) if rnd.random() < 0.5 else s_cycle(4, 1, 3)
    perm_list = list(range(1, g.n + 1))
    rnd.shuffle(perm_list)
    perm = {old: new for old, new in zip(range(1, g.n + 1), perm_list)}
    h = relabel(g, perm)
    x = np.array([rnd.random() for _ in range(g.n)])
    xp = np.empty(g.n)
    for old, new in perm.items():
        xp[new - 1] = x[old - 1]
    for kind in KINDS:
        out = apply(kind, g, x)
        outp = apply(kind, h, xp)
        for old, new in perm.items():
            assert outp[new - 1] == pytest.approx(out[old - 1], rel=1e-12, abs=1e-12)


def test_regularity_criterion(corpus_instance):
    g = corpus_instance
    out = apply(TensorKind.IncidenceQ, g, np.ones(g.n))
    expected = g.k ** (g.k - 1) * np.array(g.degrees, dtype=float)
    assert np.allclose(out, expected)
