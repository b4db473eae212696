import numpy as np
import pytest

from hypertree_spectra import (
    double_star,
    hyperstar,
    incidence_matrix,
    is_linear,
    loose_path,
    s_cycle,
    s_path,
    single_edge,
    tree_power,
)
from hypertree_spectra.errors import BadDimensions, BadOverlap, NotATree
from oracles import is_isomorphic, is_supertree


def test_hyperstar_7_3():
    g = hyperstar(7, 3)
    assert g.edges == ((1, 2, 3), (1, 4, 5), (1, 6, 7))


def test_hyperstar_single_edge_case():
    assert hyperstar(4, 4).edges == ((1, 2, 3, 4),)


def test_hyperstar_bad_dimensions():
    with pytest.raises(BadDimensions):
        hyperstar(6, 3)


def test_loose_path_7_3():
    g = loose_path(7, 3)
    assert g.edges == ((1, 2, 3), (3, 4, 5), (5, 6, 7))


def test_loose_path_two_edges_is_star():
    assert is_isomorphic(loose_path(5, 3), hyperstar(5, 3))


def test_loose_path_single_edge_case():
    assert loose_path(4, 4).edges == ((1, 2, 3, 4),)


def test_double_star_trivial():
    assert is_isomorphic(double_star(0, 0, 3), single_edge(3))


def test_double_star_1_2_3_counts():
    g = double_star(1, 2, 3)
    assert g.m == 4
    assert g.n == 9  # (a+b+1)(k-1)+1


def test_double_star_one_sided_is_hyperstar():
    assert is_isomorphic(double_star(0, 3, 3), hyperstar(9, 3))
    assert is_isomorphic(double_star(0, 2, 4), hyperstar(10, 4))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_double_star_labels(k):
    # the bridge is {1, 2}; node 1's a leaves are 3..a+2 and node 2's b
    # leaves follow; each edge gets k-2 fresh pad vertices in edge order
    for a in range(5):
        for b in range(5):
            tree = [(1, 2), *((1, 3 + i) for i in range(a)), *((2, 3 + a + i) for i in range(b))]
            pad = a + b + 3
            expected = []
            for u, v in tree:
                expected.append(tuple(sorted([u, v, *range(pad, pad + k - 2)])))
                pad += k - 2
            assert double_star(a, b, k).edges == tuple(sorted(expected))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_loose_path_labels(k):
    for m in range(1, 12):
        expected = tuple(tuple(range(i * (k - 1) + 1, i * (k - 1) + k + 1)) for i in range(m))
        assert loose_path(m * (k - 1) + 1, k).edges == expected


def test_tree_power_path_is_loose_path():
    # path on 4 nodes: 2<-1, 3<-2, 4<-3
    assert is_isomorphic(tree_power([1, 2, 3], 3), loose_path(7, 3))


def test_tree_power_star_is_hyperstar():
    assert is_isomorphic(tree_power([1, 1, 1], 3), hyperstar(7, 3))


def test_tree_power_double_star():
    # S(1,2): center edge (1,2), one leaf at 1, two leaves at 2
    assert is_isomorphic(tree_power([1, 1, 2, 2], 3), double_star(1, 2, 3))


def test_tree_power_vertex_count():
    g = tree_power([1, 1, 2], 4)
    assert g.n == 4 + 3 * 2


def test_tree_power_rejects_cycle():
    # cycles unreachable from the root; at k=2 the 2-cycle [3, 2] repeats
    # an edge, which must still read as NotATree
    for parents, k in [([3, 4, 2], 3), ([3, 4, 2], 2), ([3, 2], 2), ([3, 2], 3)]:
        with pytest.raises(NotATree):
            tree_power(parents, k)


def test_s_path_is_loose_path_at_s1():
    assert is_isomorphic(s_path(3, 1, 3), loose_path(7, 3))


def test_s_cycle_3_2_4_degrees():
    g = s_cycle(3, 2, 4)
    assert g.n == 6
    assert g.degrees == (2,) * 6


def test_s_bad_overlap():
    with pytest.raises(BadOverlap):
        s_path(3, 2, 3)
    with pytest.raises(BadOverlap):
        s_cycle(2, 1, 3)


@pytest.mark.parametrize(
    "build,args,error",
    [
        (hyperstar, (7, 3.0), BadDimensions),
        (hyperstar, (7.0, 3), BadDimensions),
        (hyperstar, (True, 2), BadDimensions),
        (loose_path, (7, 2.5), BadDimensions),
        (double_star, (1, 1, 2.5), BadDimensions),
        (double_star, (1.0, 1, 3), BadDimensions),
        (double_star, (1, True, 3), BadDimensions),
        (double_star, (1, 1, True), BadDimensions),
        (tree_power, ([1], 1), BadDimensions),
        (tree_power, ([1], 2.5), BadDimensions),
        (tree_power, ([1], True), BadDimensions),
        (tree_power, ([1, 1.5], 3), NotATree),
        (s_path, (2, 1, 2.5), BadOverlap),
        (s_path, (2.0, 1, 3), BadOverlap),
        (s_path, (2, True, 3), BadOverlap),
        (s_path, (0, 1, 3), BadOverlap),
        (s_cycle, (3, 1, 3.0), BadOverlap),
        (s_cycle, (True, 1, 3), BadOverlap),
        (single_edge, (2.5,), BadDimensions),
        (single_edge, (True,), BadDimensions),
        (single_edge, (1,), BadDimensions),
    ],
)
def test_family_parameters_raise_typed_errors(build, args, error):
    """A parameter that is a bool, not an integer, or below its minimum is
    rejected with a typed error, never a bare TypeError."""
    with pytest.raises(error):
        build(*args)


def test_family_parameters_take_numpy_integers():
    assert hyperstar(np.int64(7), np.int64(3)) == hyperstar(7, 3)
    assert s_path(np.int64(3), np.int64(1), np.int64(3)) == s_path(3, 1, 3)
    assert tree_power([np.int64(1)], np.int64(3)) == tree_power([1], 3)


def test_constructed_supertrees_satisfy_invariants():
    for g in [
        hyperstar(9, 3),
        hyperstar(13, 4),
        loose_path(9, 3),
        loose_path(13, 4),
        double_star(2, 2, 3),
        tree_power([1, 1, 2, 2, 3], 3),
    ]:
        assert is_supertree(g)
        assert is_linear(g)
        assert g.m * (g.k - 1) == g.n - 1


def _ordinary_path_adjacency(m):
    a = np.zeros((m, m))
    for i in range(m - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def _ordinary_cycle_adjacency(m):
    a = _ordinary_path_adjacency(m)
    a[0, m - 1] = a[m - 1, 0] = 1.0
    return a


@pytest.mark.parametrize("m,s,k", [(3, 1, 3), (4, 2, 4), (5, 2, 5)])
def test_s_path_gram_closed_form(m, s, k):
    r = incidence_matrix(s_path(m, s, k))
    expected = k * np.eye(m) + s * _ordinary_path_adjacency(m)
    assert np.array_equal(r.T @ r, expected)


@pytest.mark.parametrize("m,s,k", [(3, 2, 4), (4, 1, 3), (5, 2, 5)])
def test_s_cycle_gram_closed_form(m, s, k):
    # edge storage order permutes the Gram matrix, so check the kI + sA(C_m)
    # shape structurally: diagonal k, two off-diagonal s per row forming one
    # cycle, and matching eigenvalues
    r = incidence_matrix(s_cycle(m, s, k))
    gram = r.T @ r
    assert np.array_equal(np.diag(gram), np.full(m, float(k)))
    off = gram - k * np.eye(m)
    assert all(sorted(row[row > 0]) == [s, s] for row in off)
    expected = k * np.eye(m) + s * _ordinary_cycle_adjacency(m)
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(gram)), np.sort(np.linalg.eigvalsh(expected))
    )
