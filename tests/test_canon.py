import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree_spectra import (
    canonical_form,
    double_star,
    hyperstar,
    is_isomorphic,
    loose_path,
    s_cycle,
    single_edge,
    tree_power,
    validate,
)
from hypertree_spectra.canon import _brute_force_canonical, relabel
from hypertree_spectra.errors import TooLarge
from oracles import tree_canonical_code


def _random_relabel(g, rnd):
    perm_list = list(range(1, g.n + 1))
    rnd.shuffle(perm_list)
    return relabel(g, dict(zip(range(1, g.n + 1), perm_list)))


def test_canonical_form_is_a_valid_relabeling(corpus_instance):
    g = corpus_instance
    form = canonical_form(g)
    assert len(form) == g.m
    # a relabeling preserves the degree multiset (not the vertex ids)
    h = validate([list(e) for e in form], g.n, k=g.k)
    assert sorted(h.degrees) == sorted(g.degrees)
    # and canonicalization is idempotent
    assert canonical_form(h) == form


@given(st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_canonical_form_relabeling_invariant(rnd):
    pool = [
        hyperstar(9, 3),
        loose_path(9, 3),
        double_star(1, 2, 3),
        tree_power([1, 1, 2, 2], 3),
        s_cycle(4, 1, 3),
        hyperstar(13, 4),
    ]
    g = pool[rnd.randrange(len(pool))]
    h = _random_relabel(g, rnd)
    assert canonical_form(h) == canonical_form(g)
    assert is_isomorphic(g, h)


def test_supertree_and_brute_force_consistent():
    # the tree-based fast path and the brute-force fallback use different
    # labeling conventions, but they must induce the same equivalence:
    # two supertrees get equal fast forms iff they get equal brute forms
    pool = [
        hyperstar(7, 3),
        loose_path(7, 3),
        double_star(1, 1, 3),
        tree_power([1, 2, 2], 3),
        hyperstar(9, 3),
        loose_path(9, 3),
    ]
    for a in pool:
        for b in pool:
            fast = canonical_form(a) == canonical_form(b)
            brute = _brute_force_canonical(a) == _brute_force_canonical(b)
            assert fast == brute


def test_brute_force_invariant_under_relabeling():
    rnd = np.random.default_rng(3)
    g = loose_path(7, 3)
    base = _brute_force_canonical(g)
    for _ in range(10):
        perm_list = [int(x) for x in rnd.permutation(np.arange(1, 8))]
        h = relabel(g, dict(zip(range(1, 8), perm_list)))
        assert _brute_force_canonical(h) == base


def test_non_isomorphic_same_parameters():
    # same n, m, k and degree multiset cannot fool the canonical form:
    # two 6-node spiders with leg profiles (1,2,2) and (1,1,3)
    a = tree_power([1, 1, 3, 1, 5], 3)
    b = tree_power([1, 1, 1, 3, 5], 3)
    assert (a.n, a.m, a.k) == (b.n, b.m, b.k)
    assert sorted(a.degrees) == sorted(b.degrees)
    assert not is_isomorphic(a, b)
    assert canonical_form(a) != canonical_form(b)


def test_is_isomorphic_quick_rejects():
    assert not is_isomorphic(hyperstar(7, 3), loose_path(9, 3))  # n differs
    assert not is_isomorphic(single_edge(3), single_edge(4))  # k differs
    assert not is_isomorphic(hyperstar(9, 3), loose_path(9, 3))  # degrees


def test_hyperstar_vs_loose_path_distinct_all_sizes():
    for n, k in [(7, 3), (9, 3), (11, 3), (13, 4)]:
        assert canonical_form(hyperstar(n, k)) != canonical_form(
            loose_path(n, k)
        )


def test_cyclic_fallback_brute_force():
    g = s_cycle(4, 1, 3)
    rnd = np.random.default_rng(7)
    perm_list = [int(x) for x in rnd.permutation(np.arange(1, g.n + 1))]
    h = relabel(g, dict(zip(range(1, g.n + 1), perm_list)))
    assert canonical_form(h) == canonical_form(g)


def test_brute_force_cap():
    # 18 same-degree vertices would need 18! relabelings
    edges = [[3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(6)]
    edges.append([1, 4, 7])
    edges.append([10, 13, 16])
    edges.append([1, 10, 18])
    g = validate(edges, 18)
    assert g.m * (g.k - 1) != g.n - 1
    with pytest.raises(TooLarge):
        canonical_form(g)


def test_empty_hypergraph_form():
    # m = 0 is unreachable via validate, so exercise the degenerate branch
    # through a single edge instead
    assert canonical_form(single_edge(3)) == ((1, 2, 3),)


def test_tree_code_path_vs_star():
    path = [(1, 2), (2, 3), (3, 4)]
    star = [(1, 2), (1, 3), (1, 4)]
    assert tree_canonical_code(path, 4) != tree_canonical_code(star, 4)


def test_tree_code_relabeling_invariant():
    rnd = np.random.default_rng(11)
    edges = [(1, 2), (2, 3), (2, 4), (4, 5), (4, 6)]
    base = tree_canonical_code(edges, 6)
    for _ in range(20):
        perm = dict(
            zip(range(1, 7), (int(x) for x in rnd.permutation(np.arange(1, 7))))
        )
        shuffled = [(perm[u], perm[v]) for u, v in edges]
        assert tree_canonical_code(shuffled, 6) == base


def test_tree_code_distinguishes_all_six_node_trees():
    from hypertree_spectra import enumerate_trees
    from hypertree_spectra.transforms import parents_to_edges

    codes = {
        tree_canonical_code(parents_to_edges(p), 6)
        for p in enumerate_trees(6)
    }
    assert len(codes) == 6  # six non-isomorphic trees on six nodes
