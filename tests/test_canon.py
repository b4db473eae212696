import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree_spectra import (
    canonical_form,
    double_star,
    hyperstar,
    loose_path,
    s_cycle,
    single_edge,
    tree_power,
    validate,
)
from hypertree_spectra.census import _supertree_shapes
from hypertree_spectra.errors import Disconnected, NotATree, TooLarge
from hypertree_spectra.spectral import _elimination_order
from hypertree_spectra.tensors import _edge_index
from oracles import (
    automorphism_orbits,
    brute_force_canonical,
    brute_force_orbits,
    enumerate_trees,
    is_isomorphic,
    is_supertree,
    parents_to_edges,
    relabel,
    tree_canonical_code,
)


def _random_relabel(g, rnd):
    perm_list = list(range(1, g.n + 1))
    rnd.shuffle(perm_list)
    return relabel(g, dict(zip(range(1, g.n + 1), perm_list)))


def test_canonical_form_is_a_valid_relabeling(corpus_instance):
    # the library canonicalizes supertrees only; the brute-force oracle
    # takes the rest of the corpus
    g = corpus_instance
    canon = canonical_form
    if not is_supertree(g):
        with pytest.raises(NotATree):
            canonical_form(g)
        canon = brute_force_canonical
    form = canon(g)
    assert len(form) == g.m
    # a relabeling preserves the degree multiset (not the vertex ids)
    h = validate([list(e) for e in form], g.n, k=g.k)
    assert sorted(h.degrees) == sorted(g.degrees)
    # and canonicalization is idempotent
    assert canon(h) == form


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
    if is_supertree(g):
        assert canonical_form(h) == canonical_form(g)
        assert is_isomorphic(g, h)
    else:
        with pytest.raises(NotATree):
            canonical_form(h)
        assert brute_force_canonical(h) == brute_force_canonical(g)


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
            brute = brute_force_canonical(a) == brute_force_canonical(b)
            assert fast == brute


def test_brute_force_invariant_under_relabeling():
    rnd = np.random.default_rng(3)
    g = loose_path(7, 3)
    base = brute_force_canonical(g)
    for _ in range(10):
        perm_list = [int(x) for x in rnd.permutation(np.arange(1, 8))]
        h = relabel(g, dict(zip(range(1, 8), perm_list)))
        assert brute_force_canonical(h) == base


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
    assert brute_force_canonical(h) == brute_force_canonical(g)


def test_brute_force_cap():
    # 18 same-degree vertices would need 18! relabelings
    edges = [[3 * i + 1, 3 * i + 2, 3 * i + 3] for i in range(6)]
    edges.append([1, 4, 7])
    edges.append([10, 13, 16])
    edges.append([1, 10, 18])
    g = validate(edges, 18)
    assert g.m * (g.k - 1) != g.n - 1
    with pytest.raises(TooLarge):
        brute_force_canonical(g)


def test_empty_hypergraph_form():
    # m = 0 is a supertree only on one vertex
    assert canonical_form(validate([], 1, k=3)) == ()
    with pytest.raises(NotATree):
        canonical_form(validate([], 3, k=3))
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
    codes = {
        tree_canonical_code(parents_to_edges(p), 6)
        for p in enumerate_trees(6)
    }
    assert len(codes) == 6  # six non-isomorphic trees on six nodes


# -- automorphism orbits -------------------------------------------------------


def test_automorphism_orbits_match_brute_force():
    # every census shape on at most 8 vertices, under a random relabeling
    rnd = random.Random(11)
    checked = 0
    for k in range(2, 9):
        for m in range(1, 7 // (k - 1) + 1):
            for shape in _supertree_shapes(m, k):
                g = _random_relabel(shape, rnd)
                assert automorphism_orbits(g) == brute_force_orbits(g)
                checked += 1
    assert checked == 57


def test_automorphism_orbits_pinned():
    assert automorphism_orbits(hyperstar(9, 3)) == [{1}, set(range(2, 10))]
    assert automorphism_orbits(loose_path(9, 3)) == [{1, 2, 8, 9}, {3, 7}, {4, 6}, {5}]
    # leaves 1 and 4 both have the empty code, but only the end leaves
    # are automorphic
    assert automorphism_orbits(loose_path(7, 3)) == [{1, 2, 6, 7}, {3, 5}, {4}]
    assert automorphism_orbits(validate([], 1, k=3)) == [{1}]


def test_leaf_peeling_decides_supertrees():
    # every set of three 3-edges on 7 vertices has m (k-1) = n-1, so only
    # the peeling can reject it; the is_supertree oracle's walk and edge
    # count decide
    triples = list(itertools.combinations(itertools.combinations(range(1, 8), 3), 3))
    assert len(triples) == 6545
    supertrees = 0
    for edges in triples:
        g = validate(edges, 7)
        peels = [
            lambda: canonical_form(g),
            lambda: automorphism_orbits(g),
            lambda: _elimination_order(_edge_index([g]), 7),
        ]
        if is_supertree(g):
            supertrees += 1
            for peel in peels:
                peel()
        else:
            for peel, error in zip(peels, (NotATree, NotATree, Disconnected)):
                with pytest.raises(error):
                    peel()
    assert supertrees == 735


def test_canonical_form_rejects_a_cycle_in_either_peel_phase():
    """A triangle beside a tree, k = 2, with m = n-1.  Beside nine pendant
    edges at one vertex the peel's first round takes 9 > NARROW_WIDTH edges
    on numpy and the hand-off finds nothing to peel; with a tail of three
    edges at that vertex the first round takes ten and the queue one
    height of two; beside a path of nine edges the queue alone peels, two
    edges per round.  Each ends with the triangle left."""
    triangle = [[1, 2], [2, 3], [1, 3]]
    pendant = [[4, v] for v in range(5, 14)]
    for edges, n in [
        (triangle + pendant, 13),
        (triangle + pendant + [[4, 14], [14, 15], [15, 16]], 16),
        (triangle + [[v, v + 1] for v in range(4, 13)], 13),
    ]:
        g = validate(edges, n, k=2)
        assert g.m == n - 1
        with pytest.raises(NotATree):
            canonical_form(g)


def test_automorphism_orbits_need_a_supertree():
    with pytest.raises(NotATree):
        automorphism_orbits(s_cycle(4, 1, 3))
    with pytest.raises(NotATree):
        automorphism_orbits(validate([[1, 2, 3], [4, 5, 6]], 6))


@pytest.mark.parametrize("family", [loose_path, hyperstar])
def test_canonical_form_of_a_deep_or_wide_tree(family):
    # bit-string codes neither recurse nor nest: a path 10000 edges long
    # and a star of 10000 edges both canonicalize, relabeled or not.  Only
    # a parent keeps its children's codes, so memory stays linear: 4-6 MB
    # here, against about 150 MB on the path if every code were kept
    g = family(20001, 3)
    tracemalloc.start()
    form = canonical_form(g)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 32e6
    assert len(form) == 10000
    assert canonical_form(_random_relabel(g, random.Random(20001))) == form


def test_canonical_form_of_a_deep_path_is_relabeling_invariant():
    g = loose_path(601, 3)
    assert canonical_form(_random_relabel(g, random.Random(0))) == canonical_form(g)


def test_canonical_form_of_every_census_shape():
    """A relabeled census shape canonicalizes to the shape itself, which
    the census numbers with canon's labeler, whether the center is an
    edge or a vertex."""
    rnd = random.Random(32)
    for k, top in [(2, 9), (3, 7), (4, 5)]:
        for m in range(1, top + 1):
            for g in _supertree_shapes(m, k):
                assert canonical_form(_random_relabel(g, rnd)) == g.edges
