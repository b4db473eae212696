import itertools
import json

import pytest

from hypertree_spectra import (
    TensorKind,
    canonical_form,
    double_star,
    enumerate_supertrees,
    enumerate_trees,
    hyperstar,
    is_linear,
    is_supertree,
    loose_path,
    spectral_radius,
    verify_extremal,
)
from hypertree_spectra.census import Census
from hypertree_spectra.errors import BadDimensions, IncompleteCensus, TooLarge
from hypertree_spectra.transforms import parents_to_edges
from oracles import brute_force_supertrees, tree_canonical_code

KINDS = list(TensorKind)

# number of free trees on 2..10 nodes
FREE_TREE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


def _prufer_decode(seq, n_prime):
    """Standard Prüfer decoding: bijection with labeled trees on n' nodes."""
    degree = [1] * (n_prime + 1)
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(1, n_prime + 1) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [x for x in range(1, n_prime + 1) if degree[x] == 1]
    edges.append((u, v))
    return edges


def _labeled_tree_classes(n_prime):
    """Independent oracle: canonical codes of all n'^(n'-2) labeled trees."""
    if n_prime == 2:
        return {tree_canonical_code([(1, 2)], 2)}
    codes = set()
    for seq in itertools.product(range(1, n_prime + 1), repeat=n_prime - 2):
        edges = _prufer_decode(seq, n_prime)
        codes.add(tree_canonical_code(edges, n_prime))
    return codes


# -- free tree enumeration ----------------------------------------------------


def test_tree_counts_match_known_sequence():
    for n_prime, count in FREE_TREE_COUNTS.items():
        assert len(enumerate_trees(n_prime)) == count


def test_tree_enumeration_matches_prufer_oracle():
    for n_prime in range(2, 8):
        generated = {
            tree_canonical_code(parents_to_edges(p), n_prime)
            for p in enumerate_trees(n_prime)
        }
        assert len(generated) == len(enumerate_trees(n_prime))
        assert generated == _labeled_tree_classes(n_prime)


def test_tree_enumeration_bounds():
    with pytest.raises(TooLarge):
        enumerate_trees(1)
    with pytest.raises(TooLarge):
        enumerate_trees(11)


def test_tree_enumeration_deterministic():
    assert enumerate_trees(7) == enumerate_trees(7)


# -- supertree census ---------------------------------------------------------


def test_census_single_edge():
    census = enumerate_supertrees(3, 3)
    assert len(census.records) == 1
    assert census.records[0].is_hyperstar
    assert census.records[0].is_loose_path


def test_census_two_edges():
    census = enumerate_supertrees(5, 3)
    assert len(census.records) == 1  # hyperstar == loose path at m = 2


def test_census_three_edges_k3():
    # exhaustive filtration over all 3-subsets of the 35 possible edges
    # yields exactly two classes: any three-edge chain is isomorphic to
    # the loose path, so only the hyperstar and the path remain
    census = enumerate_supertrees(7, 3)
    assert len(census.records) == 2
    assert {r.is_hyperstar for r in census.records} == {True, False}
    assert {r.is_loose_path for r in census.records} == {True, False}


@pytest.mark.parametrize("n,k", [(5, 3), (7, 3)])
def test_census_completeness_against_brute_force(n, k):
    census = enumerate_supertrees(n, k)
    assert sorted(r.canonical for r in census.records) == brute_force_supertrees(
        n, k
    )


def test_census_sizes_frozen():
    # frozen from the exhaustive filtration oracle at small sizes and the
    # growth generator beyond
    sizes_k3 = {3: 1, 5: 1, 7: 2, 9: 4, 11: 8, 13: 19}
    for n, size in sizes_k3.items():
        assert len(enumerate_supertrees(n, 3).records) == size
    assert len(enumerate_supertrees(13, 4).records) == 4


def test_census_members_are_distinct_linear_supertrees():
    for n, k in [(9, 3), (13, 4)]:
        census = enumerate_supertrees(n, k)
        forms = [r.canonical for r in census.records]
        assert len(set(forms)) == len(forms)
        for r in census.records:
            assert is_supertree(r.hypergraph)
            assert is_linear(r.hypergraph)
            assert r.canonical == canonical_form(r.hypergraph)


def test_census_flags():
    census = enumerate_supertrees(9, 3)
    assert sum(r.is_hyperstar for r in census.records) == 1
    assert sum(r.is_loose_path for r in census.records) == 1
    assert sum(r.is_double_star_1 for r in census.records) == 1
    star = next(r for r in census.records if r.is_hyperstar)
    path = next(r for r in census.records if r.is_loose_path)
    assert star.is_tree_power and path.is_tree_power
    ds = next(r for r in census.records if r.is_double_star_1)
    assert ds.canonical == canonical_form(double_star(1, 2, 3))


def test_census_tree_power_count_is_free_tree_count():
    # k-th powers of trees with m edges <-> free trees on m+1 nodes
    for n, k in [(9, 3), (11, 3), (13, 4)]:
        census = enumerate_supertrees(n, k)
        m = census.m
        assert sum(r.is_tree_power for r in census.records) == FREE_TREE_COUNTS[
            m + 1
        ]


def test_census_radii_respect_global_bounds():
    # rho(adjacency) <= m^(1/k) and
    # rho(incidence-Q) <= (m^(1/(k-1)) + k - 1)^(k-1),
    # with equality exactly at the hyperstar
    for n, k in [(9, 3), (11, 3), (13, 4)]:
        census = enumerate_supertrees(n, k)
        m = census.m
        cap_adj = m ** (1 / k)
        cap_qstar = (m ** (1 / (k - 1)) + k - 1) ** (k - 1)
        for r in census.records:
            a = r.radii[TensorKind.Adjacency]
            q = r.radii[TensorKind.IncidenceQ]
            assert a <= cap_adj + 1e-9
            assert q <= cap_qstar + 1e-7
            if r.is_hyperstar:
                assert a == pytest.approx(cap_adj, abs=1e-8)
                assert q == pytest.approx(cap_qstar, rel=1e-9)
            else:
                assert a < cap_adj - 1e-8
                assert q < cap_qstar - 1e-6


def test_census_orderings_share_top_two():
    for n, k in [(9, 3), (11, 3), (13, 4)]:
        census = enumerate_supertrees(n, k)
        tops = []
        for kind in KINDS:
            ordered = sorted(
                census.records, key=lambda r: r.radii[kind], reverse=True
            )
            tops.append((ordered[0].canonical, ordered[1].canonical))
        assert len(set(tops)) == 1


def test_double_star_comparison_lemma_k3():
    # for fixed a+b, the radius strictly decreases as min(a, b) grows
    for total in range(2, 6):
        for kind in KINDS:
            radii = [
                spectral_radius(kind, double_star(a, total - a, 3)).rho
                for a in range(0, total // 2 + 1)
            ]
            for hi, lo in zip(radii, radii[1:]):
                assert hi - lo > 1e-8


def test_census_bad_dimensions_and_caps():
    with pytest.raises(BadDimensions):
        enumerate_supertrees(6, 3)
    with pytest.raises(TooLarge):
        enumerate_supertrees(15, 3)  # m = 7 > cap


def test_census_deterministic_export():
    a = enumerate_supertrees(9, 3).export_jsonl()
    b = enumerate_supertrees(9, 3).export_jsonl()
    assert a == b
    for line in a.strip().splitlines():
        rec = json.loads(line)
        assert set(rec) == {
            "edges",
            "rho_adj",
            "rho_q",
            "rho_qstar",
            "is_hyperstar",
            "is_loose_path",
            "is_double_star_1",
            "is_tree_power",
        }


# -- extremal verification ----------------------------------------------------


@pytest.mark.parametrize("n,k", [(7, 3), (9, 3), (11, 3), (13, 4)])
def test_verify_extremal_passes(n, k):
    census = enumerate_supertrees(n, k)
    report = verify_extremal(census)
    assert report.passed
    assert report.census_size == len(census.records)
    names = {a.name for a in report.assertions}
    assert "hyperstar-maximal" in names
    assert "loose-path-minimal-among-powers" in names
    if census.m >= 3:
        assert "second-largest-double-star" in names
        assert not report.skipped
    for a in report.assertions:
        if a.margin is not None:
            assert a.margin > 0


def test_verify_extremal_skips_second_largest_small_m():
    report = verify_extremal(enumerate_supertrees(5, 3))
    assert report.passed
    assert report.skipped
    assert all(a.name != "second-largest-double-star" for a in report.assertions)


def test_verify_extremal_second_largest_is_named_double_star():
    census = enumerate_supertrees(9, 3)
    for kind in KINDS:
        ordered = sorted(
            census.records, key=lambda r: r.radii[kind], reverse=True
        )
        assert ordered[1].canonical == canonical_form(double_star(1, 2, 3))


def test_verify_extremal_incomplete_census():
    census = enumerate_supertrees(9, 3)
    gutted = Census(
        n=census.n,
        k=census.k,
        records=tuple(r for r in census.records if not r.is_hyperstar),
    )
    with pytest.raises(IncompleteCensus):
        verify_extremal(gutted)


def test_brute_force_bad_dimensions():
    with pytest.raises(BadDimensions):
        brute_force_supertrees(6, 3)
