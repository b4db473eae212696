import dataclasses
import hashlib
import itertools
import json

import pytest

from hypertree_spectra import (
    TensorKind,
    canonical_form,
    double_star,
    enumerate_supertrees,
    hyperstar,
    is_linear,
    loose_path,
    spectral_radii,
    spectral_radius,
    validate,
    verify_extremal,
)
from hypertree_spectra import census as census_module
from hypertree_spectra import spectral
from hypertree_spectra.census import Census, CensusRecord, _supertree_shapes
from hypertree_spectra.errors import BadDimensions, IncompleteCensus, TooLarge
from oracles import (
    brute_force_supertrees,
    enumerate_trees,
    grow_and_dedup,
    is_supertree,
    parents_to_edges,
    prufer_decode,
    tree_canonical_code,
)

KINDS = list(TensorKind)

# number of free trees on 2..10 nodes
FREE_TREE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
# and on up to 14 nodes, beyond enumerate_trees' cap
FREE_TREES_UP_TO_14 = {**FREE_TREE_COUNTS, 11: 235, 12: 551, 13: 1301, 14: 3159}
# number of 3-uniform supertrees with 1..10 edges
SUPERTREE_COUNTS_K3 = [1, 1, 2, 4, 8, 19, 48, 126, 355, 1037]


def _labeled_tree_classes(n_prime):
    """Independent oracle: canonical codes of all n'^(n'-2) labeled trees."""
    if n_prime == 2:
        return {tree_canonical_code([(1, 2)], 2)}
    codes = set()
    for seq in itertools.product(range(1, n_prime + 1), repeat=n_prime - 2):
        edges = prufer_decode(seq, n_prime)
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
    assert sorted(r.hypergraph.edges for r in census.records) == brute_force_supertrees(
        n, k
    )


def test_census_sizes_frozen():
    # frozen from the exhaustive filtration oracle at small sizes and the
    # grow-and-dedup oracle beyond
    sizes_k3 = {3: 1, 5: 1, 7: 2, 9: 4, 11: 8, 13: 19}
    for n, size in sizes_k3.items():
        assert len(enumerate_supertrees(n, 3).records) == size
    assert len(enumerate_supertrees(13, 4).records) == 4


def test_census_members_are_distinct_linear_supertrees():
    # each record's graph is labeled by its own canonical form
    for n, k in [(3, 2), (7, 2), (3, 3), (9, 3), (13, 3), (13, 4), (16, 4), (21, 5)]:
        census = enumerate_supertrees(n, k)
        forms = [r.hypergraph.edges for r in census.records]
        assert len(set(forms)) == len(forms)
        for r in census.records:
            assert is_supertree(r.hypergraph)
            assert is_linear(r.hypergraph)
            assert r.hypergraph.edges == canonical_form(r.hypergraph)


# sha256 of the JSON forms of _supertree_shapes(m, k), in order, for
# m = 1..top; recorded from the growth that kept one Hypergraph per form
PINNED_FORMS = {
    (2, 9): "528a176bf26622866f96c70263edea8a13138c36237d3c5753c7df02e6779d2d",
    (3, 8): "4eda96765ddb3f85f92f0dd8869ced6e1d7baadabb3069bc50d73ead49b8f275",
    (4, 7): "0d91384c8eeced470b801c8da2980c2754af157eb4b7e516c2b5098f726d7ed4",
    (5, 5): "77e8145520707196845e3f0a44509f3dfed20a8dbc86f9db714e47921c3b8ab0",
}


@pytest.mark.parametrize("k,top", sorted(PINNED_FORMS))
def test_census_forms_are_pinned(k, top):
    digest = hashlib.sha256()
    for m in range(1, top + 1):
        forms = [[list(e) for e in g.edges] for g in _supertree_shapes(m, k)]
        digest.update(json.dumps(forms).encode())
    assert digest.hexdigest() == PINNED_FORMS[k, top]


@pytest.mark.parametrize("k,top", sorted(PINNED_FORMS))
def test_shapes_equal_their_validation(k, top):
    """Growth builds its shapes without validate's checks; each is still
    the Hypergraph validate builds from its edges, incidence lists too."""
    for m in range(1, top + 1):
        for g in _supertree_shapes(m, k):
            want = validate(g.edges, g.n, k=g.k)
            assert g == want and g.vertex_to_edges == want.vertex_to_edges
            assert all(type(v) is int for e in g.edges for v in e)


@pytest.mark.parametrize("k,top", [(2, 10), (3, 9), (4, 7), (5, 5)])
def test_generator_matches_grow_and_dedup(k, top):
    for m in range(1, top + 1):
        assert [g.edges for g in _supertree_shapes(m, k)] == grow_and_dedup(m, k)


def test_growth_calls_no_canonical_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("growth called a canonical form")

    for target in [
        "hypertree_spectra.canon.canonical_form",
        "hypertree_spectra.canon._center_peel",
        "hypertree_spectra.census.canonical_form",
    ]:
        monkeypatch.setattr(target, refuse)
    assert len(_supertree_shapes(8, 3)) == 126
    assert len(_supertree_shapes(7, 4)) == 56


@pytest.mark.parametrize(
    "k,counts",
    [
        (2, [FREE_TREES_UP_TO_14[m + 1] for m in range(1, 14)]),
        (3, SUPERTREE_COUNTS_K3),
    ],
)
def test_census_counts_beyond_the_oracle(k, counts):
    # k=2 with m edges is the free trees on m+1 nodes
    for m, count in enumerate(counts, 1):
        shapes = _supertree_shapes(m, k)
        assert len(shapes) == count
        assert len({g.edges for g in shapes}) == count
        for g in shapes:
            assert canonical_form(g) == g.edges


def test_census_flags():
    census = enumerate_supertrees(9, 3)
    assert sum(r.is_hyperstar for r in census.records) == 1
    assert sum(r.is_loose_path for r in census.records) == 1
    assert sum(r.is_double_star_1 for r in census.records) == 1
    star = next(r for r in census.records if r.is_hyperstar)
    path = next(r for r in census.records if r.is_loose_path)
    assert star.is_tree_power and path.is_tree_power
    ds = next(r for r in census.records if r.is_double_star_1)
    assert ds.hypergraph.edges == canonical_form(double_star(1, 2, 3))


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
            tops.append((ordered[0].hypergraph.edges, ordered[1].hypergraph.edges))
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
            "solves",
        }
        assert set(rec["solves"]) == {"adj", "q", "qstar"}
        for kind, stats in rec["solves"].items():
            assert set(stats) == {"iterations", "lower", "upper", "residual"}
            assert stats["iterations"] >= 1
            assert stats["lower"] <= rec[f"rho_{kind}"] <= stats["upper"]
            assert stats["upper"] - stats["lower"] <= 1e-10


@pytest.mark.parametrize("k,top", [(2, 10), (3, 8), (4, 7), (5, 5)])
def test_census_solves_equal_per_kind_batches(k, top):
    """The census solves its shapes under all three kinds in one batch, and
    every record is == to that shape's row of a batch of one kind."""
    for m in range(1, top + 1):
        census = enumerate_supertrees(m * (k - 1) + 1, k, max_edges=m)
        shapes = [rec.hypergraph for rec in census.records]
        for kind in KINDS:
            for rec, res in zip(census.records, spectral_radii((kind,), shapes)[0]):
                assert rec.radii[kind] == res.rho
                assert rec.solves[kind] == {
                    "iterations": res.iterations,
                    "lower": res.lower,
                    "upper": res.upper,
                    "residual": res.residual,
                }


def test_record_radii_follow_its_solves(c11):
    fields = [f.name for f in dataclasses.fields(CensusRecord)]
    assert fields == [
        "hypergraph", "solves", "is_hyperstar", "is_loose_path", "is_double_star_1",
        "is_tree_power",
    ]
    rec = c11.records[0]
    solves = {kind: dict(stats, lower=1.0, upper=2.0) for kind, stats in rec.solves.items()}
    assert dataclasses.replace(rec, solves=solves).radii == {kind: 1.5 for kind in KINDS}


def test_census_indexes_and_peels_each_shape_once(monkeypatch):
    """One edge index and one elimination order serve all three kinds, in
    each batch of CENSUS_BATCH shapes, and the batches change no record."""
    calls = []
    peel = spectral._elimination_order

    def counted(idx, n, copies=1):
        calls.append(len(idx))
        return peel(idx, n, copies)

    monkeypatch.setattr(spectral, "_elimination_order", counted)
    census = enumerate_supertrees(15, 3, max_edges=7)
    assert calls == [len(census.records)] == [48]
    calls.clear()
    monkeypatch.setattr(census_module, "CENSUS_BATCH", 10)
    assert enumerate_supertrees(15, 3, max_edges=7) == census
    assert calls == [10, 10, 10, 10, 8]


# -- extremal verification ----------------------------------------------------


# At m = 1 the exact closed forms lie a few ulps outside the computed
# hyperstar brackets, inside the rounding pad.
@pytest.mark.parametrize("n,k", [(3, 3), (4, 4), (5, 5), (7, 3), (9, 3), (11, 3), (13, 4)])
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
        assert ordered[1].hypergraph.edges == canonical_form(double_star(1, 2, 3))


def test_verify_extremal_incomplete_census():
    census = enumerate_supertrees(9, 3)
    gutted = Census(
        n=census.n,
        k=census.k,
        records=tuple(r for r in census.records if not r.is_hyperstar),
    )
    with pytest.raises(IncompleteCensus):
        verify_extremal(gutted)
    no_ds1 = Census(
        n=census.n,
        k=census.k,
        records=tuple(
            dataclasses.replace(r, is_double_star_1=False) for r in census.records
        ),
    )
    with pytest.raises(IncompleteCensus):
        verify_extremal(no_ds1)


CLAIMS = [
    "hyperstar-maximal",
    "second-largest-double-star",
    "loose-path-minimal-among-powers",
]


@pytest.fixture(scope="module")
def c11():
    """The k=3, m=5 census: eight shapes."""
    return enumerate_supertrees(11, 3)


# Each claim: its name, the flagged winner, the records it must beat, and
# whether the winner is the largest (else the smallest) of them.
def _claims(census):
    recs = census.records
    star = next(r for r in recs if r.is_hyperstar)
    ds1 = next(r for r in recs if r.is_double_star_1)
    path = next(r for r in recs if r.is_loose_path)
    return {
        "hyperstar-maximal": (star, [r for r in recs if r is not star], True),
        "second-largest-double-star": (
            ds1, [r for r in recs if r is not star and r is not ds1], True
        ),
        "loose-path-minimal-among-powers": (
            path, [r for r in recs if r.is_tree_power and r is not path], False
        ),
    }


def _with_bracket(census, target, kind, lower, upper):
    """census with target's bracket for kind replaced; its radius, the
    bracket's midpoint, moves with it."""
    def edit(r):
        if r is not target:
            return r
        solves = {key: dict(stats) for key, stats in r.solves.items()}
        solves[kind].update(lower=lower, upper=upper)
        return dataclasses.replace(r, solves=solves)

    return Census(census.n, census.k, tuple(edit(r) for r in census.records))


def _assertion(report, name, kind):
    (a,) = [a for a in report.assertions if (a.name, a.kind) == (name, kind.value)]
    return a


@pytest.mark.parametrize("n,k", [(11, 3), (13, 4)])
def test_verify_extremal_margin_is_the_certified_gap(n, k):
    census = enumerate_supertrees(n, k)
    report = verify_extremal(census)
    assert len(report.assertions) == 9
    for name, (winner, others, largest) in _claims(census).items():
        for kind in KINDS:
            lo, hi = winner.solves[kind]["lower"], winner.solves[kind]["upper"]
            if largest:
                gap = lo - max(r.solves[kind]["upper"] for r in others)
            else:
                gap = min(r.solves[kind]["lower"] for r in others) - hi
            a = _assertion(report, name, kind)
            assert a.passed and a.detail.startswith("certified")
            assert a.margin == gap


def _farthest(others, largest, kind):
    # the competitor furthest from the winner, never the runner-up
    pick = min if largest else max
    return pick(others, key=lambda r: r.radii[kind])


@pytest.mark.parametrize("name", CLAIMS)
def test_verify_extremal_overlapping_brackets_are_undecided(c11, name):
    for kind in KINDS:
        winner, others, largest = _claims(c11)[name]
        rival = _farthest(others, largest, kind)
        lo, hi = rival.solves[kind]["lower"], rival.solves[kind]["upper"]
        if largest:  # raise the rival's upper end past the winner's lower end
            hi = winner.solves[kind]["lower"] + 1e-6
        else:
            lo = winner.solves[kind]["upper"] - 1e-6
        a = _assertion(verify_extremal(_with_bracket(c11, rival, kind, lo, hi)), name, kind)
        assert not a.passed
        assert a.detail.startswith("undecided")
        assert a.margin < 0


@pytest.mark.parametrize("name", CLAIMS)
def test_verify_extremal_separated_wrong_way_is_refuted(c11, name):
    for kind in KINDS:
        winner, others, largest = _claims(c11)[name]
        rival = _farthest(others, largest, kind)
        if largest:  # move the rival's bracket wholly above the winner's
            lo = winner.solves[kind]["upper"] + 0.5
            hi = lo + 1e-11
        else:
            hi = winner.solves[kind]["lower"] - 0.5
            lo = hi - 1e-11
        a = _assertion(verify_extremal(_with_bracket(c11, rival, kind, lo, hi)), name, kind)
        assert not a.passed
        assert a.detail.startswith("refuted")


def test_verify_extremal_hyperstar_off_its_closed_form_fails(c11):
    star = next(r for r in c11.records if r.is_hyperstar)
    for kind in KINDS:
        lo, hi = star.solves[kind]["lower"], star.solves[kind]["upper"]
        shifted = _with_bracket(c11, star, kind, lo + 1e-9, hi + 1e-9)
        report = verify_extremal(shifted)
        a = _assertion(report, "hyperstar-maximal", kind)
        assert not a.passed
        assert "outside the bracket" in a.detail
        assert [b for b in report.assertions if not b.passed] == [a]


def test_brute_force_bad_dimensions():
    with pytest.raises(BadDimensions):
        brute_force_supertrees(6, 3)
