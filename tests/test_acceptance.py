"""Acceptance gate: one test (and one pass/fail line under -v) per criterion.

Each criterion is asserted at its stated tolerance; numeric margins are
printed so they appear in captured output on failure and under -s.
"""

import numpy as np
import pytest

from hypertree_spectra import (
    TensorKind,
    alpha_star,
    apply,
    bounds_report,
    canonical_form,
    closed_form_hyperstar,
    dense_build,
    double_star,
    enumerate_supertrees,
    hyperstar,
    incidence_matrix,
    loose_path,
    pendent_edges,
    s_cycle,
    single_edge,
    spectral_radius,
    tree_power,
)
from hypertree_spectra.errors import NotPendentPaths
from hypertree_spectra.transforms import (
    edge_release_best,
    find_pendent_paths,
    total_graft,
)
from oracles import (
    automorphism_orbits,
    dense_power_iteration,
    enumerate_trees,
    orbit_constancy_check,
    rayleigh,
    relabel,
)

from conftest import CORPUS, SMALL

KINDS = tuple(TensorKind)


def _done(num, name, **margins):
    detail = " ".join(f"{k}={v:.3e}" for k, v in margins.items())
    print(f"[acceptance {num:02d}] PASS {name} {detail}".rstrip())


def test_criterion_01_hyperstar_adjacency_closed_form():
    worst = 0.0
    for m in range(1, 7):
        n = 2 * m + 1
        rho = spectral_radius(TensorKind.Adjacency, hyperstar(n, 3)).rho
        err = abs(rho - m ** (1 / 3))
        worst = max(worst, err)
        assert err <= 1e-8
    _done(1, "hyperstar adjacency radius equals m^(1/3)", max_error=worst)


def test_criterion_02_hyperstar_incidence_q_closed_form():
    rho = spectral_radius(TensorKind.IncidenceQ, hyperstar(7, 3)).rho
    assert abs(rho - (7 + 4 * np.sqrt(3))) <= 1e-6
    assert abs(rho - 13.92820323) <= 1e-6
    worst = 0.0
    for n, k in [(9, 3), (13, 4), (16, 4)]:
        rho = spectral_radius(TensorKind.IncidenceQ, hyperstar(n, k)).rho
        err = abs(rho - closed_form_hyperstar(TensorKind.IncidenceQ, n, k))
        worst = max(worst, err)
        assert err <= 1e-6
    _done(2, "hyperstar incidence-Q radius matches closed form", max_error=worst)


def test_criterion_03_hyperstar_signless_laplacian_alpha_star():
    worst = 0.0
    for k in (3, 4):
        for m in range(1, 6):
            n = m * (k - 1) + 1
            rho = spectral_radius(TensorKind.SignlessLaplacian, hyperstar(n, k)).rho
            err = abs(rho - (1 + alpha_star(m, k)))
            worst = max(worst, err)
            assert err <= 1e-7
    _done(3, "hyperstar signless-Laplacian radius equals 1 + alpha*", max_error=worst)


def test_criterion_04_hyperstar_unique_maximizer_over_census():
    least_margin = float("inf")
    for n, k in [(7, 3), (9, 3), (13, 4)]:
        census = enumerate_supertrees(n, k)
        for kind in KINDS:
            ordered = sorted(
                census.records, key=lambda r: r.radii[kind], reverse=True
            )
            assert ordered[0].is_hyperstar
            margin = ordered[0].radii[kind] - ordered[1].radii[kind]
            least_margin = min(least_margin, margin)
            assert margin > 1e-8
    _done(4, "hyperstar is the unique census maximizer", min_margin=least_margin)


def test_criterion_05_second_largest_is_double_star():
    least_margin = float("inf")
    for n in (9, 11):
        census = enumerate_supertrees(n, 3)
        expected = canonical_form(double_star(1, census.m - 2, 3))
        for kind in KINDS:
            ordered = sorted(
                census.records, key=lambda r: r.radii[kind], reverse=True
            )
            assert ordered[1].hypergraph.edges == expected
            margin = ordered[1].radii[kind] - ordered[2].radii[kind]
            least_margin = min(least_margin, margin)
            assert margin > 1e-8
    _done(5, "second-largest is the (1, n'-3) double star", min_margin=least_margin)


def test_criterion_06_loose_path_minimal_among_tree_powers():
    least_margin = float("inf")
    k = 3
    for n_prime in (4, 5, 6):
        path_parents = list(range(1, n_prime))
        path_form = canonical_form(tree_power(path_parents, k))
        powers = [tree_power(p, k) for p in enumerate_trees(n_prime)]
        for kind in KINDS:
            scored = sorted(
                (spectral_radius(kind, g).rho, canonical_form(g)) for g in powers
            )
            assert scored[0][1] == path_form
            margin = scored[1][0] - scored[0][0]
            least_margin = min(least_margin, margin)
            assert margin > 1e-8
    _done(6, "loose path minimizes among tree powers", min_margin=least_margin)


def test_criterion_07_perturbation_monotonicity():
    census = enumerate_supertrees(9, 3)
    inc_margin = float("inf")
    dec_margin = float("inf")
    releases = grafts = 0
    for record in census.records:
        g = record.hypergraph
        non_pendent = set(range(g.m)) - pendent_edges(g)
        for kind in KINDS:
            before = spectral_radius(kind, g).rho
            for eid in non_pendent:
                if record.is_hyperstar:
                    continue
                after = spectral_radius(kind, edge_release_best(g, eid, kind=kind)).rho
                inc_margin = min(inc_margin, after - before)
                assert after - before > 1e-8
                releases += 1
            for v in range(1, g.n + 1):
                if g.degree(v) < 3:
                    continue
                lengths = sorted(
                    {p.length for p in find_pendent_paths(g, v)}
                )
                for p in lengths:
                    for q in lengths:
                        try:
                            h = total_graft(g, v, p, q)
                        except NotPendentPaths:
                            continue
                        after = spectral_radius(kind, h).rho
                        dec_margin = min(dec_margin, before - after)
                        assert before - after > 1e-8
                        grafts += 1
    assert releases > 0 and grafts > 0
    _done(
        7,
        "releases increase and grafts decrease every radius",
        min_increase=inc_margin,
        min_decrease=dec_margin,
    )


def test_criterion_08_degree_bounds_with_regular_equality():
    worst_slack = float("inf")
    for name, g in sorted(CORPUS.items()):
        rep = bounds_report(g)
        rho = spectral_radius(TensorKind.IncidenceQ, g).rho
        assert rep.lower_deg <= rho + 1e-8
        assert rho <= rep.upper_deg + 1e-8
        regular = len(set(g.degrees)) == 1
        if regular:
            assert abs(rho - rep.lower_deg) <= 1e-8
            assert abs(rho - rep.upper_deg) <= 1e-8
        else:
            assert rho - rep.lower_deg > 1e-8
            assert rep.upper_deg - rho > 1e-8
            worst_slack = min(worst_slack, rho - rep.lower_deg, rep.upper_deg - rho)
    _done(8, "degree bounds hold, tight exactly on regular instances", min_slack=worst_slack)


def test_criterion_09_incidence_gram_sandwich():
    lower_margin = float("inf")
    upper_margin = float("inf")
    for name, g in sorted(CORPUS.items()):
        if g.k < 3:
            continue
        rep = bounds_report(g)
        rho = spectral_radius(TensorKind.IncidenceQ, g).rho
        scale = max(rho, 1.0)
        assert rho - rep.rho_rrt > 1e-8 * scale
        lower_margin = min(lower_margin, rho - rep.rho_rrt)
        if len(set(g.degrees)) == 1:
            # uniform eigenvector: the upper comparison is an equality
            assert rep.sandwich_upper == pytest.approx(rho, rel=1e-7)
        else:
            assert rep.sandwich_upper - rho > 1e-8 * scale
            upper_margin = min(upper_margin, rep.sandwich_upper - rho)
    for m, s, k in [(3, 2, 4), (4, 1, 3), (5, 2, 5)]:
        r = incidence_matrix(s_cycle(m, s, k))
        assert abs(np.linalg.eigvalsh(r.T @ r)[-1] - (k + 2 * s)) <= 1e-10
    _done(
        9,
        "incidence Gram sandwich holds with reported margins",
        min_lower_margin=lower_margin,
        min_upper_margin=upper_margin,
    )


def test_criterion_10_dense_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    worst_rho = 0.0
    worst_apply = 0.0
    for name, g in sorted(SMALL.items()):
        for kind in KINDS:
            dense = dense_build(kind, g)
            # independent power iteration on the materialized tensor
            oracle = 0.5 * sum(dense_power_iteration(dense))
            err = abs(spectral_radius(kind, g).rho - oracle)
            worst_rho = max(worst_rho, err)
            assert err <= 1e-8
            for _ in range(100):
                v = rng.random(g.n)
                diff = np.max(np.abs(apply(kind, g, v) - dense.contract(v)))
                worst_apply = max(worst_apply, diff)
                assert diff <= 1e-10
    _done(
        10,
        "edge-based evaluation matches the dense oracle",
        max_rho_error=worst_rho,
        max_apply_error=worst_apply,
    )


def test_criterion_11_property_suite():
    rng = np.random.default_rng(20240817)
    # positive semidefiniteness of the incidence-Q form for even k
    for g in [single_edge(4), s_cycle(3, 2, 4), hyperstar(13, 4)]:
        for _ in range(1000):
            v = rng.normal(size=g.n)
            assert rayleigh(TensorKind.IncidenceQ, g, v) >= -1e-12
    # shift invariance of the dense oracle, which the solver matches
    for g in [hyperstar(9, 3), loose_path(9, 3)]:
        for kind in KINDS:
            rho = spectral_radius(kind, g).rho
            for shift in (1.0, 3.0):
                lower, upper = dense_power_iteration(dense_build(kind, g), shift=shift)
                assert abs(rho - 0.5 * (lower + upper)) <= 2e-10
    # relabeling invariance
    for g in [loose_path(9, 3), double_star(1, 2, 3)]:
        perm_list = [int(x) for x in rng.permutation(np.arange(1, g.n + 1))]
        h = relabel(g, dict(zip(range(1, g.n + 1), perm_list)))
        for kind in KINDS:
            assert abs(
                spectral_radius(kind, g).rho - spectral_radius(kind, h).rho
            ) <= 2e-10
    # orbit constancy of the Perron vector
    for kind in KINDS:
        star = hyperstar(9, 3)
        assert orbit_constancy_check(
            star, automorphism_orbits(star), spectral_radius(kind, star)
        )
        path = loose_path(9, 3)
        assert orbit_constancy_check(
            path, automorphism_orbits(path), spectral_radius(kind, path)
        )
    _done(11, "semidefiniteness, shift, relabeling, and orbit properties hold")
