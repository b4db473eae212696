import numpy as np
import pytest

from hypertree_spectra import (
    TensorKind,
    alpha_star,
    apply,
    bounds_report,
    closed_form_hyperstar,
    dense_build,
    hyperstar,
    hyperstar_orbits,
    loose_path,
    loose_path_reflection_orbits,
    matrix_spectral_radius,
    orbit_constancy_check,
    rayleigh,
    s_cycle,
    single_edge,
    spectral_radius,
    validate,
)
from hypertree_spectra.canon import relabel
from hypertree_spectra.errors import (
    BadDimensions,
    BadPartition,
    Disconnected,
    NoConvergence,
    NotSquare,
)

KINDS = list(TensorKind)


def dense_power_iteration(dense, tol=1e-12, max_iter=200000):
    """Independent oracle: shifted power iteration run directly on the
    materialized tensor."""
    k, n = dense.k, dense.n
    x = np.full(n, n ** (-1.0 / k))
    for _ in range(max_iter):
        y = dense.contract(x) + x ** (k - 1)
        ratios = y / x ** (k - 1)
        if ratios.max() - ratios.min() <= tol:
            return 0.5 * (ratios.max() + ratios.min()) - 1.0
        x = y ** (1.0 / (k - 1))
        x = x / (x**k).sum() ** (1.0 / k)
    raise AssertionError("dense oracle did not converge")


def test_hyperstar_adjacency_closed_form():
    result = spectral_radius(TensorKind.Adjacency, hyperstar(7, 3))
    assert result.rho == pytest.approx(3 ** (1 / 3), abs=1e-8)


def test_single_edge_k4_incidence_q():
    g = single_edge(4)
    result = spectral_radius(TensorKind.IncidenceQ, g)
    assert result.rho == pytest.approx(64.0, abs=1e-8)
    assert np.allclose(result.eigvec, result.eigvec[0])


def test_loose_path_adjacency_between_brackets():
    result = spectral_radius(TensorKind.Adjacency, loose_path(7, 3))
    assert 2 ** (1 / 3) < result.rho < 3 ** (1 / 3)
    oracle = dense_power_iteration(
        dense_build(TensorKind.Adjacency, loose_path(7, 3))
    )
    assert result.rho == pytest.approx(oracle, abs=1e-8)


def test_spectral_radius_disconnected():
    g = validate([[1, 2, 3], [4, 5, 6]], 6)
    with pytest.raises(Disconnected):
        spectral_radius(TensorKind.Adjacency, g)


def test_spectral_radius_no_convergence():
    with pytest.raises(NoConvergence) as exc:
        spectral_radius(TensorKind.Adjacency, loose_path(9, 3), max_iter=2)
    assert exc.value.lower is not None


def test_result_invariants(corpus_instance):
    g = corpus_instance
    tol = 1e-10
    for kind in KINDS:
        r = spectral_radius(kind, g, tol=tol)
        assert r.lower <= r.rho <= r.upper
        assert r.upper - r.lower <= tol
        assert (r.eigvec > 0).all()
        assert (r.eigvec**g.k).sum() == pytest.approx(1.0, abs=1e-12)
        # eigen-residual
        xk1 = r.eigvec ** (g.k - 1)
        assert np.max(np.abs(apply(kind, g, r.eigvec) - r.rho * xk1)) <= 10 * tol
        # rayleigh consistency
        assert rayleigh(kind, g, r.eigvec) == pytest.approx(r.rho, abs=10 * tol)


def test_shift_invariance(corpus_instance):
    g = corpus_instance
    tol = 1e-10
    for kind in KINDS:
        a = spectral_radius(kind, g, tol=tol, shift=1.0)
        b = spectral_radius(kind, g, tol=tol, shift=2.0)
        assert abs(a.rho - b.rho) <= 2 * tol


def test_relabeling_invariance(rng):
    tol = 1e-10
    for g in [loose_path(9, 3), hyperstar(9, 3), s_cycle(4, 1, 3)]:
        perm_list = list(rng.permutation(np.arange(1, g.n + 1)))
        perm = {old: int(new) for old, new in zip(range(1, g.n + 1), perm_list)}
        h = relabel(g, perm)
        for kind in KINDS:
            assert abs(
                spectral_radius(kind, g, tol=tol).rho
                - spectral_radius(kind, h, tol=tol).rho
            ) <= 2 * tol


def test_dense_oracle_agreement(small_instance):
    g = small_instance
    for kind in KINDS:
        fast = spectral_radius(kind, g).rho
        oracle = dense_power_iteration(dense_build(kind, g))
        assert fast == pytest.approx(oracle, abs=1e-8)


def test_matrix_spectral_radius_hyperstar_gram():
    # R^T R of S_{7,3}: diagonal 3, off-diagonal 1; char. polynomial
    # (x-2)^2 (x-5) so rho = 5 = (k-1) + m
    gram = np.full((3, 3), 1.0) + 2 * np.eye(3)
    assert matrix_spectral_radius(gram) == pytest.approx(5.0, abs=1e-10)


def test_matrix_spectral_radius_s_cycle():
    from hypertree_spectra import incidence_matrix

    r = incidence_matrix(s_cycle(4, 2, 4)).to_dense()
    assert matrix_spectral_radius(r.T @ r) == pytest.approx(8.0, abs=1e-10)


def test_matrix_spectral_radius_identity():
    assert matrix_spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-12)


def test_matrix_spectral_radius_not_square():
    with pytest.raises(NotSquare):
        matrix_spectral_radius(np.ones((2, 3)))


def test_alpha_star_m1():
    for k in (2, 3, 4, 7):
        assert alpha_star(1, k) == pytest.approx(1.0, abs=1e-12)


def test_alpha_star_m3_k3():
    root = alpha_star(3, 3)
    # frozen from the bisection oracle (the largest real root of
    # x^3 - 2x^2 - 3 is 2.48558..., not 2.4860)
    assert root == pytest.approx(2.485584, abs=1e-6)
    assert abs(root**3 - 2 * root**2 - 3) <= 1e-11
    rho = spectral_radius(TensorKind.SignlessLaplacian, hyperstar(7, 3)).rho
    assert rho == pytest.approx(1 + root, abs=1e-8)


def test_alpha_star_m2_k3_bracket():
    root = alpha_star(2, 3)

    def f(x):
        return x**3 - x**2 - 2

    assert f(1.69) < 0 < f(1.70)
    assert 1.69 < root < 1.70


def test_alpha_star_consistency():
    for n, k in [(5, 3), (7, 3), (9, 3), (13, 4)]:
        m = (n - 1) // (k - 1)
        rho = spectral_radius(TensorKind.SignlessLaplacian, hyperstar(n, k)).rho
        assert rho == pytest.approx(1 + alpha_star(m, k), abs=1e-7)


def test_alpha_star_large_star_terminates():
    # for m >~ 513 one ulp of m exceeds an absolute 1e-13, so the bisection
    # must stop on a relative width or when the midpoint stops moving
    m, k = 600, 3
    q_root = closed_form_hyperstar(TensorKind.SignlessLaplacian, m * (k - 1) + 1, k) - 1
    for root in (alpha_star(m, k), q_root):
        assert m - 1 < root <= m
        assert abs(root**k - (m - 1) * root ** (k - 1) - m) <= 1e-12 * root**k


def test_closed_form_hyperstar_values():
    assert closed_form_hyperstar(TensorKind.IncidenceQ, 7, 3) == pytest.approx(
        7 + 4 * np.sqrt(3), abs=1e-12
    )
    assert closed_form_hyperstar(TensorKind.Adjacency, 4, 4) == pytest.approx(1.0)
    assert closed_form_hyperstar(TensorKind.IncidenceQ, 3, 3) == pytest.approx(9.0)
    with pytest.raises(BadDimensions):
        closed_form_hyperstar(TensorKind.Adjacency, 6, 3)


def test_bounds_report_hyperstar():
    rep = bounds_report(hyperstar(7, 3))
    assert rep.avg_degree == pytest.approx(9 / 7)
    assert rep.max_degree == 3
    assert rep.lower_deg == pytest.approx(9 * 9 / 7)
    assert rep.upper_deg == pytest.approx(27.0)
    assert rep.rho_rrt == pytest.approx(5.0, abs=1e-9)
    assert rep.sandwich_upper == pytest.approx(15.0, abs=1e-8)
    rho = spectral_radius(TensorKind.IncidenceQ, hyperstar(7, 3)).rho
    assert rep.lower_deg <= rho <= rep.upper_deg
    assert rep.rho_rrt < rho < rep.sandwich_upper


def test_bounds_collapse_on_regular():
    # regular examples: a single edge (1-regular) and an s-cycle with
    # k = 2s, where every vertex lies in exactly two edges
    for g in [single_edge(3), s_cycle(3, 2, 4)]:
        assert len(set(g.degrees)) == 1
        rep = bounds_report(g)
        rho = spectral_radius(TensorKind.IncidenceQ, g).rho
        assert rep.lower_deg == pytest.approx(rep.upper_deg)
        assert rho == pytest.approx(rep.lower_deg, abs=1e-7)


def test_degree_sandwich_all_corpus(corpus_instance):
    g = corpus_instance
    rep = bounds_report(g)
    rho = spectral_radius(TensorKind.IncidenceQ, g).rho
    assert rep.lower_deg <= rho + 1e-8
    assert rho <= rep.upper_deg + 1e-8
    if g.k >= 3:
        scale = max(abs(rho), 1.0)
        assert rho - rep.rho_rrt > 1e-8 * scale
        if len(set(g.degrees)) == 1:
            # on regular instances the uniform eigenvector makes the
            # power-mean step an equality, so the upper comparison is
            # attained exactly rather than strictly
            assert rep.sandwich_upper == pytest.approx(rho, rel=1e-7)
        else:
            assert rep.sandwich_upper - rho > 1e-8 * scale


def test_bounds_report_disconnected():
    with pytest.raises(Disconnected):
        bounds_report(validate([[1, 2, 3], [4, 5, 6]], 6))


def test_orbit_constancy_hyperstar():
    g = hyperstar(7, 3)
    result = spectral_radius(TensorKind.IncidenceQ, g)
    assert orbit_constancy_check(g, hyperstar_orbits(7, 3), result)


def test_orbit_constancy_loose_path():
    g = loose_path(7, 3)
    for kind in KINDS:
        result = spectral_radius(kind, g)
        assert orbit_constancy_check(g, loose_path_reflection_orbits(7, 3), result)


def test_orbit_constancy_wrong_partition():
    g = hyperstar(7, 3)
    result = spectral_radius(TensorKind.IncidenceQ, g)
    bad = [{1, 2}, {3, 4, 5, 6, 7}]  # mixes center and a leaf
    assert not orbit_constancy_check(g, bad, result)


def test_orbit_constancy_bad_partition():
    g = hyperstar(7, 3)
    result = spectral_radius(TensorKind.IncidenceQ, g)
    with pytest.raises(BadPartition):
        orbit_constancy_check(g, [{1, 2}, {2, 3, 4, 5, 6, 7}], result)
    with pytest.raises(BadPartition):
        orbit_constancy_check(g, [{1, 2, 3}], result)
