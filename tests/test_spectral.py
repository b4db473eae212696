import numpy as np
import pytest

from hypertree_spectra import (
    TensorKind,
    alpha_star,
    apply,
    automorphism_orbits,
    bounds_report,
    closed_form_hyperstar,
    dense_build,
    double_star,
    enumerate_trees,
    hyperstar,
    loose_path,
    matrix_spectral_radius,
    s_cycle,
    single_edge,
    spectral_radii,
    spectral_radius,
    tree_power,
    validate,
)
from hypertree_spectra import spectral
from hypertree_spectra.census import ROUNDING_PAD, _supertree_shapes
from hypertree_spectra.errors import (
    BadDimensions,
    BadParameter,
    DimensionMismatch,
    Disconnected,
    NoConvergence,
    NotSquare,
)
from hypertree_spectra.spectral import _elimination_order, _newton_noda_step, _schedule
from hypertree_spectra.tensors import _edge_index, _row_offset
from oracles import dense_power_iteration, orbit_constancy_check, rayleigh, relabel

KINDS = list(TensorKind)
KIND_IDS = [k.value for k in KINDS]


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
    lower, upper = dense_power_iteration(
        dense_build(TensorKind.Adjacency, loose_path(7, 3))
    )
    assert result.rho == pytest.approx(0.5 * (lower + upper), abs=1e-8)


def test_spectral_radius_disconnected():
    g = validate([[1, 2, 3], [4, 5, 6]], 6)
    with pytest.raises(Disconnected):
        spectral_radius(TensorKind.Adjacency, g)


def test_spectral_radius_no_convergence():
    with pytest.raises(NoConvergence) as exc:
        spectral_radius(TensorKind.Adjacency, loose_path(9, 3), max_iter=2)
    assert exc.value.lower is not None


@pytest.mark.parametrize(
    "tol,max_iter", [(0.0, 100), (-1e-9, 100), (float("nan"), 100), (1e-10, 0)]
)
def test_bad_solver_parameters(tol, max_iter):
    g = loose_path(9, 3)
    with pytest.raises(BadParameter):
        spectral_radius(TensorKind.Adjacency, g, tol=tol, max_iter=max_iter)
    with pytest.raises(BadParameter):
        spectral_radii(TensorKind.Adjacency, [g], tol=tol, max_iter=max_iter)


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_batch_matches_single_solves_on_census(kind):
    """Each row of the batched k=3, m=8 census runs the single iteration."""
    graphs = _supertree_shapes(8, 3)
    batch = spectral_radii(kind, graphs)
    assert len(batch) == len(graphs) == 126
    for g, row in zip(graphs, batch):
        single = spectral_radius(kind, g)
        assert row.iterations == single.iterations
        assert abs(row.rho - single.rho) <= 1e-13
        assert abs(row.lower - single.lower) <= 1e-13
        assert abs(row.upper - single.upper) <= 1e-13
        assert np.max(np.abs(row.eigvec - single.eigvec)) <= 1e-13
    assert len({row.iterations for row in batch}) > 1  # rows freeze apart
    assert max(row.iterations for row in batch) <= 30


def test_batch_mixing_newton_and_power_rows_matches_single_solves(monkeypatch):
    """With a patience of one step, four rows leave Newton-Noda within the
    first steps and finish with hundreds of power steps, while the others
    close their brackets on Newton-Noda steps; each row still runs exactly
    its single iteration."""
    monkeypatch.setattr(spectral, "NEWTON_PATIENCE", 1)
    rng = np.random.default_rng(3)
    trees = [[int(rng.integers(1, i + 2)) for i in range(60)] for _ in range(40)]
    graphs = [tree_power(parents, 3) for parents in trees]
    kind = TensorKind.IncidenceQ
    batch = spectral_radii(kind, graphs)
    for g, row in zip(graphs, batch):
        single = spectral_radius(kind, g)
        assert (row.iterations, row.lower, row.upper) == (
            single.iterations, single.lower, single.upper
        )
    iterations = sorted(row.iterations for row in batch)
    assert iterations[-5] < 20 and iterations[-4] > 200


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_newton_steps_on_long_path(kind):
    # power iteration needs O(m^2) steps here (5960 for adj, 9890 for q,
    # 5707 for qstar)
    result = spectral_radius(kind, loose_path(121, 3))
    assert result.iterations <= 30
    assert result.upper - result.lower <= 1e-10


def test_newton_budget_below_rounding_floor():
    # tol below the rounding floor: the q solve runs out of its budget
    # with a finite bracket around the default-tol radius
    g = loose_path(121, 3)
    rho = spectral_radius(TensorKind.SignlessLaplacian, g).rho
    with pytest.raises(NoConvergence) as exc:
        spectral_radius(TensorKind.SignlessLaplacian, g, tol=1e-300, max_iter=50)
    err = exc.value
    assert np.isfinite(err.lower) and np.isfinite(err.upper)
    assert err.lower <= rho <= err.upper


@pytest.mark.parametrize(
    "kind,g",
    [
        (TensorKind.Adjacency, loose_path(13, 4)),
        (TensorKind.SignlessLaplacian, loose_path(16, 4)),
        (TensorKind.SignlessLaplacian, hyperstar(9, 3)),
        (TensorKind.IncidenceQ, hyperstar(15, 3)),
    ],
    ids=["adj-path", "q-path", "q-star", "qstar-star"],
)
def test_newton_below_rounding_floor_finishes_with_power_steps(kind, g):
    """With tol below the rounding floor a Newton step fails (the path:
    the root pivot of the elimination rounds to zero) or the bracket stops
    shrinking (the stars).  The row goes on with power steps, and the
    budget ends with a finite bracket around the default-tol radius."""
    rho = spectral_radius(kind, g).rho
    with pytest.raises(NoConvergence) as exc:
        spectral_radius(kind, g, tol=1e-300, max_iter=50)
    err = exc.value
    assert err.iterations == 50 and "no convergence after 50 iterations" in str(err)
    assert np.isfinite(err.lower) and np.isfinite(err.upper)
    pad = ROUNDING_PAD * rho
    assert err.lower - pad <= rho <= err.upper + pad


def test_newton_closes_bracket_exactly():
    """Below the rounding floor a bracket can also close exactly: on this
    star every ratio rounds to the same value, and the width-0 bracket
    holds the closed form within the rounding pad."""
    kind, g = TensorKind.SignlessLaplacian, hyperstar(7, 4)
    result = spectral_radius(kind, g, tol=1e-300, max_iter=50)
    assert result.lower == result.upper and result.iterations <= 30
    rho = closed_form_hyperstar(kind, g.n, g.k)
    pad = ROUNDING_PAD * rho
    assert result.lower - pad <= rho <= result.upper + pad


def _step_schedule(graphs):
    n = graphs[0].n
    return _schedule(*_elimination_order(_edge_index(graphs), n), n)


def test_newton_step_fails_on_singular_system():
    # x is the Perron vector of the k=2 edge and top its exact radius, so
    # the first row's Z is singular and its step is not finite; the second
    # row's bracket is open and it steps to a positive y
    schedule = _step_schedule([single_edge(2)] * 2)
    x = np.array([[2**-0.5, 2**-0.5], [0.6, 0.8]])
    top = np.array([2.0, 1.4 / 0.6])
    y = _newton_noda_step(TensorKind.IncidenceQ, schedule, x, x, top)
    assert not np.isfinite(y[0]).any()
    assert np.isfinite(y[1]).all() and (y[1] > 0).all()


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("k,m", [(2, 4), (3, 3), (4, 3), (5, 3)])
def test_newton_step_matches_dense_solve(kind, k, m):
    """The step eliminates by Sherman-Morrison along the supertree; here
    Z = top diag(x^{[k-2]}) - M(x) is built from the dense tensor contracted
    k-2 times and solved by LAPACK, for a batch of census shapes and x
    spread up to 1e-6..1, with top above each row's bracket."""
    graphs = _supertree_shapes(m, k)
    assert len(graphs) >= 2
    n = graphs[0].n
    schedule = _step_schedule(graphs)
    rng = np.random.default_rng(100 * k + m)
    shape = (len(graphs), n)
    draws = [rng.random(shape) + 0.05, rng.random(shape) + 0.05, 10.0 ** rng.uniform(-6, 0, shape)]
    for x in draws:
        xk1 = x ** (k - 1)
        ratios = np.array([apply(kind, g, row) for g, row in zip(graphs, x)]) / xk1
        top = ratios.max(axis=1) * (1 + rng.random(len(graphs)))
        y = _newton_noda_step(kind, schedule, x, xk1, top)
        for g, row, rhs, lam, got in zip(graphs, x, xk1, top, y):
            mx = dense_build(kind, g).values
            for _ in range(k - 2):
                mx = mx @ row
            w = np.linalg.solve(lam * np.diag(row ** (k - 2)) - mx, rhs)
            want = (k - 2) * row + (rhs @ row) / (rhs @ w) * w
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_newton_step_calls_no_lapack(kind, monkeypatch):
    """The step solves no block with np.linalg.solve: a census batch still
    takes Newton-Noda steps with it made to raise."""

    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    results = spectral_radii(kind, _supertree_shapes(6, 3))
    assert max(r.iterations for r in results) <= 30


@pytest.mark.parametrize("k,m", [(2, 9), (3, 8), (4, 6)])
def test_elimination_order_on_census(k, m):
    """The order keeps every edge, makes each vertex but one root per row
    (the one the schedule names) the child of exactly one edge, and takes
    an edge only after every edge whose parent is one of its children."""
    graphs = _supertree_shapes(m, k)
    n = graphs[0].n
    idx, height = _elimination_order(_edge_index(graphs), n)
    roots = _schedule(idx, height, n)[2] - n * np.arange(len(graphs))
    for g, edges, heights, root in zip(graphs, idx, height, roots):
        assert sorted(tuple(sorted(e + 1)) for e in edges) == list(g.edges)
        children = edges[:, 1:].ravel()
        assert len(set(children.tolist())) == len(children) == n - 1
        assert root not in children
        child_height = dict(zip(children.tolist(), np.repeat(heights, k - 1).tolist()))
        for e, h in zip(edges, heights):
            assert child_height.get(int(e[0]), m) > h


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_newton_on_large_star(kind):
    # a dense n x n system would take 3.2 GB per row at n = 20001; the
    # elimination holds one k x k block per edge.  For q and qstar Newton's
    # bracket stalls at its rounding floor, 1e-13 relative and above tol,
    # and power steps close it.
    n = 20001
    result = spectral_radius(kind, hyperstar(n, 3))
    rho = closed_form_hyperstar(kind, n, 3)
    pad = ROUNDING_PAD * rho
    assert result.lower - pad <= rho <= result.upper + pad
    assert result.iterations <= 30


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_out_of_patience_rows_take_power_steps(kind, monkeypatch):
    """With no patience every row hands over to power steps at once: the
    solve is the shifted power iteration, and its bracket overlaps the
    dense oracle's."""
    monkeypatch.setattr(spectral, "NEWTON_PATIENCE", 0)
    g = loose_path(9, 3)
    result = spectral_radius(kind, g)
    assert result.iterations > 30
    lower, upper = dense_power_iteration(dense_build(kind, g))
    pad = ROUNDING_PAD * result.rho
    assert result.lower <= upper + pad and lower <= result.upper + pad


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_newton_on_long_path_with_1000_edges(kind):
    # the power iteration would need millions of steps here
    result = spectral_radius(kind, loose_path(2001, 3))
    assert result.iterations <= 30
    assert result.upper - result.lower <= 1e-10


def _tree_power_bracket_check(parents, k, result):
    """The bracket of rho(A(T^k)) holds rho(A(T))^{2/k} (Zhou, Sun, Wang &
    Bu 2014), with the tree's radius from eigvalsh, within the rounding pad."""
    n_prime = len(parents) + 1
    adj = np.zeros((n_prime, n_prime))
    for i, p in enumerate(parents):
        adj[p - 1, i + 1] = adj[i + 1, p - 1] = 1.0
    rho = np.linalg.eigvalsh(adj)[-1] ** (2.0 / k)
    pad = ROUNDING_PAD * max(1.0, rho)
    assert result.lower - pad <= rho <= result.upper + pad
    assert result.iterations <= 30


@pytest.mark.parametrize("k,top", [(3, 8), (4, 6)])
def test_adjacency_tree_powers_on_census(k, top):
    for m in range(1, top + 1):
        trees = enumerate_trees(m + 1)
        graphs = [tree_power(parents, k) for parents in trees]
        for parents, result in zip(trees, spectral_radii(TensorKind.Adjacency, graphs)):
            _tree_power_bracket_check(parents, k, result)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_adjacency_tree_powers_on_random_trees(k):
    rng = np.random.default_rng(k)
    for _ in range(100):
        m = int(rng.integers(1, 60))
        parents = [int(rng.integers(1, i + 2)) for i in range(m)]
        result = spectral_radius(TensorKind.Adjacency, tree_power(parents, k))
        _tree_power_bracket_check(parents, k, result)


def test_batch_disconnected_member():
    connected = loose_path(7, 3)
    split = validate([[1, 2, 3], [1, 2, 4], [5, 6, 7]], 7)  # same (n, m, k)
    with pytest.raises(Disconnected):
        spectral_radii(TensorKind.Adjacency, [connected, split, connected])
    # the leaf peeling alone rejects the cycle
    with pytest.raises(Disconnected):
        _elimination_order(_edge_index([connected, split, connected]), 7)


def test_supertree_batches_skip_the_connectivity_search(monkeypatch):
    monkeypatch.setattr(spectral, "is_connected", lambda g: pytest.fail("searched a supertree"))
    graphs = [loose_path(7, 3), hyperstar(7, 3)]
    assert len(spectral_radii(TensorKind.Adjacency, graphs)) == 2


def test_batch_no_convergence_reports_widest_bracket():
    graphs = [hyperstar(9, 3), loose_path(9, 3), double_star(1, 2, 3)]
    with pytest.raises(NoConvergence) as exc:
        spectral_radii(TensorKind.Adjacency, graphs, max_iter=2)
    err = exc.value
    assert err.iterations == 2
    assert np.isfinite(err.lower) and np.isfinite(err.upper)
    widths = []
    for g in graphs:
        with pytest.raises(NoConvergence) as single:
            spectral_radius(TensorKind.Adjacency, g, max_iter=2)
        widths.append(single.value.upper - single.value.lower)
    assert err.upper - err.lower == pytest.approx(max(widths), rel=1e-12)


def test_batch_mixed_shapes():
    with pytest.raises(DimensionMismatch):
        spectral_radii(TensorKind.Adjacency, [loose_path(7, 3), loose_path(9, 3)])
    with pytest.raises(DimensionMismatch):
        spectral_radii(TensorKind.Adjacency, [loose_path(7, 3), single_edge(7)])
    with pytest.raises(DimensionMismatch):  # same n and k, fewer edges
        spectral_radii(TensorKind.Adjacency, [loose_path(7, 3), validate([[1, 2, 3]], 7, k=3)])
    assert spectral_radii(TensorKind.Adjacency, []) == []


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
    # the dense oracle's radius does not depend on its shift, and the
    # solver agrees with it at either shift
    g = corpus_instance
    tol = 1e-10
    for kind in KINDS:
        rho = spectral_radius(kind, g, tol=tol).rho
        dense = dense_build(kind, g)
        for shift in (1.0, 2.0):
            lower, upper = dense_power_iteration(dense, shift=shift)
            assert abs(rho - 0.5 * (lower + upper)) <= 2 * tol


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
        fast = spectral_radius(kind, g)
        lower, upper = dense_power_iteration(dense_build(kind, g))
        assert fast.rho == pytest.approx(0.5 * (lower + upper), abs=1e-8)
        # both brackets are certified, so they overlap up to rounding
        pad = ROUNDING_PAD * max(1.0, abs(fast.rho))
        assert fast.lower <= upper + pad and lower <= fast.upper + pad


def test_matrix_spectral_radius_hyperstar_gram():
    # R^T R of S_{7,3}: diagonal 3, off-diagonal 1; char. polynomial
    # (x-2)^2 (x-5) so rho = 5 = (k-1) + m
    gram = np.full((3, 3), 1.0) + 2 * np.eye(3)
    assert matrix_spectral_radius(gram) == pytest.approx(5.0, abs=1e-10)


def test_matrix_spectral_radius_s_cycle():
    from hypertree_spectra import incidence_matrix

    r = incidence_matrix(s_cycle(4, 2, 4))
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


@pytest.mark.parametrize(
    "g",
    [hyperstar(5, 2), loose_path(6, 2), double_star(1, 2, 2), tree_power([1, 1, 2, 3, 3], 2)],
    ids=["star", "path", "double_star", "tree"],
)
def test_incidence_sandwich_collapses_at_k2(g):
    # at k = 2 the incidence Q-tensor is the matrix RR^T, so the sandwich
    # rho(RR^T) <= rho(Q*) <= k^{k-2} rho(RR^T) holds with equality
    rep = bounds_report(g)
    rho = spectral_radius(TensorKind.IncidenceQ, g).rho
    assert rep.rho_rrt == rep.sandwich_upper
    assert abs(rep.rho_rrt - rho) <= 1e-8
    assert abs(rep.sandwich_upper - rho) <= 1e-8


def test_bounds_report_one_vertex_edgeless():
    # R is 1 x 0: the Gram matrix used is the nonempty 1 x 1 one
    rep = bounds_report(validate([], 1, k=3))
    assert rep.rho_rrt == 0.0
    assert rep.sandwich_upper == 0.0
    assert (rep.max_degree, rep.upper_deg) == (0, 0.0)


def test_bounds_report_disconnected():
    with pytest.raises(Disconnected):
        bounds_report(validate([[1, 2, 3], [4, 5, 6]], 6))


def test_orbit_constancy_hyperstar():
    g = hyperstar(7, 3)
    result = spectral_radius(TensorKind.IncidenceQ, g)
    assert orbit_constancy_check(g, automorphism_orbits(g), result)


def test_orbit_constancy_loose_path():
    g = loose_path(7, 3)
    for kind in KINDS:
        result = spectral_radius(kind, g)
        assert orbit_constancy_check(g, automorphism_orbits(g), result)


@pytest.mark.parametrize("k,top", [(2, 7), (3, 6), (4, 5)])
def test_orbit_constancy_over_census(k, top):
    # the batched Perron vector is constant on every automorphism orbit
    for m in range(1, top + 1):
        graphs = _supertree_shapes(m, k)
        for kind in KINDS:
            for g, result in zip(graphs, spectral_radii(kind, graphs)):
                assert orbit_constancy_check(g, automorphism_orbits(g), result)


def test_orbit_constancy_wrong_partition():
    g = hyperstar(7, 3)
    result = spectral_radius(TensorKind.IncidenceQ, g)
    bad = [{1, 2}, {3, 4, 5, 6, 7}]  # mixes center and a leaf
    assert not orbit_constancy_check(g, bad, result)


def test_orbit_constancy_bad_partition():
    g = hyperstar(7, 3)
    result = spectral_radius(TensorKind.IncidenceQ, g)
    with pytest.raises(ValueError):
        orbit_constancy_check(g, [{1, 2}, {2, 3, 4, 5, 6, 7}], result)
    with pytest.raises(ValueError):
        orbit_constancy_check(g, [{1, 2, 3}], result)
