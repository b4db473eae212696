import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree_spectra import (
    SpectralResult,
    TensorKind,
    alpha_star,
    apply,
    bounds_report,
    closed_form_hyperstar,
    dense_build,
    double_star,
    hyperstar,
    loose_path,
    s_cycle,
    single_edge,
    spectral_radii,
    spectral_radius,
    tree_power,
    validate,
)
from hypertree_spectra import spectral
from hypertree_spectra.transforms import apply_graft_sequence, graft_to_path, total_graft
from hypertree_spectra.census import ROUNDING_PAD, _supertree_shapes
from hypertree_spectra.errors import (
    BadDimensions,
    BadParameter,
    DimensionMismatch,
    Disconnected,
    NoConvergence,
)
from hypertree_spectra.spectral import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    NARROW_WIDTH,
    _elimination_order,
    _kept_rows,
    _newton_noda_step,
)
from hypertree_spectra.tensors import _edge_index, _fold, _linearize, _row_offset
from oracles import (
    automorphism_orbits,
    dense_power_iteration,
    elimination_order_by_heights,
    elimination_order_by_queue,
    enumerate_trees,
    orbit_constancy_check,
    rayleigh,
    relabel,
    schedule_by_heights,
)

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


def test_rho_is_the_midpoint_of_the_bracket():
    fields = [f.name for f in dataclasses.fields(SpectralResult)]
    assert fields == ["eigvec", "residual", "iterations", "lower", "upper"]
    result = spectral_radius(TensorKind.Adjacency, loose_path(7, 3))
    assert result.rho == 0.5 * (result.lower + result.upper)
    assert dataclasses.replace(result, lower=2.0, upper=3.0).rho == 2.5


def _assert_residual(kind, g, result):
    """result.residual is max|apply(kind, g, x) - rho x^{[k-1]}| at its
    eigenvector x, up to a few ulps of max|apply|: the solver forms each
    edge's products over its parent-first vertex order, apply over g's."""
    ax = apply(kind, g, result.eigvec)
    want = np.abs(ax - result.rho * result.eigvec ** (g.k - 1)).max()
    assert abs(result.residual - want) <= 4 * np.spacing(np.abs(ax).max())


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_residual_is_recomputed_from_the_eigenvector(kind):
    """Single solves: Newton-Noda on supertrees, power steps on a cycle."""
    graphs = [
        loose_path(121, 3), hyperstar(13, 4), double_star(2, 3, 5),
        tree_power([1, 1, 2, 2, 3, 5, 5, 7], 3), s_cycle(4, 1, 3),
    ]
    for g in graphs:
        _assert_residual(kind, g, spectral_radius(kind, g))


def test_residual_of_every_row_of_a_three_kind_batch():
    """The rows of the k=3 m=8 census close at different iterations, each
    with the residual of its own eigenvector."""
    graphs = _supertree_shapes(8, 3)
    for kind, results in zip(KINDS, spectral_radii(tuple(KINDS), graphs)):
        assert len({r.iterations for r in results}) > 1
        for g, result in zip(graphs, results):
            _assert_residual(kind, g, result)


def test_spectral_radius_disconnected():
    g = validate([[1, 2, 3], [4, 5, 6]], 6)
    with pytest.raises(Disconnected):
        spectral_radius(TensorKind.Adjacency, g)


def test_spectral_radius_no_convergence():
    with pytest.raises(NoConvergence) as exc:
        spectral_radius(TensorKind.Adjacency, loose_path(9, 3), max_iter=2)
    assert exc.value.lower is not None
    # numpy scalars are valid parameters
    with pytest.raises(NoConvergence):
        spectral_radius(TensorKind.Adjacency, loose_path(9, 3), np.float64(1e-10), np.int64(2))


@pytest.mark.parametrize(
    "tol,max_iter",
    [
        (0.0, 100), (-1e-9, 100), (float("nan"), 100), (1e-10, 0), (1e-10, 2.5), ("1e-10", 100),
        # a bool is an Integral and a Real, but tol=True closed a bracket 1.0
        # wide, and max_iter=True ran one step
        (True, 100), (False, 100), (1e-10, True), (1e-10, np.True_),
        # tol=inf "converged" after one step with a bracket 0.2 wide
        (float("inf"), 100), (np.float64("inf"), 100),
    ],
)
def test_bad_solver_parameters(tol, max_iter):
    g = loose_path(9, 3)
    with pytest.raises(BadParameter):
        spectral_radius(TensorKind.Adjacency, g, tol=tol, max_iter=max_iter)
    with pytest.raises(BadParameter):
        spectral_radii((TensorKind.Adjacency,), [g], tol=tol, max_iter=max_iter)


# Ceilings on the steps after the warm start: per kind, the total (4794 in
# all) and the largest count over census_sweep's censuses (k=3 m<=8, k=4
# m<=7).  From the uniform vector they were 1878/2087/1902 steps, at most
# 7/8/7.  A change that raises a ceiling has to say why.
STEP_CEILINGS = {
    TensorKind.Adjacency: (1510, 6),
    TensorKind.SignlessLaplacian: (1786, 7),
    TensorKind.IncidenceQ: (1498, 6),
}


def test_step_counts_on_census_sweep_stay_at_their_ceilings():
    total, most = dict.fromkeys(KINDS, 0), dict.fromkeys(KINDS, 0)
    for k, top in ((3, 8), (4, 7)):
        for m in range(1, top + 1):
            graphs = _supertree_shapes(m, k)
            solved = spectral_radii(tuple(KINDS), graphs, DEFAULT_TOL, DEFAULT_MAX_ITER)
            for kind, results in zip(KINDS, solved):
                total[kind] += sum(r.iterations for r in results)
                most[kind] = max(most[kind], *(r.iterations for r in results))
    for kind, (ceiling, largest) in STEP_CEILINGS.items():
        assert total[kind] <= ceiling and most[kind] <= largest, kind


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_single_edge_closes_at_the_first_bracket(k):
    # the uniform vector is the Perron vector of one edge, and the warm-up
    # steps keep it
    for kind in KINDS:
        assert spectral_radius(kind, single_edge(k)).iterations == 1


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_batch_matches_single_solves_on_census(kind):
    """Each row of the batched k=3, m=8 census runs the single iteration."""
    graphs = _supertree_shapes(8, 3)
    batch = spectral_radii((kind,), graphs)[0]
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


def _random_tree_powers():
    """40 random 60-edge trees, raised to k = 3."""
    rng = np.random.default_rng(3)
    trees = [[int(rng.integers(1, i + 2)) for i in range(60)] for _ in range(40)]
    return [tree_power(parents, 3) for parents in trees]


def test_batch_mixing_newton_and_power_rows_matches_single_solves(monkeypatch):
    """With a patience of one step, twenty-one q rows leave Newton-Noda
    within the first steps and finish with a hundred or more power steps,
    while the others close their brackets on Newton-Noda steps; each row
    still runs exactly its single iteration."""
    monkeypatch.setattr(spectral, "NEWTON_PATIENCE", 1)
    graphs = _random_tree_powers()
    kind = TensorKind.SignlessLaplacian
    batch = spectral_radii((kind,), graphs)[0]
    for g, row in zip(graphs, batch):
        single = spectral_radius(kind, g)
        assert (row.iterations, row.lower, row.upper) == (
            single.iterations, single.lower, single.upper
        )
    iterations = sorted(row.iterations for row in batch)
    assert iterations[-22] < 20 and iterations[-21] > 100


@pytest.mark.parametrize("patience", [spectral.NEWTON_PATIENCE, 1])
def test_mixed_kind_batch_equals_per_kind_batches(patience, monkeypatch):
    """Every graph under several kinds, in one kind-major batch, comes back
    as one list per kind, each row == to its row of a batch of one kind:
    also with a patience of one step, where rows leave Newton-Noda at
    different steps, and with kinds out of order or missing."""
    monkeypatch.setattr(spectral, "NEWTON_PATIENCE", patience)
    graphs = _random_tree_powers()
    per_kind = {kind: spectral_radii((kind,), graphs)[0] for kind in KINDS}
    for kinds in (tuple(KINDS), (TensorKind.IncidenceQ, TensorKind.Adjacency)):
        solved = spectral_radii(kinds, graphs, DEFAULT_TOL, DEFAULT_MAX_ITER)
        assert len(solved) == len(kinds)
        for kind, results in zip(kinds, solved):
            assert len(results) == len(graphs)
            for got, want in zip(results, per_kind[kind]):
                assert (got.rho, got.lower, got.upper, got.iterations, got.residual) == (
                    want.rho, want.lower, want.upper, want.iterations, want.residual
                )
                assert np.array_equal(got.eigvec, want.eigvec)


def test_single_kind_batch_calls_one_contract_per_iteration(monkeypatch):
    """A batch of one kind evaluates its tensor with one _contract call on
    all active rows per iteration, after one per warm-up step on all rows,
    and never joins blocks of rows; so does a batch of three kinds, whose
    call names the kinds with open rows."""
    calls = []
    contract = spectral._contract

    def counted(blocks, flat, vals, n):
        calls.append([kind for kind, _, _ in blocks])
        return contract(blocks, flat, vals, n)

    monkeypatch.setattr(spectral, "_contract", counted)
    monkeypatch.setattr(np, "concatenate", lambda *a, **kw: pytest.fail("joined blocks"))
    graphs = _supertree_shapes(8, 3)
    for kind in KINDS:
        calls.clear()
        results = spectral_radii((kind,), graphs)[0]
        assert len({r.iterations for r in results}) > 1  # rows freeze apart
        assert calls == [[kind]] * (spectral.WARM_STEPS + max(r.iterations for r in results))
    calls.clear()
    solved = spectral_radii(tuple(KINDS), graphs, DEFAULT_TOL, DEFAULT_MAX_ITER)
    last = [max(r.iterations for r in results) for results in solved]
    assert len(set(last)) > 1  # a kind's block goes when its rows all freeze
    assert calls == [KINDS] * spectral.WARM_STEPS + [
        [kind for kind, end in zip(KINDS, last) if it <= end] for it in range(1, max(last) + 1)
    ]


def test_mixed_kinds_bad_input():
    graphs = [loose_path(7, 3), hyperstar(7, 3)]
    with pytest.raises(BadParameter):
        spectral_radii(KINDS, graphs)
    with pytest.raises(BadParameter):
        spectral_radii([TensorKind.Adjacency, "q"], graphs)
    with pytest.raises(BadParameter):
        spectral_radii("adj", graphs)
    with pytest.raises(BadParameter):
        spectral_radii("adj", [])
    # an empty tuple once ran the whole budget on zero rows, and a bare kind
    # raised TypeError; both are checked before an empty batch returns
    for graph_list in (graphs, []):
        with pytest.raises(BadParameter):
            spectral_radii((), graph_list, DEFAULT_TOL, DEFAULT_MAX_ITER)
        with pytest.raises(BadParameter):
            spectral_radii(TensorKind.Adjacency, graph_list)
    # a bare kind is checked as a kind, not as the batch's tuple of kinds
    for not_kind in (None, "adj"):
        with pytest.raises(BadParameter, match=f"^kind must be a TensorKind, got {not_kind!r}$"):
            spectral_radius(not_kind, graphs[0])
    with pytest.raises(BadParameter):
        spectral_radii((TensorKind.Adjacency, "q"), graphs, DEFAULT_TOL, DEFAULT_MAX_ITER)
    with pytest.raises(BadParameter):
        apply("q", graphs[0], np.ones(7))
    with pytest.raises(BadParameter):
        dense_build("q", graphs[0])
    with pytest.raises(BadParameter):
        closed_form_hyperstar("q", 7, 3)
    # a graph that is not a Hypergraph, or graphs that are not a sequence,
    # once raised AttributeError or, for a generator, TypeError from len
    adj = (TensorKind.Adjacency,)
    for not_graphs in (
        [None], [[1, 2, 3]], "abc", [graphs[0], None], iter(graphs), (g for g in graphs)
    ):
        with pytest.raises(BadParameter):
            spectral_radii(adj, not_graphs)
    with pytest.raises(BadParameter):
        spectral_radius(TensorKind.Adjacency, None)
    with pytest.raises(BadParameter):
        apply(TensorKind.Adjacency, None, np.ones(7))
    with pytest.raises(BadParameter):
        dense_build(TensorKind.Adjacency, [[1, 2, 3]])
    assert spectral_radii(adj, tuple(graphs))[0][0].rho == spectral_radius(adj[0], graphs[0]).rho
    assert spectral_radii((TensorKind.Adjacency,), [])[0] == []
    assert spectral_radii(tuple(KINDS), [], DEFAULT_TOL, DEFAULT_MAX_ITER) == [[], [], []]


def test_mixed_batch_no_convergence_names_the_widest_kind():
    graphs = [hyperstar(9, 3), loose_path(9, 3), double_star(1, 2, 3)]
    kinds = (TensorKind.SignlessLaplacian, TensorKind.IncidenceQ)
    with pytest.raises(NoConvergence) as exc:
        spectral_radii(kinds, graphs, DEFAULT_TOL, 2)
    widths = {}
    for kind in kinds:
        for g in graphs:
            with pytest.raises(NoConvergence) as single:
                spectral_radius(kind, g, max_iter=2)
            widths[kind, g] = single.value.upper - single.value.lower
    widest, _ = max(widths, key=widths.get)
    err = exc.value
    assert err.upper - err.lower == max(widths.values())
    assert " 6 of 6 rows " in str(err)
    assert str(err).endswith(f", {widest.name})")
    assert sum(kind.name in str(err) for kind in KINDS) == 1


def test_a_newton_step_with_a_negative_entry_hands_its_row_to_power_steps(monkeypatch):
    """A Newton-Noda step that is finite but not positive fails like one
    that is not finite: its row takes the power step in that iteration and
    finishes on power steps, with a bracket around the dense oracle's
    radius, while the other rows of the batch run unchanged."""
    kind = TensorKind.SignlessLaplacian
    rng = np.random.default_rng(5)
    graphs = [tree_power([int(rng.integers(1, i + 2)) for i in range(10)], 3) for _ in range(3)]
    plain = spectral_radii((kind,), graphs)[0]
    calls = []
    step, power = spectral._newton_noda_step, spectral._power_step

    def negated_once(*args):
        out = step(*args)
        if "newton" not in calls:
            out[0, -1] = -out[0, -1]
        calls.append("newton")
        return out

    def counted_power(y, k):
        calls.append(len(y))
        return power(y, k)

    monkeypatch.setattr(spectral, "_newton_noda_step", negated_once)
    monkeypatch.setattr(spectral, "_power_step", counted_power)
    patched = spectral_radii((kind,), graphs)[0]
    first = calls.index("newton")
    assert calls[first + 1] == 1  # row 0 alone takes the power step
    for got, want in zip(patched[1:], plain[1:]):
        assert (got.lower, got.upper, got.iterations, got.residual) == (
            want.lower, want.upper, want.iterations, want.residual
        )
        assert got.eigvec.tobytes() == want.eigvec.tobytes()
    row = patched[0]
    assert row.iterations > plain[0].iterations
    lower, upper = dense_power_iteration(dense_build(kind, graphs[0]))
    rho = 0.5 * (lower + upper)
    pad = ROUNDING_PAD * rho
    assert row.lower - pad <= rho <= row.upper + pad


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_newton_steps_on_random_tree_powers(kind):
    # Newton's method on T x^{k-1}, of degree k-1, took up to 15 (adj),
    # 30 (q) and 18 (qstar) steps here; on its (k-1)-th root up to 9, 14, 11
    results = spectral_radii((kind,), _random_tree_powers())[0]
    assert max(r.iterations for r in results) <= 15


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_newton_steps_on_long_path(kind):
    # power iteration needs O(m^2) steps here (5960 for adj, 9890 for q,
    # 5707 for qstar); Newton-Noda takes 6, a ceiling that a change raising
    # it has to explain
    result = spectral_radius(kind, loose_path(121, 3))
    assert result.iterations <= 6
    assert result.upper - result.lower <= 1e-10


def test_newton_budget_below_rounding_floor():
    # tol below the rounding floor: the q solve runs out of its budget
    # with a finite bracket around the radius.  The reference is a tol=1e-13
    # solve; a default-tol bracket may be up to 1e-10 wide, and its midpoint
    # that far from rho
    g = loose_path(121, 3)
    rho = spectral_radius(TensorKind.SignlessLaplacian, g, tol=1e-13).rho
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
    budget ends with a finite bracket around the radius of a tol=1e-13
    solve; a default-tol bracket may be 1e-10 wide, and its midpoint that
    far from rho."""
    rho = spectral_radius(kind, g, tol=1e-13).rho
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


def _step_inputs(graphs, kind, x):
    """The schedule of a Newton-Noda step on graphs, and the factors of
    M(x) under kind for the rows of x."""
    flat, schedule = _elimination_order(_edge_index(graphs), graphs[0].n)
    return schedule, _linearize([(kind, 0, len(x))], x, x.ravel()[flat])


def _kernels(schedule):
    """schedule forced onto each elimination kernel: height by height in
    numpy, then edge by edge in Python floats."""
    verts, levels, order, _, perm = schedule
    parents = [p for _, level in levels for p in level.tolist()]
    return (verts, levels, order, None, perm), (verts, levels, order, parents, perm)


def _kernels_taken(monkeypatch) -> list[str]:
    """A list that gets the elimination kernel of every Newton-Noda step
    taken from now on: "edges" where _eliminate_edges solved the system,
    "levels" where numpy did."""
    taken = []
    step, edges = spectral._newton_noda_step, spectral._eliminate_edges

    def counted_step(*args):
        taken.append("levels")
        return step(*args)

    def counted_edges(*args):
        w = edges(*args)
        if w is not None:
            taken[-1] = "edges"
        return w

    monkeypatch.setattr(spectral, "_newton_noda_step", counted_step)
    monkeypatch.setattr(spectral, "_eliminate_edges", counted_edges)
    return taken


def test_newton_step_fails_on_singular_system(monkeypatch):
    # x is the Perron vector of the k=2 edge and top its exact radius, so
    # the first row's Z is singular and its step is not finite; the second
    # row's bracket is open and it steps to a positive y.  Both kernels
    # give numpy's inf or nan: the edge loop, whose Python floats raise on
    # the zero root pivot, hands the step to numpy.
    x = np.array([[2**-0.5, 2**-0.5], [0.6, 0.8]])
    top = np.array([2.0, 1.4 / 0.6])
    taken = _kernels_taken(monkeypatch)
    for rows in (2, 1):
        schedule, factors = _step_inputs([single_edge(2)] * rows, TensorKind.IncidenceQ, x[:rows])
        steps = [
            spectral._newton_noda_step(s, x[:rows], x[:rows], x[:rows], factors, top[:rows])
            for s in _kernels(schedule)
        ]
        for y in steps:
            assert not np.isfinite(y[0]).any()
            assert np.isfinite(y[1:]).all() and (y[1:] > 0).all()
        assert steps[0].tobytes() == steps[1].tobytes()
    assert taken == ["levels"] * 4
    # one edge, two children of pivot 1 and c = 1/4: the root's pivot 1/4
    # loses cg c s = 1/4, and the edge loop stops at the division by zero
    assert spectral._eliminate_edges([2], [1.0, 1.0, 0.25], [1.0] * 3, [0.25], 1, 3) is None


def _assert_kernels_agree(graphs, rng, monkeypatch):
    """A Newton-Noda step on the batch, under each kind, is the same to the
    bit on both elimination kernels, from x spread up to 1e-6..1 and top
    above each row's bracket."""
    n, k = graphs[0].n, graphs[0].k
    x = 10.0 ** rng.uniform(-6, 0, (len(graphs), n))
    xk1 = x ** (k - 1)
    taken = _kernels_taken(monkeypatch)
    for kind in KINDS:
        ax = np.array([apply(kind, g, row) for g, row in zip(graphs, x)])
        top = (ax / xk1).max(axis=1) * (1 + rng.random(len(graphs)))
        schedule, factors = _step_inputs(graphs, kind, x)
        levels, edges = (
            spectral._newton_noda_step(s, x, xk1, ax, factors, top) for s in _kernels(schedule)
        )
        assert np.isfinite(levels).all()
        assert levels.tobytes() == edges.tobytes()
    assert taken == ["levels", "edges"] * len(KINDS)


@pytest.mark.parametrize("k,top", [(2, 9), (3, 8), (4, 6), (5, 5)])
def test_kernels_agree_on_census(k, top, monkeypatch):
    rng = np.random.default_rng(k)
    for m in range(1, top + 1):
        _assert_kernels_agree(_supertree_shapes(m, k), rng, monkeypatch)


def test_kernels_agree_on_random_tree_powers(monkeypatch):
    """k up to 10, where an edge has 8 or more children, whose sum
    np.add.reduce would take pairwise."""
    rng = np.random.default_rng(29)
    for _ in range(100):
        k, m = int(rng.integers(2, 11)), int(rng.integers(1, 41))
        parents = [int(rng.integers(1, i + 2)) for i in range(m)]
        _assert_kernels_agree([tree_power(parents, k)], rng, monkeypatch)


@pytest.mark.parametrize("width", range(1, 12))
def test_sum_rows_adds_left_to_right(width, rng):
    """The numpy kernel's sum over an edge's children, _fold(np.add, .), is
    the edge kernel's, one entry after another in Python floats, at every
    width, where np.add.reduce adds 8 or more entries pairwise; entries
    spread over 1e-8..1e8, so that a change of association shows."""
    a = 10.0 ** rng.uniform(-8, 8, (50, width))
    want = []
    for row in a.tolist():
        s = row[0]
        for v in row[1:]:
            s += v
        want.append(s)
    assert _fold(np.add, a).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("k", [2, 3, 5, 9, 10])
def test_kernels_agree_on_paths_and_stars(k, monkeypatch):
    rng = np.random.default_rng(k)
    for m in (1, 2, 3, 8, 41):
        n = m * (k - 1) + 1
        _assert_kernels_agree([loose_path(n, k)] * 2, rng, monkeypatch)
        _assert_kernels_agree([hyperstar(n, k)], rng, monkeypatch)


def test_wide_batches_take_the_level_kernel_and_narrow_ones_the_edge_kernel(monkeypatch):
    """The census batch and the large star keep numpy's height-by-height
    kernel; a long path and the tree powers of a graft chain, each solved
    under one kind at a time, go edge by edge.  The census batch narrows
    as its rows close, so only its first step is pinned."""
    taken = _kernels_taken(monkeypatch)
    spectral_radii(tuple(KINDS), _supertree_shapes(8, 3))
    assert taken[0] == "levels"
    taken.clear()
    spectral_radii(tuple(KINDS), [hyperstar(20001, 3)])
    assert taken and set(taken) == {"levels"}
    parents = [1, 1, 2, 2, 3, 3, 1, 4, 5, 6, 6, 7, 8, 8, 9]  # 16 nodes, 15 edges
    chain = [parents, *apply_graft_sequence(parents, graft_to_path(parents))]
    assert len(chain) > 2
    taken.clear()
    for g in [loose_path(121, 3)] + [tree_power(tree, 3) for tree in chain]:
        for kind in KINDS:
            spectral_radius(kind, g)
    assert taken and set(taken) == {"edges"}


@pytest.mark.parametrize("k", [9, 10])
def test_batch_matches_single_solves_with_eight_or_more_children(k):
    """A batch of census shapes and random tree powers, eliminated height by
    height, where an edge has k-1 >= 8 children, == each graph solved alone,
    which goes edge by edge.  IncidenceQ's radius is near 1e8 at k = 9,
    beyond the reach of an absolute tol of 1e-10."""
    rng = np.random.default_rng(k)
    trees = [[int(rng.integers(1, i + 2)) for i in range(5)] for _ in range(6)]
    graphs = _supertree_shapes(5, k) + [tree_power(parents, k) for parents in trees]
    small = (TensorKind.Adjacency, TensorKind.SignlessLaplacian)
    for kinds, tol in ((small, DEFAULT_TOL), ((TensorKind.IncidenceQ,), 1e-3)):
        solved = spectral_radii(kinds, graphs, tol)
        for kind, results in zip(kinds, solved):
            for g, row in zip(graphs, results):
                single = spectral_radius(kind, g, tol)
                assert (row.iterations, row.lower, row.upper, row.residual) == (
                    single.iterations, single.lower, single.upper, single.residual
                )
                assert row.eigvec.tobytes() == single.eigvec.tobytes()


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("k,m", [(2, 4), (2, 6), (3, 3), (4, 3), (5, 3)])
def test_newton_step_matches_dense_solve(kind, k, m):
    """The step eliminates by Sherman-Morrison along the supertree; here
    Z = mu diag(q) - M(x), with mu = top^{1/(k-1)}, q = ax^{[(k-2)/(k-1)]}
    and M(x) built from the dense tensor, is solved by LAPACK against q x,
    for a batch of census shapes and x spread up to 1e-6..1, with top above
    each row's bracket.  At k = 2 the step is Noda's iteration, t w with
    (top I - M) w = x, as Newton's method on T x^{k-1} also is."""
    graphs = _supertree_shapes(m, k)
    assert len(graphs) >= 2
    n = graphs[0].n
    rng = np.random.default_rng(100 * k + m)
    shape = (len(graphs), n)
    draws = [rng.random(shape) + 0.05, rng.random(shape) + 0.05, 10.0 ** rng.uniform(-6, 0, shape)]
    for x in draws:
        xk1 = x ** (k - 1)
        ax = np.array([apply(kind, g, row) for g, row in zip(graphs, x)])
        top = (ax / xk1).max(axis=1) * (1 + rng.random(len(graphs)))
        schedule, factors = _step_inputs(graphs, kind, x)
        y = _newton_noda_step(schedule, x, xk1, ax, factors, top)
        for g, row, rk1, arow, lam, got in zip(graphs, x, xk1, ax, top, y):
            mx = dense_build(kind, g).values
            for _ in range(k - 2):
                mx = mx @ row
            q = arow ** ((k - 2) / (k - 1))
            w = np.linalg.solve(lam ** (1 / (k - 1)) * np.diag(q) - mx, q * row)
            want = (rk1 @ row) / (rk1 @ w) * w
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
            if k == 2:
                w = np.linalg.solve(lam * np.eye(n) - mx, row)
                noda = (row @ row) / (row @ w) * w
                assert np.max(np.abs(got - noda)) <= 1e-13 * np.max(np.abs(noda))


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_newton_step_calls_no_lapack(kind, monkeypatch):
    """The step solves no block with np.linalg.solve: a census batch still
    takes Newton-Noda steps with it made to raise."""

    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    results = spectral_radii((kind,), _supertree_shapes(6, 3))[0]
    assert max(r.iterations for r in results) <= 30


@pytest.mark.parametrize("k,m", [(2, 9), (3, 8), (4, 6)])
def test_elimination_order_on_census(k, m):
    """The order keeps every edge, makes each vertex but one root per row
    (those that end the schedule's permutation) the child of exactly one
    edge, and takes an edge only after every edge whose parent is one of
    its children."""
    graphs = _supertree_shapes(m, k)
    n = graphs[0].n
    idx, height, perm = _peeled(graphs)
    roots = perm[-len(graphs) :] - n * np.arange(len(graphs))
    for g, edges, heights, root in zip(graphs, idx, height, roots):
        assert sorted(tuple(sorted(e + 1)) for e in edges) == list(g.edges)
        children = edges[:, 1:].ravel()
        assert len(set(children.tolist())) == len(children) == n - 1
        assert root not in children
        child_height = dict(zip(children.tolist(), np.repeat(heights, k - 1).tolist()))
        for e, h in zip(edges, heights):
            assert child_height.get(int(e[0]), m) > h


def _peeled(graphs) -> tuple:
    """_elimination_order of the batch: the 0-based parent-first edges, the
    (B, m) heights, read off the schedule's levels, and perm."""
    n = graphs[0].n
    flat, (_, levels, order, _, perm) = _elimination_order(_edge_index(graphs), n)
    rows, m, _ = flat.shape
    height = np.empty(rows * m, dtype=np.intp)
    for h, (e, _) in enumerate(levels):
        height[order[e]] = h
    return flat - n * np.arange(rows)[:, None, None], height.reshape(rows, m), perm


def _assert_order_matches_queue_peel(graphs):
    """_elimination_order of the batch, row by row == the queue peel's."""
    n = graphs[0].n
    idx, height, _ = _peeled(graphs)
    for g, edges, heights in zip(graphs, idx.tolist(), height.tolist()):
        want = elimination_order_by_queue([[v - 1 for v in e] for e in g.edges], n)
        assert (edges, heights) == want


@pytest.mark.parametrize("k,top", [(2, 9), (3, 8), (4, 6), (5, 5)])
def test_elimination_order_matches_queue_peel_on_census(k, top):
    for m in range(1, top + 1):
        _assert_order_matches_queue_peel(_supertree_shapes(m, k))


def test_elimination_order_matches_queue_peel_on_random_trees():
    rng = np.random.default_rng(10)
    for _ in range(300):
        k, m = int(rng.integers(2, 6)), int(rng.integers(1, 81))
        parents = [int(rng.integers(1, i + 2)) for i in range(m)]
        _assert_order_matches_queue_peel([tree_power(parents, k)])


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_elimination_order_matches_queue_peel_on_paths_and_stars(k):
    for m in (1, 2, 3, 8, 41):
        n = m * (k - 1) + 1
        _assert_order_matches_queue_peel([loose_path(n, k)])
        _assert_order_matches_queue_peel([hyperstar(n, k)])


def test_elimination_order_and_queue_peel_reject_a_cyclic_row():
    """In a batch, and alone under one or three kinds."""
    connected = loose_path(7, 3)
    cyclic = validate([[1, 2, 3], [1, 2, 4], [5, 6, 7]], 7)  # same (n, m, k)
    for batch, copies in (([connected, cyclic, connected], 1), ([cyclic], 1), ([cyclic], 3)):
        with pytest.raises(Disconnected):
            _elimination_order(_edge_index(batch), 7, copies)
    with pytest.raises(Disconnected):
        elimination_order_by_queue([[v - 1 for v in e] for e in cyclic.edges], 7)


def _peel_rounds(graphs) -> list[int]:
    """The number of edges of the batch that each round of the leaf peel
    removes, by the queue peel."""
    n = graphs[0].n
    heights = [h for g in graphs
               for h in elimination_order_by_queue([[v - 1 for v in e] for e in g.edges], n)[1]]
    return np.bincount(heights).tolist()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_elimination_order_hands_off_mid_peel(k):
    """Batches of a star, a path and random tree powers, shallow and deep,
    up to 400 edges, as built and with their vertices shuffled: their first
    round peels more than NARROW_WIDTH edges, so it runs on numpy, and
    their last rounds, the path's, are left to the queue.  Every row == the
    queue peel's."""
    rng = np.random.default_rng(30 + k)
    for m in (9, 20, 57, 150, 400):
        n = m * (k - 1) + 1
        shallow = [int(rng.integers(1, i + 2)) for i in range(m)]
        deep = [int(rng.integers(max(1, i - 1), i + 2)) for i in range(m)]
        graphs = [hyperstar(n, k), loose_path(n, k), tree_power(shallow, k), tree_power(deep, k)]
        perm = dict(zip(range(1, n + 1), (rng.permutation(n) + 1).tolist()))
        shuffled = [relabel(g, perm) for g in graphs]
        for batch in (graphs, graphs[::-1], shuffled):
            rounds = _peel_rounds(batch)
            assert rounds[0] > NARROW_WIDTH >= rounds[-1]
            _assert_order_matches_queue_peel(batch)


@st.composite
def _supertree_batches(draw):
    """1-6 supertrees sharing (n, m, k), k = 2..5 and m = 1..24, each a
    random tree power, a star or a loose path with its vertices relabelled,
    and a number of kinds, 1-3."""
    k, m = draw(st.integers(2, 5)), draw(st.integers(1, 24))
    n = m * (k - 1) + 1
    graphs = []
    for _ in range(draw(st.integers(1, 6))):
        shape = draw(st.sampled_from(["tree", "star", "path"]))
        if shape == "tree":
            g = tree_power([draw(st.integers(1, i + 1)) for i in range(m)], k)
        else:
            g = (hyperstar if shape == "star" else loose_path)(n, k)
        labels = draw(st.permutations(range(1, n + 1)))
        graphs.append(relabel(g, dict(zip(range(1, n + 1), labels))))
    return graphs, draw(st.integers(1, 3))


def _assert_schedule_is_the_height_sort(flat, schedule, idx, height, n):
    """The index and the schedule == the reference's: the peel's (B, m, k)
    parent-first idx and heights, row-offset and sorted by height."""
    want = _row_offset(idx, n)
    assert flat.dtype == want.dtype and np.array_equal(flat, want)
    verts, levels, order, narrow, perm = schedule
    w_verts, w_levels, w_order, w_narrow, w_perm = schedule_by_heights(want, height)
    for got, expected in ((verts, w_verts), (order, w_order), (perm, w_perm)):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert narrow == w_narrow
    assert [e for e, _ in levels] == [e for e, _ in w_levels]
    for (_, got), (_, expected) in zip(levels, w_levels):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


@settings(max_examples=150, deadline=None)
@given(_supertree_batches(), st.data())
def test_schedule_is_the_height_sort_and_closing_rows_filter_it(batch, data):
    """The peel's schedule of a batch under 1-3 kinds == the reference
    peel's heights sorted by a stable argsort, and so is every schedule
    left after dropping a random non-empty set of rows, until one row is
    left, as closing rows drop them in the solve."""
    graphs, copies = batch
    n = graphs[0].n
    flat, schedule = _elimination_order(_edge_index(graphs), n, copies)
    idx, height = elimination_order_by_heights(_edge_index(graphs), n)
    idx, height = np.tile(idx, (copies, 1, 1)), np.tile(height, (copies, 1))
    _assert_schedule_is_the_height_sort(flat, schedule, idx, height, n)
    while len(idx) > 1:
        drop = data.draw(st.sets(st.integers(0, len(idx) - 1), min_size=1, max_size=len(idx) - 1))
        keep = np.ones(len(idx), dtype=bool)
        keep[list(drop)] = False
        flat = _row_offset(flat[keep] % n, n)  # as the solve keeps its index
        schedule, idx, height = _kept_rows(schedule, keep, flat, n), idx[keep], height[keep]
        _assert_schedule_is_the_height_sort(flat, schedule, idx, height, n)


def test_elimination_order_rejects_a_cycle_in_either_phase():
    """Beside two stars on 13 vertices, k = 2, a triangle with nine
    pendant edges at one vertex peels 33 edges on numpy in the first round
    and then nothing, so the hand-off finds the cycle; a triangle beside a
    path of nine edges peels 26 edges on numpy and then two per round in
    the queue, which ends with the triangle left."""
    star = hyperstar(13, 2)
    triangle = [[1, 2], [2, 3], [1, 3]]
    pendant = validate(triangle + [[4, v] for v in range(5, 14)], 13, k=2)
    path = validate(triangle + [[v, v + 1] for v in range(4, 13)], 13, k=2)
    for cyclic in (pendant, path):
        with pytest.raises(Disconnected):
            _elimination_order(_edge_index([star, cyclic, star]), 13)
        with pytest.raises(Disconnected):
            elimination_order_by_queue([[v - 1 for v in e] for e in cyclic.edges], 13)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_elimination_order_of_no_edge_and_one_edge(k):
    for g in (validate([], 1, k=k), single_edge(k)):
        idx, height, perm = _peeled([g, g])
        assert idx.shape == (2, g.m, k) and height.shape == (2, g.m)
        assert sorted(perm.tolist()) == list(range(2 * g.n))
        _assert_order_matches_queue_peel([g, g])
    assert _peeled([single_edge(k)])[1].tolist() == [[0]]


@pytest.mark.parametrize("n,k", [(2001, 3), (2001, 2)])
def test_elimination_order_of_long_paths(n, k):
    """1000 and 2000 edges, two per round: all but the first round in the
    queue."""
    _assert_order_matches_queue_peel([loose_path(n, k)])


def _spider(legs) -> list[int]:
    """Parent array of a tree of paths of the given lengths from node 1."""
    parents, node = [], 2
    for leg in legs:
        prev = 1
        for _ in range(leg):
            parents.append(prev)
            prev, node = node, node + 1
    return parents


def test_two_graph_batch_of_a_long_path_and_its_total_graft_matches_single_solves():
    """transform --check-monotone solves a graph and its transform in one
    batch under all three kinds.  A loose path of 200 edges with a third
    leg at vertex 1, and its total graft there, which is a loose path:
    each row == the graph solved alone, bit for bit."""
    g = tree_power(_spider([70, 70, 60]), 3)
    grafted = total_graft(g, 1, 70, 70)
    graphs = [g, grafted]
    solved = spectral_radii(tuple(KINDS), graphs)
    for kind, results in zip(KINDS, solved):
        for h, row in zip(graphs, results):
            single = spectral_radius(kind, h)
            assert (row.iterations, row.lower, row.upper, row.residual) == (
                single.iterations, single.lower, single.upper, single.residual
            )
            assert row.eigvec.tobytes() == single.eigvec.tobytes()
        assert results[1].upper < results[0].lower  # the graft lowers rho


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


@pytest.mark.parametrize("k", range(8, 13))
def test_brackets_hold_known_radii_with_many_children(k):
    """At k >= 8, where every edge sum has 8 or more entries, the brackets
    hold values found without the solver, within the rounding pad: the
    closed forms of the hyperstar under every kind, and (2 cos(pi/(m+2)))^{2/k}
    for the adjacency tensor of the loose path, the k-th power of the path
    with m edges.  IncidenceQ's radius is at most its degree bound, k^{k-1}
    times the largest degree, at most m, so tol scales with k^{k-1} m."""
    for m in range(2, 6):
        n, tol = m * (k - 1) + 1, 1e-12 * k ** (k - 1) * m
        known = [(kind, hyperstar(n, k), closed_form_hyperstar(kind, n, k)) for kind in KINDS]
        path = (2 * np.cos(np.pi / (m + 2))) ** (2 / k)
        known.append((TensorKind.Adjacency, loose_path(n, k), path))
        for kind, g, rho in known:
            result = spectral_radius(kind, g, tol, max_iter=500)
            pad = ROUNDING_PAD * rho
            assert result.lower - pad <= rho <= result.upper + pad, (kind, m)


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
        for parents, result in zip(trees, spectral_radii((TensorKind.Adjacency,), graphs)[0]):
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
        spectral_radii((TensorKind.Adjacency,), [connected, split, connected])
    # the leaf peeling alone rejects the cycle
    with pytest.raises(Disconnected):
        _elimination_order(_edge_index([connected, split, connected]), 7)


def test_supertree_batches_skip_the_connectivity_search(monkeypatch):
    monkeypatch.setattr(spectral, "is_connected", lambda g: pytest.fail("searched a supertree"))
    graphs = [loose_path(7, 3), hyperstar(7, 3)]
    assert len(spectral_radii((TensorKind.Adjacency,), graphs)[0]) == 2


def test_batch_no_convergence_reports_widest_bracket():
    graphs = [hyperstar(9, 3), loose_path(9, 3), double_star(1, 2, 3)]
    with pytest.raises(NoConvergence) as exc:
        spectral_radii((TensorKind.Adjacency,), graphs, max_iter=2)
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
        spectral_radii((TensorKind.Adjacency,), [loose_path(7, 3), loose_path(9, 3)])
    with pytest.raises(DimensionMismatch):
        spectral_radii((TensorKind.Adjacency,), [loose_path(7, 3), single_edge(7)])
    with pytest.raises(DimensionMismatch):  # same n and k, fewer edges
        spectral_radii((TensorKind.Adjacency,), [loose_path(7, 3), validate([[1, 2, 3]], 7, k=3)])
    assert spectral_radii((TensorKind.Adjacency,), [])[0] == []


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
    assert bounds_report(hyperstar(7, 3)).rho_rrt == pytest.approx(5.0, abs=1e-10)


def test_matrix_spectral_radius_s_cycle():
    assert bounds_report(s_cycle(4, 2, 4)).rho_rrt == pytest.approx(8.0, abs=1e-10)


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


@pytest.mark.parametrize("m,k", [(2.5, 3), (3, 2.5), (True, 2), (3, True), (3.0, 3), ("3", 3)])
def test_alpha_star_rejects_non_integers(m, k):
    with pytest.raises(BadDimensions):
        alpha_star(m, k)


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
            for g, result in zip(graphs, spectral_radii((kind,), graphs)[0]):
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
