import random

import pytest

from hypertree_spectra import (
    EdgeMoveSpec,
    TensorKind,
    canonical_form,
    double_star,
    edge_release,
    edge_release_best,
    find_pendent_paths,
    graft_to_path,
    hyperstar,
    loose_path,
    move_edges,
    pendent_edges,
    s_cycle,
    s_path,
    single_edge,
    spectral_radius,
    total_graft,
    tree_power,
    validate,
)
from hypertree_spectra.errors import (
    Disconnected,
    InvalidSpec,
    MultipleEdge,
    NotATree,
    NotLinear,
    NotPendentPaths,
    PendentEdge,
)
from hypertree_spectra.census import _supertree_shapes
from hypertree_spectra.transforms import (
    GraftStep,
    apply_graft_sequence,
    edges_to_parents,
)
from oracles import (
    enumerate_trees,
    graft_to_path_by_rounds,
    is_isomorphic,
    is_supertree,
    parents_to_edges,
    prufer_decode,
    release_by_scan,
    tree_canonical_code,
)

KINDS = list(TensorKind)
TOL = 1e-10


def strict_margin(tol: float, scale: float) -> float:
    """Minimum numeric gap accepted as witnessing a strict inequality."""
    return max(100.0 * tol, 1e-8 * abs(scale))


def assert_strictly_greater(a, b):
    assert a - b > strict_margin(TOL, max(abs(a), abs(b)))


# -- move_edges --------------------------------------------------------------


def test_move_single_edge_on_path():
    g = loose_path(7, 3)
    # move {5,6,7} from 5 to 1
    h = move_edges(g, EdgeMoveSpec((2,), (5,), 1))
    assert h.edges == ((1, 2, 3), (1, 6, 7), (3, 4, 5))
    assert is_supertree(h)
    assert h.n == g.n and h.m == g.m and h.k == g.k


def test_move_preserves_counts(corpus_instance):
    g = corpus_instance
    # pick any edge and any legal (source, target) pair
    e = g.edges[0]
    target = next((u for u in range(1, g.n + 1) if u not in e), None)
    if target is None:
        return  # single edge covering all vertices: nothing to move onto
    try:
        h = move_edges(g, EdgeMoveSpec((0,), (e[0],), target))
    except MultipleEdge:
        return
    assert (h.n, h.m, h.k) == (g.n, g.m, g.k)


def test_move_multiple_edges_repeated_source():
    # moving two hyperstar edges from the center to a leaf re-centers the
    # star: sources may repeat across the moved edges
    g = hyperstar(9, 3)
    h = move_edges(g, EdgeMoveSpec((1, 2, 3), (1, 1, 1), 3))
    assert is_isomorphic(h, g)


def test_move_rejects_target_inside_edge():
    g = loose_path(7, 3)
    with pytest.raises(InvalidSpec):
        move_edges(g, EdgeMoveSpec((0,), (1,), 3))


def test_move_rejects_source_outside_edge():
    g = loose_path(7, 3)
    with pytest.raises(InvalidSpec):
        move_edges(g, EdgeMoveSpec((0,), (7,), 4))


def test_move_rejects_empty_and_duplicate_specs():
    g = loose_path(7, 3)
    with pytest.raises(InvalidSpec):
        move_edges(g, EdgeMoveSpec((), (), 1))
    with pytest.raises(InvalidSpec):
        move_edges(g, EdgeMoveSpec((0, 0), (1, 2), 6))


def test_move_rejects_multiple_edge():
    g = validate([[1, 2, 3], [1, 2, 4]], 4)
    with pytest.raises(MultipleEdge):
        move_edges(g, EdgeMoveSpec((1,), (4,), 3))


def test_move_toward_max_perron_component_increases_radius():
    # moving an edge onto the vertex with the largest Perron component
    # satisfies x_u >= max x_{v_i}, so every radius strictly increases
    for g in [loose_path(9, 3), double_star(1, 2, 3), loose_path(13, 4)]:
        for kind in KINDS:
            before = spectral_radius(kind, g, tol=TOL)
            u = int(before.eigvec.argmax()) + 1
            moved_any = False
            for eid, e in enumerate(g.edges):
                if u in e:
                    continue
                for v in e:
                    try:
                        h = move_edges(g, EdgeMoveSpec((eid,), (v,), u))
                    except MultipleEdge:
                        continue
                    try:
                        after = spectral_radius(kind, h, tol=TOL)
                    except Disconnected:
                        continue  # moving v out isolated it
                    assert_strictly_greater(after.rho, before.rho)
                    moved_any = True
            assert moved_any


# -- edge_release ------------------------------------------------------------


def test_release_middle_edge_of_path_gives_hyperstar():
    g = loose_path(7, 3)
    h = edge_release(g, 1, 3)
    assert is_isomorphic(h, hyperstar(7, 3))
    assert is_supertree(h)


def test_release_at_different_vertices_isomorphic():
    g = loose_path(9, 3)
    forms = {canonical_form(edge_release(g, 1, u)) for u in (3, 4, 5)}
    assert len(forms) == 1


def test_release_pendent_edge_rejected():
    g = hyperstar(7, 3)
    for eid in pendent_edges(g):
        with pytest.raises(PendentEdge):
            edge_release(g, eid, 1)


def test_release_preserves_supertree(corpus_instance):
    g = corpus_instance
    if not is_supertree(g):
        return
    for eid in range(g.m):
        if eid in pendent_edges(g):
            continue
        h = edge_release(g, eid, g.edges[eid][0])
        assert is_supertree(h)


def test_release_strictly_increases_all_radii():
    # every non-pendent edge of every non-hyperstar supertree
    supertrees = [
        loose_path(9, 3),
        loose_path(13, 4),
        double_star(1, 2, 3),
        tree_power([1, 1, 1, 2, 3, 4], 3),
    ]
    for g in supertrees:
        non_pendent = set(range(g.m)) - pendent_edges(g)
        assert non_pendent
        for kind in KINDS:
            before = spectral_radius(kind, g, tol=TOL).rho
            for eid in non_pendent:
                h = edge_release_best(g, eid, kind=kind, tol=TOL)
                after = spectral_radius(kind, h, tol=TOL).rho
                assert_strictly_greater(after, before)


def _outcome(transform, g, edge_id, u):
    try:
        return transform(g, edge_id, u)
    except PendentEdge as exc:
        return type(exc)


def test_release_matches_scan_oracle():
    # every edge at each of its vertices over the small censuses and two
    # linear cycles: the incidence-list release equals the scan of all edges
    graphs = [
        g
        for k, top in ((2, 8), (3, 6), (4, 5))
        for m in range(1, top + 1)
        for g in _supertree_shapes(m, k)
    ] + [s_cycle(4, 1, 3), s_cycle(5, 1, 4)]
    outcomes = set()
    for g in graphs:
        for j, e in enumerate(g.edges):
            for u in e:
                fast = _outcome(edge_release, g, j, u)
                assert fast == _outcome(release_by_scan, g, j, u)
                outcomes.add(fast is PendentEdge)
    assert outcomes == {True, False}


def test_release_rejects_non_linear():
    # consecutive edges of the 2-path share two vertices
    with pytest.raises(NotLinear):
        edge_release(s_path(3, 2, 4), 0, 1)


def test_release_best_out_of_range():
    with pytest.raises(InvalidSpec):
        edge_release_best(loose_path(7, 3), 9)
    # the id is checked before the solve, which rejects a disconnected graph
    split = validate([[1, 2, 3], [4, 5, 6]], 6)
    with pytest.raises(InvalidSpec):
        edge_release_best(split, 2)
    with pytest.raises(Disconnected):
        edge_release_best(split, 0)


# -- pendent paths and total_graft -------------------------------------------


def test_find_pendent_paths_hyperstar():
    g = hyperstar(7, 3)
    paths = find_pendent_paths(g, 1)
    assert [p.length for p in paths] == [1, 1, 1]
    assert all(p.vertices[0] == 1 for p in paths)


def test_find_pendent_paths_spider():
    g = tree_power([1, 1, 1, 2, 3, 4], 3)
    center = next(v for v in range(1, g.n + 1) if g.degree(v) == 3)
    paths = find_pendent_paths(g, center)
    assert [p.length for p in paths] == [2, 2, 2]
    for p in paths:
        assert g.degree(p.end) == 1
        assert len(p.vertices) == p.length + 1


def test_find_pendent_paths_on_a_cycle_is_empty():
    # a walk from a degree-2 vertex of a 1-cycle comes back to its first edge
    g = s_cycle(4, 1, 3)
    assert all(find_pendent_paths(g, v) == [] for v in range(1, g.n + 1))


def test_graft_hyperstar_to_path():
    g = hyperstar(7, 3)
    h = total_graft(g, 1, 1, 1)
    assert is_isomorphic(h, loose_path(7, 3))
    assert is_supertree(h)


def test_graft_star_power_matches_path_power():
    # same statement built independently on the tree side
    g = tree_power([1, 1, 1], 3)
    h = total_graft(g, 1, 1, 1)
    assert canonical_form(h) == canonical_form(tree_power([1, 2, 3], 3))


def test_graft_rejects_zero_length():
    g = hyperstar(7, 3)
    with pytest.raises(NotPendentPaths):
        total_graft(g, 1, 1, 0)
    with pytest.raises(NotPendentPaths):
        total_graft(g, 1, 0, 2)


def test_graft_rejects_missing_paths():
    with pytest.raises(NotPendentPaths):
        total_graft(hyperstar(7, 3), 1, 2, 1)


@pytest.mark.parametrize("v", [0, 8], ids=["zero", "n-plus-one"])
def test_graft_rejects_vertex_out_of_range(v):
    g = hyperstar(7, 3)
    with pytest.raises(InvalidSpec):
        find_pendent_paths(g, v)
    with pytest.raises(InvalidSpec):
        total_graft(g, v, 1, 1)


def test_graft_rejects_degenerate_base():
    # at a degree-2 vertex the "graft" would just relabel the hypergraph
    g = loose_path(9, 3)
    with pytest.raises(NotPendentPaths):
        total_graft(g, 5, 2, 2)


def test_graft_strictly_decreases_all_radii():
    cases = [
        (tree_power([1, 1, 1, 2, 3, 4], 3), 2, 2),  # spider, legs 2+2
        (hyperstar(9, 3), 1, 1),
        (double_star(1, 2, 3), 1, 1),
    ]
    for g, p, q in cases:
        v = max(range(1, g.n + 1), key=g.degree)
        h = total_graft(g, v, p, q)
        assert is_supertree(h)
        assert (h.n, h.m) == (g.n, g.m)
        for kind in KINDS:
            before = spectral_radius(kind, g, tol=TOL).rho
            after = spectral_radius(kind, h, tol=TOL).rho
            assert_strictly_greater(before, after)


def test_graft_composes_with_moves():
    # a graft is a single edge move: re-deriving it by hand must agree.
    # From the one-pendent-path form, moving the (p+1)-th path edge back
    # to the anchor, or moving every other anchored edge out to the p-th
    # link vertex, both rebuild the two-path form.
    p, q = 2, 1
    g_merged = tree_power([1, 1, 3, 4], 3)  # base edge + pendent path of 3
    g_split = tree_power([1, 1, 3, 1], 3)  # base edge + paths of 2 and 1
    v = next(
        u
        for u in range(1, g_merged.n + 1)
        if g_merged.degree(u) == 2
        and sorted(pp.length for pp in find_pendent_paths(g_merged, u))
        == [1, 3]
    )
    long_path = find_pendent_paths(g_merged, v)[0]
    assert long_path.length == p + q
    v_p = long_path.vertices[p]
    e_next = long_path.edge_ids[p]
    g1 = move_edges(g_merged, EdgeMoveSpec((e_next,), (v_p,), v))
    base_edges = tuple(
        eid
        for eid in g_merged.incident_edges(v)
        if eid != long_path.edge_ids[0]
    )
    g2 = move_edges(
        g_merged, EdgeMoveSpec(base_edges, (v,) * len(base_edges), v_p)
    )
    target = canonical_form(g_split)
    assert canonical_form(g1) == target
    assert canonical_form(g2) == target


# -- ordinary-tree graft reduction -------------------------------------------


def _is_path_code(edges, n_prime):
    path_edges = [(i, i + 1) for i in range(1, n_prime)]
    return tree_canonical_code(edges, n_prime) == tree_canonical_code(
        path_edges, n_prime
    )


def test_graft_to_path_on_path_is_empty():
    assert graft_to_path([1, 2, 3, 4]) == []


def test_graft_to_path_star():
    steps = graft_to_path([1, 1, 1])
    assert len(steps) == 1  # degree 3 center: d(u) - 2 grafts
    assert (steps[0].p, steps[0].q) == (1, 1)


def test_graft_to_path_spider():
    steps = graft_to_path([1, 1, 1, 2, 3, 4])
    assert len(steps) == 1
    assert (steps[0].p, steps[0].q) == (2, 2)


def test_graft_to_path_reaches_path_on_all_small_trees():
    for n_prime in range(2, 9):
        for parents in enumerate_trees(n_prime):
            steps = graft_to_path(parents)
            edges = parents_to_edges(parents)
            assert (not steps) == _is_path_code(edges, n_prime)
            intermediates = apply_graft_sequence(parents, steps)
            for inter in intermediates:
                assert len(inter) == n_prime - 1
            final = intermediates[-1] if intermediates else parents
            assert _is_path_code(parents_to_edges(final), n_prime)


def test_graft_to_path_matches_rounds_on_small_trees():
    # the fixed deepest-first order against grafting round by round, each
    # round walking the current tree from node 1
    for n_prime in range(2, 11):
        for parents in enumerate_trees(n_prime):
            assert graft_to_path(parents) == graft_to_path_by_rounds(parents)


def test_graft_to_path_matches_rounds_on_random_trees():
    # uniform labeled trees, so node 1 lands anywhere: a leaf, on a pendent
    # path, at a heavy vertex
    rng = random.Random(19)
    for _ in range(300):
        n_prime = rng.randint(3, 40)
        seq = [rng.randint(1, n_prime) for _ in range(n_prime - 2)]
        parents = edges_to_parents(prufer_decode(seq, n_prime), n_prime)
        assert graft_to_path(parents) == graft_to_path_by_rounds(parents)


def test_graft_sequence_radii_strictly_decreasing():
    k = 3
    for parents in enumerate_trees(6):
        steps = graft_to_path(parents)
        if not steps:
            continue
        chain = [parents] + apply_graft_sequence(parents, steps)
        for kind in KINDS:
            radii = [
                spectral_radius(kind, tree_power(t, k), tol=TOL).rho
                for t in chain
            ]
            for before, after in zip(radii, radii[1:]):
                assert_strictly_greater(before, after)


def test_tree_graft_roundtrip_parents():
    edges = parents_to_edges([1, 1, 2, 2])
    assert edges == [(1, 2), (1, 3), (2, 4), (2, 5)]
    assert edges_to_parents(edges, 5) == [1, 1, 2, 2]


def test_edges_to_parents_rejects_a_cycle_with_a_tree_edge_count():
    # n'-1 edges, but the triangle on 1..3 leaves node 4 unreached
    with pytest.raises(NotATree):
        edges_to_parents([(1, 2), (2, 3), (1, 3)], 4)


def test_tree_graft_rejects_bad_lengths():
    star = tree_power([1, 1, 1], 2)
    with pytest.raises(NotPendentPaths):
        total_graft(star, 1, 2, 1)
    with pytest.raises(NotPendentPaths):
        total_graft(star, 1, 0, 1)


# Steps and intermediate parent arrays recorded from the free-tree graft code
# that preceded the 2-uniform one.  The chains must match exactly, not just up
# to isomorphism: the choice between equal-length pendent paths decides where
# node 1 lands, and so which heavy vertex is grafted next.
GRAFT_CHAINS = [
    # star and spider
    ([1, 1, 1], [(1, 1, 1)], [[1, 2, 1]]),
    ([1, 1, 1, 2, 3, 4], [(1, 2, 2)], [[1, 5, 1, 2, 3, 4]]),
    # equal-length pendent paths at the grafting vertex, node 1 on one of
    # them: a leaf, the free end of a leg, the middle of a leg
    ([1, 2, 2], [(2, 1, 1)], [[1, 1, 2]]),
    ([3, 1, 2, 4, 2, 6], [(2, 2, 2)], [[3, 1, 1, 4, 2, 6]]),
    ([1, 1, 2, 4, 2, 6], [(2, 2, 2)], [[1, 1, 3, 4, 2, 6]]),
    # two heavy vertices at the same distance from node 1
    ([1, 1, 2, 2, 3, 3], [(2, 1, 1), (3, 1, 1)], [[1, 1, 2, 4, 3, 3], [1, 1, 2, 4, 3, 6]]),
    # unequal lengths p < q
    (
        [3, 1, 2, 2, 1, 5, 6, 6],
        [(2, 1, 2), (6, 1, 1)],
        [[3, 1, 2, 4, 1, 5, 6, 6], [3, 1, 2, 4, 1, 5, 6, 8]],
    ),
    # the first tree of the graft_descent benchmark
    (
        [9, 14, 16, 4, 2, 5, 16, 13, 5, 10, 7, 1, 12, 10, 13],
        [(10, 1, 1), (5, 3, 4), (16, 1, 9), (13, 1, 3)],
        [
            [9, 14, 16, 4, 2, 5, 16, 13, 5, 10, 7, 1, 12, 11, 13],
            [9, 14, 16, 4, 2, 15, 16, 13, 5, 10, 7, 1, 12, 11, 13],
            [9, 14, 8, 4, 2, 15, 16, 13, 5, 10, 7, 1, 12, 11, 13],
            [9, 14, 8, 4, 2, 15, 16, 1, 5, 10, 7, 1, 12, 11, 13],
        ],
    ),
]


@pytest.mark.parametrize("parents,steps,chain", GRAFT_CHAINS)
def test_graft_chains_are_pinned(parents, steps, chain):
    expected = [GraftStep(vertex=v, p=p, q=q) for v, p, q in steps]
    assert graft_to_path(parents) == expected
    assert apply_graft_sequence(parents, expected) == chain


def test_edges_to_parents_rejects_non_tree():
    with pytest.raises(NotATree):
        edges_to_parents([(1, 2), (3, 4)], 4)
    with pytest.raises(NotATree):  # connected, but a cycle leaves node 3 one parent
        edges_to_parents([(1, 2), (2, 3), (1, 3)], 3)


def test_single_edge_has_no_graftable_paths():
    with pytest.raises(NotPendentPaths):
        total_graft(single_edge(3), 1, 1, 1)
