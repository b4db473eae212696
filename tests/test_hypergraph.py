import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree_spectra import (
    Hypergraph,
    format_hypergraph,
    hyperstar,
    incidence_matrix,
    is_connected,
    is_linear,
    loose_path,
    parse_hypergraph,
    read_hypergraph,
    pendent_edges,
    s_cycle,
    single_edge,
    validate,
)
from hypertree_spectra.errors import (
    BadDimensions,
    BadFormat,
    DuplicateEdge,
    NonUniform,
    NotLinear,
    RepeatedVertexInEdge,
    VertexOutOfRange,
)
from oracles import has_berge_cycle, is_supertree, union_find_connected


def test_validate_basic():
    g = validate([[1, 2, 3], [3, 4, 5]], 5)
    assert g.k == 3
    assert g.m == 2
    assert g.degrees == (1, 1, 2, 1, 1)


def test_replaced_edges_carry_their_own_incidence():
    """Only (k, n, edges) are stored; a copy with other edges has their
    incidence lists and degrees, not the original's."""
    assert [f.name for f in dataclasses.fields(Hypergraph)] == ["k", "n", "edges"]
    star, path = hyperstar(7, 3), loose_path(7, 3)
    assert star.degrees == (3, 1, 1, 1, 1, 1, 1)
    moved = dataclasses.replace(star, edges=path.edges)
    assert moved == path and moved.vertex_to_edges == path.vertex_to_edges
    assert moved.degrees == (1, 1, 2, 1, 2, 1, 1)
    assert moved.incident_edges(3) == (0, 1)


def test_validate_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        validate([[1, 2, 3], [3, 2, 1]], 3)


def test_validate_non_uniform():
    with pytest.raises(NonUniform):
        validate([[1, 2], [2, 3, 4]], 4)


def test_validate_cannot_infer_k_from_no_edges():
    with pytest.raises(NonUniform, match="empty edge list"):
        validate([], 3)


def test_validate_vertex_out_of_range():
    with pytest.raises(VertexOutOfRange):
        validate([[1, 2, 9]], 5)


@pytest.mark.parametrize(
    "edges",
    [[[1, 2.5], [2.5, 3]], [[1, 2.0]], [[True, 2]], [[1, True]], [[2, 2.0]], [[1, "2"]], [[1, None]]],
)
def test_validate_rejects_non_integer_vertex_ids(edges):
    with pytest.raises(VertexOutOfRange):
        validate(edges, 3)


@pytest.mark.parametrize(
    "n,k", [(3.5, None), (3.0, None), (True, None), ("3", None), (3, 2.0), (3, True), (3, "2")]
)
def test_validate_rejects_non_integer_dimensions(n, k):
    with pytest.raises(BadDimensions):
        validate([[1, 2], [2, 3]], n, k=k)


def test_validate_stores_numpy_integers_as_int():
    ids = np.array([[1, 2, 3], [3, 4, 5]], dtype=np.int64)
    g = validate(ids, np.int64(5), k=np.int32(3))
    assert g == validate([[1, 2, 3], [3, 4, 5]], 5, k=3)
    assert all(type(v) is int for e in g.edges for v in e)
    assert type(g.n) is int and type(g.k) is int


def test_validate_repeated_vertex():
    with pytest.raises(RepeatedVertexInEdge):
        validate([[1, 2, 2]], 3)


@pytest.mark.parametrize("text", ["3 -1 0\n", "3 0 0\n", "0 1 0\n", "1 1 1\n1\n"])
def test_parse_rejects_bad_dimensions(text):
    # k < 2 or n < 1
    with pytest.raises(BadDimensions):
        parse_hypergraph(text)


def test_validate_bad_inferred_uniformity():
    with pytest.raises(BadDimensions):
        validate([[1]], 1)


def test_validate_one_vertex_edgeless():
    g = validate([], 1, k=2)
    assert (g.n, g.m, g.degrees) == (1, 0, (0,))
    assert is_connected(g)


def test_connectivity():
    assert is_connected(single_edge(3))
    assert not is_connected(validate([[1, 2, 3], [4, 5, 6]], 6))
    assert is_connected(loose_path(7, 3))


def test_is_supertree():
    assert is_supertree(hyperstar(7, 3))
    assert not is_supertree(s_cycle(3, 1, 3))
    assert not is_supertree(validate([[1, 2, 3], [4, 5, 6]], 6))


def test_is_linear():
    assert is_linear(hyperstar(9, 3))
    assert not is_linear(validate([[1, 2, 3], [1, 2, 4]], 4))
    assert is_linear(single_edge(4))


def test_incidence_matrix_single_edge():
    r = incidence_matrix(single_edge(3))
    assert r.shape == (3, 1)
    assert r.sum() == 3


def test_incidence_matrix_hyperstar():
    r = incidence_matrix(hyperstar(5, 3))
    assert r.shape == (5, 2)
    assert list(r[0]) == [1.0, 1.0]  # center row all ones


def test_incidence_matrix_loose_path():
    g = loose_path(7, 3)
    r = incidence_matrix(g)
    assert r.shape == (7, 3)
    # shared vertices 3 and 5 have two ones in their row
    assert r[2].sum() == 2
    assert r[4].sum() == 2
    assert all(r[:, j].sum() == 3 for j in range(3))


def test_incidence_row_sums_are_degrees(corpus_instance):
    g = corpus_instance
    r = incidence_matrix(g)
    assert tuple(int(s) for s in r.sum(axis=1)) == g.degrees
    assert all(r[:, j].sum() == g.k for j in range(g.m))


def test_pendent_edges_hyperstar():
    g = hyperstar(9, 3)
    assert pendent_edges(g) == {0, 1, 2, 3}


def test_pendent_edges_loose_path_k4():
    g = loose_path(10, 4)
    assert g.m == 3
    # only the two end edges are pendent; the middle one has two
    # degree-two link vertices
    assert pendent_edges(g) == {0, 2}


def test_pendent_edges_single_edge():
    assert pendent_edges(single_edge(3)) == {0}


def test_pendent_edges_not_linear():
    with pytest.raises(NotLinear):
        pendent_edges(validate([[1, 2, 3], [1, 2, 4]], 4))


def test_degree_sum_identity(corpus_instance):
    g = corpus_instance
    assert sum(g.degrees) == g.k * g.m


def test_text_roundtrip(corpus_instance):
    g = corpus_instance
    assert parse_hypergraph(format_hypergraph(g)) == g


def test_text_format_comments_and_reordering():
    text = "# a hyperstar\n3 5 2\n4 5 1\n# middle comment\n1 2 3\n"
    g = parse_hypergraph(text)
    assert g.edges == ((1, 2, 3), (1, 4, 5))


def test_parse_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_hypergraph("3 5\n1 2 3\n")
    with pytest.raises(ValueError):
        parse_hypergraph("3 5 2\n1 2 3\n")


def test_parse_rejects_non_integer_token():
    with pytest.raises(BadFormat, match="non-integer token in line '1 2 x'"):
        parse_hypergraph("3 7 3\n1 2 x\n")


def test_parse_rejects_a_file_of_comments_only():
    with pytest.raises(BadFormat, match="empty hypergraph file"):
        parse_hypergraph("# a header is missing\n\n# and so is every edge\n")


def test_read_rejects_non_utf8(tmp_path):
    f = tmp_path / "binary.hg"
    f.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(BadFormat, match="not UTF-8"):
        read_hypergraph(f)


@st.composite
def random_hypergraphs(draw):
    k = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=k, max_value=9))
    pool = st.lists(
        st.integers(min_value=1, max_value=n), min_size=k, max_size=k, unique=True
    )
    raw = draw(st.lists(pool, min_size=1, max_size=6))
    dedup = {tuple(sorted(e)) for e in raw}
    return validate([list(e) for e in dedup], n)


@given(random_hypergraphs())
@settings(max_examples=60, deadline=None)
def test_roundtrip_and_degree_sum_random(g):
    assert parse_hypergraph(format_hypergraph(g)) == g
    assert sum(g.degrees) == g.k * g.m


@given(random_hypergraphs())
@settings(max_examples=60, deadline=None)
def test_incidence_is_recomputed_from_edges(g):
    assert g.vertex_to_edges == tuple(
        tuple(j for j, e in enumerate(g.edges) if v in e) for v in range(1, g.n + 1)
    )


@given(random_hypergraphs())
@settings(max_examples=60, deadline=None)
def test_counting_criterion_matches_cycle_search(g):
    # for connected g: acyclic (no Berge cycle) iff m*(k-1) == n-1
    if is_connected(g):
        assert is_supertree(g) == (not has_berge_cycle(g))


@given(random_hypergraphs())
@settings(max_examples=60, deadline=None)
def test_is_linear_matches_pairwise_definition(g):
    # linear: no two edges share two or more vertices
    pairwise = all(len(set(a) & set(b)) < 2 for a, b in itertools.combinations(g.edges, 2))
    assert is_linear(g) == pairwise


@given(random_hypergraphs())
@settings(max_examples=60, deadline=None)
def test_is_connected_matches_union_find(g):
    assert is_connected(g) == union_find_connected(g)


def test_cycle_search_on_corpus(corpus_instance):
    g = corpus_instance
    if is_connected(g):
        assert is_supertree(g) == (not has_berge_cycle(g))
