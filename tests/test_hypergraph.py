import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree_spectra import (
    format_hypergraph,
    hyperstar,
    incidence_matrix,
    is_connected,
    is_linear,
    is_supertree,
    loose_path,
    parse_hypergraph,
    pendent_edges,
    s_cycle,
    single_edge,
    validate,
)
from hypertree_spectra.errors import (
    DuplicateEdge,
    NonUniform,
    NotLinear,
    RepeatedVertexInEdge,
    VertexOutOfRange,
)
from oracles import has_berge_cycle


def test_validate_basic():
    g = validate([[1, 2, 3], [3, 4, 5]], 5)
    assert g.k == 3
    assert g.m == 2
    assert g.degrees == (1, 1, 2, 1, 1)


def test_validate_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        validate([[1, 2, 3], [3, 2, 1]], 3)


def test_validate_non_uniform():
    with pytest.raises(NonUniform):
        validate([[1, 2], [2, 3, 4]], 4)


def test_validate_vertex_out_of_range():
    with pytest.raises(VertexOutOfRange):
        validate([[1, 2, 9]], 5)


def test_validate_repeated_vertex():
    with pytest.raises(RepeatedVertexInEdge):
        validate([[1, 2, 2]], 3)


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
    r = incidence_matrix(single_edge(3)).to_dense()
    assert r.shape == (3, 1)
    assert r.sum() == 3


def test_incidence_matrix_hyperstar():
    r = incidence_matrix(hyperstar(5, 3)).to_dense()
    assert r.shape == (5, 2)
    assert list(r[0]) == [1.0, 1.0]  # center row all ones


def test_incidence_matrix_loose_path():
    g = loose_path(7, 3)
    r = incidence_matrix(g).to_dense()
    assert r.shape == (7, 3)
    # shared vertices 3 and 5 have two ones in their row
    assert r[2].sum() == 2
    assert r[4].sum() == 2
    assert all(r[:, j].sum() == 3 for j in range(3))


def test_incidence_row_sums_are_degrees(corpus_instance):
    g = corpus_instance
    r = incidence_matrix(g).to_dense()
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
def test_counting_criterion_matches_cycle_search(g):
    # for connected g: acyclic (no Berge cycle) iff m*(k-1) == n-1
    if is_connected(g):
        assert is_supertree(g) == (not has_berge_cycle(g))


def test_cycle_search_on_corpus(corpus_instance):
    g = corpus_instance
    if is_connected(g):
        assert is_supertree(g) == (not has_berge_cycle(g))
