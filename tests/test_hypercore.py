"""Data structure, Berge degrees, witnesses, and the text formats."""

import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergesat.hypercore import (
    MAX_VERTICES,
    FormatError,
    Hypergraph3,
    add_edge,
    berge_degree,
    berge_witness,
    degree,
    disjoint_union,
    incidence_index,
    link,
    make,
    read_h3,
    read_json,
    remove_edge,
    tree_components,
    write_h3,
    write_json,
)

from conftest import small_3graphs


def k5():
    return Hypergraph3(5, tuple(combinations(range(5), 3)))


def test_validation_rejects_bad_edges():
    with pytest.raises(ValueError, match="not a triple"):
        Hypergraph3(4, ((0, 1),))
    with pytest.raises(ValueError, match="out of range"):
        Hypergraph3(3, ((0, 1, 3),))
    with pytest.raises(ValueError, match="ascending"):
        Hypergraph3(4, ((0, 2, 1),))
    with pytest.raises(ValueError, match="duplicate"):
        Hypergraph3(4, ((0, 1, 2), (0, 1, 2)))
    with pytest.raises(ValueError, match="order"):
        Hypergraph3(5, ((0, 1, 3), (0, 1, 2)))
    with pytest.raises(ValueError, match="negative"):
        Hypergraph3(-1, ())


def test_make_sorts_vertices_and_edges():
    g = make(5, [(4, 2, 0), (3, 1, 0)])
    assert g.edges == ((0, 1, 3), (0, 2, 4))


def test_degree_and_link_on_a_known_graph():
    g = make(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    assert degree(g, 0) == 2
    assert degree(g, 4) == 1
    l = link(g, 0)
    assert l.neighbors == (1, 2, 3)
    assert l.pairs == ((1, 2), (1, 3))
    idx = incidence_index(g)
    assert degree(g, 0, idx) == 2
    assert link(g, 2, idx).pairs == ((0, 1), (3, 4))


def test_vertex_range_checked():
    g = make(4, [(0, 1, 2)])
    with pytest.raises(ValueError, match="out of range"):
        degree(g, 4)
    with pytest.raises(ValueError, match="out of range"):
        link(g, -1)


def test_berge_degree_of_complete_graph_vertex():
    # the link of any K5 vertex is K4: one component, not a tree
    assert all(berge_degree(k5(), v) == 4 for v in range(5))


def test_berge_degree_counts_tree_components():
    # two triples through 0 sharing no pair: link is a 2-edge matching,
    # two tree components, so the Berge degree is 4 - 2 = 2
    g = make(5, [(0, 1, 2), (0, 3, 4)])
    assert berge_degree(g, 0) == 2
    # make the link a path of two edges: still one tree component
    g2 = make(5, [(0, 1, 2), (0, 2, 3)])
    assert berge_degree(g2, 0) == 2
    # close a triangle in the link: component stops being a tree
    g3 = make(5, [(0, 1, 2), (0, 2, 3), (0, 1, 3)])
    assert berge_degree(g3, 0) == 3


def test_tree_components_of_links():
    g = make(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5)])
    assert tree_components(link(g, 0)) == 3
    assert berge_degree(g, 0) == 6 - 3


@settings(max_examples=120, deadline=None)
@given(small_3graphs())
def test_witness_matches_degree_and_is_a_valid_berge_star(g):
    idx = incidence_index(g)
    for v in range(g.vertex_count):
        d = berge_degree(g, v, idx)
        w = berge_witness(g, v, idx)
        assert w.center == v
        assert len(w.assignment) == d
        leaves = [leaf for _, leaf in w.assignment]
        used = [e for e, _ in w.assignment]
        assert len(set(leaves)) == len(leaves)
        assert len(set(used)) == len(used)
        for e, leaf in w.assignment:
            assert e in g.edges
            assert v in e and leaf in e and leaf != v


def test_disjoint_union_shifts_the_second_block():
    a = make(4, [(0, 1, 2)])
    b = make(3, [(0, 1, 2)])
    u = disjoint_union(a, b)
    assert u.vertex_count == 7
    assert u.edges == ((0, 1, 2), (4, 5, 6))


def test_add_and_remove_edge():
    g = make(5, [(0, 1, 2)])
    g2 = add_edge(g, (4, 3, 2))
    assert (2, 3, 4) in g2.edges
    with pytest.raises(ValueError, match="already present"):
        add_edge(g2, (2, 3, 4))
    g3 = remove_edge(g2, (2, 3, 4))
    assert g3.edges == g.edges
    with pytest.raises(ValueError, match="not present"):
        remove_edge(g3, (2, 3, 4))


@settings(max_examples=80, deadline=None)
@given(small_3graphs())
def test_h3_and_json_round_trip(g):
    assert read_h3(write_h3(g)) == g
    assert read_json(write_json(g)) == g


def test_h3_write_is_canonical_fixed_point():
    text = write_h3(make(6, [(5, 4, 3), (0, 1, 2)]))
    assert write_h3(read_h3(text)) == text


def test_h3_parser_diagnostics_carry_line_numbers():
    with pytest.raises(FormatError, match="header"):
        read_h3("nope\n")
    with pytest.raises(FormatError) as e:
        read_h3("h3 4 1\n0 1\n")
    assert e.value.line == 2
    with pytest.raises(FormatError, match="promises 2"):
        read_h3("h3 4 2\n0 1 2\n")
    bad_edges = [
        ("h3 3 1\n0 1 3\n", "out of range", 2),
        ("h3 4 2\n0 1 2\n# note\n1 3 2\n", "not strictly ascending", 4),
        ("h3 4 2\n0 1 2\n0 1 2\n", "duplicate", 3),
        ("h3 4 3\n0 1 2\n\n1 2 3\n0 1 3\n", "lexicographic order", 5),
    ]
    for text, problem, line in bad_edges:
        with pytest.raises(FormatError, match=problem) as e:
            read_h3(text)
        assert e.value.line == line
    # comments and blank lines are fine
    g = read_h3("# witness\nh3 4 1\n\n0 1 2\n")
    assert g.edges == ((0, 1, 2),)


def test_json_parser_rejects_malformed_objects():
    with pytest.raises(FormatError, match="invalid JSON"):
        read_json("{")
    with pytest.raises(FormatError, match="fields"):
        read_json('{"n": 3}')
    with pytest.raises(FormatError):
        read_json('{"n": "x", "edges": []}')


def test_json_parser_rejects_booleans_as_integers():
    with pytest.raises(FormatError, match="field 'n'"):
        read_json('{"n": true, "edges": []}')
    with pytest.raises(FormatError, match=r"edges\[1\]"):
        read_json('{"n": 3, "edges": [[0, 1, 2], [false, true, 2]]}')


def test_readers_cap_the_vertex_count():
    with pytest.raises(FormatError, match="line 2: vertex count 99999999999 exceeds"):
        read_h3("# huge\nh3 99999999999 0\n")
    with pytest.raises(FormatError, match="vertex count 99999999999 exceeds"):
        read_json('{"n": 99999999999, "edges": []}')
    for text in (f"h3 {MAX_VERTICES + 1} 0\n", f'{{"n": {MAX_VERTICES + 1}, "edges": []}}'):
        with pytest.raises(FormatError, match="reader limit"):
            (read_json if text.startswith("{") else read_h3)(text)
    assert read_h3(f"h3 {MAX_VERTICES} 0\n").vertex_count == MAX_VERTICES
    assert read_json(f'{{"n": {MAX_VERTICES}, "edges": []}}').vertex_count == MAX_VERTICES


def test_json_parser_does_not_recurse_into_deep_nesting():
    with pytest.raises(FormatError, match="invalid JSON"):
        read_json('{"n": ' + "[" * 5000)
    with pytest.raises(FormatError, match="invalid JSON"):
        read_json('{"n": 3, "edges": ' + "[" * 5000 + "]" * 5000 + "}")


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=3)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "edges", "m"]), inner, max_size=3),
    max_leaves=12,
)
_json_ids = st.booleans() | st.integers(min_value=-1, max_value=5)
_json_graphs = st.fixed_dictionaries(
    {
        "n": _json_ids | _json_values,
        "edges": st.lists(st.lists(_json_ids | _json_values, max_size=4), max_size=3)
        | _json_values,
    }
)
_json_texts = st.one_of(
    st.builds(json.dumps, _json_graphs),
    st.builds(json.dumps, _json_values),
    st.builds(
        lambda head, depth: head + "[" * depth,
        st.sampled_from(["", '{"n": ', '{"n": 3, "edges": [']),
        st.integers(min_value=0, max_value=5000),
    ),
)
_h3_tokens = st.sampled_from(["h3", "0", "1", "2", "3", "-1", "4", "x", "1.5", "#", "99"])
_h3_texts = st.lists(
    st.lists(_h3_tokens, max_size=4).map(" ".join), max_size=6
).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_json_texts, _h3_texts, st.text()))
def test_readers_give_a_graph_or_a_format_error(text):
    for reader in (read_h3, read_json):
        try:
            g = reader(text)
        except FormatError:
            continue
        # bool passes isinstance(x, int), so a parsed true/false shows here
        assert type(g.vertex_count) is int and g.vertex_count <= MAX_VERTICES
        assert all(type(x) is int for e in g.edges for x in e)
