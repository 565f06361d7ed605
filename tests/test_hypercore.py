"""Data structure, links, Berge degrees, and the text formats."""

import copy
import inspect
import json
import pickle
import random
import sys
import time
import tracemalloc
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergesat import hypercore
from bergesat.hypercore import (
    MAX_VERTICES,
    FormatError,
    Hypergraph3,
    LinkPass,
    disjoint_union,
    link,
    make,
    read_h3,
    read_json,
    remove_edge,
    tree_components,
    write_h3,
    write_json,
)

from bergesat.assembler import build_spectrum_witness
from bergesat.oracle import berge_degree_matching

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
    # lists would leave the value mutable and unhashable
    with pytest.raises(ValueError, match="tuple of triples"):
        Hypergraph3(4, [(0, 1, 2)])
    with pytest.raises(ValueError, match="not a triple"):
        Hypergraph3(4, ([0, 1, 2],))


def test_hypergraph_is_an_immutable_value():
    g = k5()
    assert g == k5() and hash(g) == hash(k5()) and g != make(6, g.edges)
    assert g != (5, g.edges) and len({g, k5()}) == 1
    for change in (lambda: setattr(g, "edges", ()), lambda: delattr(g, "vertex_count"),
                   lambda: setattr(g, "label", "K5")):
        with pytest.raises(AttributeError):
            change()
    assert pickle.loads(pickle.dumps(g)) == copy.deepcopy(g) == g
    assert repr(make(3, [(0, 1, 2)])) == "Hypergraph3(vertex_count=3, edges=((0, 1, 2),))"


def test_make_sorts_vertices_and_edges():
    g = make(5, [(4, 2, 0), (3, 1, 0)])
    assert g.edges == ((0, 1, 3), (0, 2, 4))


def test_degree_and_link_on_a_known_graph():
    g = make(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    l = link(g, 0)
    assert l.neighbors == (1, 2, 3)
    assert l.pairs == ((1, 2), (1, 3))
    through = LinkPass(g.vertex_count, g.edges).through
    assert [len(es) for es in through] == [2, 2, 2, 2, 1]
    assert link(g, 2).pairs == ((0, 1), (3, 4))


def test_vertex_range_checked():
    g = make(4, [(0, 1, 2)])
    with pytest.raises(ValueError, match="out of range"):
        link(g, 4)
    with pytest.raises(ValueError, match="out of range"):
        link(g, -1)


def test_berge_degree_of_complete_graph_vertex():
    # the link of any K5 vertex is K4: one component, not a tree
    assert LinkPass(5, k5().edges).degrees == (4, 4, 4, 4, 4)


def test_berge_degree_counts_tree_components():
    # two triples through 0 sharing no pair: link is a 2-edge matching,
    # two tree components, so the Berge degree is 4 - 2 = 2
    g = make(5, [(0, 1, 2), (0, 3, 4)])
    assert LinkPass(g.vertex_count, g.edges).degrees[0] == 2
    # make the link a path of two edges: still one tree component
    g2 = make(5, [(0, 1, 2), (0, 2, 3)])
    assert LinkPass(g2.vertex_count, g2.edges).degrees[0] == 2
    # close a triangle in the link: component stops being a tree
    g3 = make(5, [(0, 1, 2), (0, 2, 3), (0, 1, 3)])
    assert LinkPass(g3.vertex_count, g3.edges).degrees[0] == 3


def test_tree_components_of_links():
    g = make(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5)])
    assert tree_components(link(g, 0)) == 3
    assert LinkPass(g.vertex_count, g.edges).degrees[0] == 6 - 3


def _pass_without_recursion(g):
    """LinkPass of g, timed, under a recursion limit a few dozen frames
    above the caller, so any recursion that grows with the input fails."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        start = time.perf_counter()
        lp = LinkPass(g.vertex_count, g.edges)
        return lp, time.perf_counter() - start
    finally:
        sys.setrecursionlimit(limit)


def _relabel(g, perm):
    return make(g.vertex_count, [[perm[x] for x in e] for e in g.edges])


_K = 20_000
_path = make(_K + 1, [(0, i, i + 1) for i in range(1, _K)])
_cycle = make(_K + 1, _path.edges + ((0, 1, _K),))
_matching = make(_K + 1, [(0, i, i + 1) for i in range(1, _K, 2)])


@pytest.mark.parametrize("g, checked, nontree_0", [
    pytest.param(_path, (0, 1, 2, _K // 2, _K), 0, id="path-link"),
    pytest.param(_cycle, (0, 1, 2, _K // 2, _K), _K, id="cycle-link"),
    pytest.param(_matching, (0, 1, 2, _K - 1, _K), 0, id="forest-of-K2s"),
    pytest.param(Hypergraph3(6, ()), range(6), 0, id="no-edges"),
    pytest.param(Hypergraph3(0, ()), range(0), 0, id="no-vertices"),
    pytest.param(make(10, [(0, 1, 2), (0, 3, 4), (1, 2, 3)]), range(10), 0,
                 id="isolated-vertices"),
])
def test_link_pass_matches_the_matching_oracle_on_extreme_links(g, checked, nontree_0):
    # a path link grows the union-find's longest parent chains when its
    # labels are scattered, so each graph also runs under a random
    # relabeling that fixes the center 0
    rest = list(range(1, g.vertex_count))
    random.Random(0).shuffle(rest)
    perm = [0] + rest
    lp, seconds = _pass_without_recursion(g)
    scattered, scattered_s = _pass_without_recursion(_relabel(g, perm))
    assert seconds + scattered_s < 10
    assert len(lp.degrees) == len(lp.clique) == g.vertex_count
    for v in checked:
        d = berge_degree_matching(g, v)
        assert lp.degrees[v] == scattered.degrees[perm[v]] == d
    if g.vertex_count:
        assert len(lp.nontree[0]) == len(scattered.nontree[0]) == nontree_0
        assert tuple(sorted(lp.pairs(0))) == link(g, 0).pairs


def test_disjoint_union_shifts_the_second_block():
    a = make(4, [(0, 1, 2)])
    b = make(3, [(0, 1, 2)])
    u = disjoint_union(a, b)
    assert u.vertex_count == 7
    assert u.edges == ((0, 1, 2), (4, 5, 6))
    three = disjoint_union(b, a, b)
    assert three.vertex_count == 10
    assert three.edges == ((0, 1, 2), (3, 4, 5), (7, 8, 9))
    assert disjoint_union() == make(0, [])


def test_add_and_remove_edge():
    g = make(5, [(0, 1, 2)])
    g2 = make(g.vertex_count, g.edges + ((4, 3, 2),))
    assert (2, 3, 4) in g2.edges
    g3 = remove_edge(g2, (2, 3, 4))
    assert g3.edges == g.edges
    with pytest.raises(ValueError, match="not present"):
        remove_edge(g3, (2, 3, 4))


@settings(max_examples=80, deadline=None)
@given(small_3graphs())
def test_h3_and_json_round_trip(g):
    assert read_h3(write_h3(g)) == g
    assert read_json(write_json(g)) == g


def _largest_witness():
    """The (10008, 6, 25590) witness, mostly a linear layer and 891 K6 blocks."""
    _, g = build_spectrum_witness(10008, 6, 25590, seed=0)
    return g


def test_h3_round_trip_on_the_largest_witness():
    g = _largest_witness()
    assert len(g.edges) > 10**4
    assert read_h3(write_h3(g)) == g


def test_readers_hold_one_int_per_vertex():
    # an int object per parsed id, 32 B per incidence, held 3.96 MB for the
    # largest witness; one shared int per vertex brings it to about 2.0 MB
    g = _largest_witness()
    for write, read in ((write_h3, read_h3), (write_json, read_json)):
        text = write(g)
        tracemalloc.start()
        try:
            back = read(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back == g and held < 2.6e6
        if read is read_h3:
            # one chunk's tokens at a time, and the id table freed before the
            # edge tuple is copied; with the table held to the end the peak
            # stood 0.96 MB above the result
            assert peak - held < 0.9e6


def test_link_pass_makes_no_object_per_incidence():
    # the pass lists the host's own edge tuples per vertex and keeps each
    # complete link's NT set as a tuple; a pair tuple per incidence and a
    # frozenset per complete link held about 393 B per edge
    g = _largest_witness()
    tracemalloc.start()
    try:
        lp = LinkPass(g.vertex_count, g.edges)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(lp.degrees) == 5 and sum(map(len, lp.through)) == 3 * len(g.edges)
    assert held / len(g.edges) < 150


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
        ("h3 4 2\n0 1 2\n# c\n0 1 9\n", "out of range", 4),
        ("h3 4 2\r\n0 1 2\r\n  #c\r\n\r\n2 1 3\r\n", "not strictly ascending", 5),
        ("h3 4 1\r\n\r\n0 1 x\r\n", "non-integer vertex id", 3),
        ("h3 x 1\n", "non-integer header field", 1),
        ("h3 3 -1\n", "negative count", 1),
        ("h3 3 1\n0 1 2\n0 1 2\n", "more than 1 edge lines", 3),
    ]
    for text, problem, line in bad_edges:
        with pytest.raises(FormatError, match=problem) as e:
            read_h3(text)
        assert e.value.line == line
    # comments, blank lines and CRLF line ends are fine
    g = read_h3("# witness\nh3 4 1\n\n0 1 2\n")
    assert g.edges == ((0, 1, 2),)
    g = read_h3("# witness\r\nh3 4 2\r\n0 1 2\r\n\t# c\r\n\r\n1 2 3\r\n")
    assert g == Hypergraph3(4, ((0, 1, 2), (1, 2, 3)))
    # ids that int() reads but that are not plain decimals keep their meaning
    g = read_h3("h3 12 2\n00 +1 1_0\n\uff11 2 \uff13\n")
    assert g.edges == ((0, 1, 10), (1, 2, 3))


def _reference_read_h3(text):
    """The .h3 reader as one loop over text.split("\\n"), int() for every id:
    `read_h3` must give the same graph, or the same error and line."""
    m, edges, lines = None, [], text.split("\n")
    for lineno, raw in enumerate(lines, 1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if m is None:
            if len(parts) != 3 or parts[0] != "h3":
                raise FormatError(f"expected header 'h3 <n> <m>', got {raw!r}", lineno)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(f"non-integer header field in {raw!r}", lineno)
            if n < 0 or m < 0:
                raise FormatError(f"negative count in header {raw!r}", lineno)
            if n > MAX_VERTICES:
                raise FormatError(f"vertex count {n} exceeds the reader limit {MAX_VERTICES}",
                                  lineno)
            continue
        if len(parts) != 3:
            raise FormatError(f"expected 3 vertex ids, got {raw!r}", lineno)
        try:
            e = tuple(map(int, parts))
        except ValueError:
            raise FormatError(f"non-integer vertex id in {raw!r}", lineno)
        if len(edges) >= m:
            raise FormatError(f"more than {m} edge lines", lineno)
        edges.append(e)
    if m is None:
        raise FormatError("missing 'h3 <n> <m>' header")
    if len(edges) != m:
        raise FormatError(f"header promises {m} edges, found {len(edges)}")
    try:
        return Hypergraph3(n, tuple(edges))
    except ValueError as exc:  # the edge at exc.pos, on the (pos + 2)-th kept line
        kept = [i for i, raw in enumerate(lines, 1) if raw.lstrip()[:1] not in ("", "#")]
        raise FormatError(str(exc), kept[exc.pos + 1]) from exc


def _outcome(read, text):
    try:
        return read(text)
    except FormatError as exc:
        return str(exc), exc.line


_FULLWIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))
_ENDS = st.sampled_from(["\n", "\r\n", " \n", "\t\n"])


@st.composite
def _decorated_h3(draw):
    """(g, write_h3(g), the same graph with some lines decorated): comments,
    blank lines, tabs and runs of spaces, CRLF, ids spelled 00, +1 or in
    fullwidth digits, and at times no final newline."""
    g = draw(small_3graphs())
    out = []
    for row in write_h3(g).splitlines():
        if not draw(st.booleans()):  # left as written, so canonical chunks stay
            out.append(row + "\n")
            continue
        while draw(st.integers(0, 2)) == 0:
            out.append(draw(st.sampled_from(["", "  ", "\t", "# note", "  # 0 1 2"])) + draw(_ENDS))
        ids = row.split()
        if ids[0] != "h3":
            ids = [draw(st.sampled_from([x, "0" + x, "+" + x, x.translate(_FULLWIDTH)]))
                   for x in ids]
        gaps = draw(st.lists(st.sampled_from([" ", "  ", "\t", " \t "]), min_size=2, max_size=2))
        out.append(draw(st.sampled_from(["", " ", "\t"])) + ids[0] + gaps[0] + ids[1]
                   + gaps[1] + ids[2] + draw(_ENDS))
    text = "".join(out)
    return g, write_h3(g), text[:-1] if draw(st.booleans()) else text


# chunk sizes from one line per chunk up to the reader's own
_CHUNKS = st.sampled_from([1, 8, 24, hypercore._CHUNK])


@settings(max_examples=150, deadline=None)
@given(_decorated_h3(), _CHUNKS)
def test_h3_reader_reads_decorated_text_as_written_text(case, chunk):
    g, written, text = case
    with patch.object(hypercore, "_CHUNK", chunk):
        assert read_h3(written) == g
        assert read_h3(text) == g == _reference_read_h3(text)


_BAD_LINES = ["0 1", "0 1 2 3", "0 1 x", "1.5 2 3", "2 1 0", "0 1 99", "-1 0 1",
              "h3 4 1", "0 1 2", "00 1 2", "\uff10 1 3", "# 0 1 2", ""]


@st.composite
def _broken_h3(draw):
    """A decorated text with one line replaced, one line inserted, or the
    header's edge count moved by one."""
    _, _, text = draw(_decorated_h3())
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["replace", "insert", "recount"]))
    if how == "recount":
        h = next(j for j, raw in enumerate(lines) if raw.split()[:1] == ["h3"])
        n, m = lines[h].split()[1:]
        lines[h] = f"h3 {n} {int(m) + draw(st.sampled_from([-1, 1]))}"
    else:
        lines[i:i + (how == "replace")] = [draw(st.sampled_from(_BAD_LINES + lines))]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(_broken_h3(), _CHUNKS)
def test_h3_reader_fails_as_the_line_loop_does(text, chunk):
    with patch.object(hypercore, "_CHUNK", chunk):
        assert _outcome(read_h3, text) == _outcome(_reference_read_h3, text)


def test_h3_reader_errors_on_either_side_of_a_chunk_boundary(monkeypatch):
    # 56 lines of six characters: at _CHUNK 6 and 16 every line is the
    # first or the last of a chunk for some i
    rows = write_h3(Hypergraph3(8, tuple(combinations(range(8), 3)))).split("\n")
    for chunk in (6, 16, 40):
        monkeypatch.setattr(hypercore, "_CHUNK", chunk)
        for i in range(1, len(rows) - 1):
            for bad in ("0 1 x", "2 1 0", "0 1 99", "00 1 2", "0 1", rows[i - 1]):
                text = "\n".join(rows[:i] + [bad] + rows[i + 1:])
                want = _outcome(_reference_read_h3, text)
                assert _outcome(read_h3, text) == want
                if (bad, i) != ("00 1 2", 1):  # else the edge it replaces, respelled
                    assert want[1] == i + 1


def test_json_parser_rejects_malformed_objects():
    with pytest.raises(FormatError, match="invalid JSON"):
        read_json("{")
    with pytest.raises(FormatError, match="fields"):
        read_json('{"n": 3}')
    with pytest.raises(FormatError):
        read_json('{"n": "x", "edges": []}')
    with pytest.raises(FormatError, match="field 'edges' must be an array"):
        read_json('{"n": 3, "edges": 5}')
    # objects that parse but fail graph validation
    for text, why in [('{"n": -1, "edges": []}', "negative vertex count"),
                      ('{"n": 3, "edges": [[0, 1, 5]]}', "vertex out of range"),
                      ('{"n": 3, "edges": [[2, 1, 0]]}', "not strictly ascending"),
                      ('{"n": 4, "edges": [[1, 2, 3], [0, 1, 2]]}', "out of lexicographic order")]:
        with pytest.raises(FormatError, match=why):
            read_json(text)


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
