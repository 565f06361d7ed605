"""Saturation verdicts: fast path against full scan, tags, and the catalog."""

from collections import Counter
from itertools import chain, combinations, permutations, product
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergesat.assembler import build_spectrum_witness
from bergesat.checker import (
    TYPE_I,
    TYPE_II,
    _lifts,
    aggressive_sufficient,
    classify_link_5,
    degree6_component_claim,
    is_saturated,
)
from bergesat import checker, twographs
from bergesat.confmodel import sample_linear
from bergesat.gadgets import (
    broken_lantern, clique3, gadget_D, gadget_Q, gadget_R, lantern, sun,
)
from bergesat.hypercore import (
    Hypergraph3,
    LinkPass,
    disjoint_union,
    link,
    make,
    remove_edge,
)
from bergesat.oracle import berge_degree_matching

from conftest import small_3graphs, small_linear_3graphs


def k5():
    return clique3(5)


def test_free_means_degree_cap():
    assert is_saturated(k5(), 5).is_free
    assert not is_saturated(k5(), 4).is_free
    assert is_saturated(Hypergraph3(6, ()), 1).is_free


def test_k5_is_saturated_at_ell_5():
    rep = is_saturated(k5(), 5)
    assert rep.is_free and rep.is_saturated
    assert rep.counterexample is None
    assert rep.berge_degrees == (4, 4, 4, 4, 4)


def test_k5_minus_a_triple_is_free_but_unsaturated():
    edges = [e for e in combinations(range(5), 3) if e != (1, 2, 4)]
    rep = is_saturated(make(5, edges), 5)
    assert rep.is_free and not rep.is_saturated
    assert rep.counterexample == (1, 2, 4)


# blocks with Type II vertices, at the ell where they have them
_TYPE_II_BLOCKS = ((lantern(5), 5), (lantern(6), 6), (broken_lantern(), 5),
                   (gadget_Q(), 5), (gadget_R(), 5))


@st.composite
def _type_ii_cases(draw):
    """(g, ell): such a block, with one edge removed unless cut is -1 or
    past the last edge, beside a small graph."""
    b, ell = draw(st.sampled_from(_TYPE_II_BLOCKS))
    cut = draw(st.integers(min_value=-1, max_value=49))
    if 0 <= cut < len(b.edges):
        b = remove_edge(b, b.edges[cut])
    return disjoint_union(b, draw(small_3graphs(max_vertices=6, max_edges=6))), ell


def _literal_counterexample(g, ell):
    """The reference scan: every triple in lexicographic order, each
    absent one decided by the pair-insertion rule.  g must be free."""
    lp = LinkPass(g.vertex_count, g.edges)
    present = set(g.edges)
    return next((e for e in combinations(range(g.vertex_count), 3)
                 if e not in present and not _lifts(lp.nontree, lp.degrees, e, ell)), None)


def _assert_paths_match_the_literal_scan(g, ell):
    fast = is_saturated(g, ell)
    full = is_saturated(g, ell, full_scan=True)
    assert fast.is_free == full.is_free
    assert fast.is_saturated == full.is_saturated
    assert fast.counterexample == full.counterexample
    if full.is_free:
        assert full.counterexample == _literal_counterexample(g, ell)
        assert full.is_saturated == (full.counterexample is None)


@settings(max_examples=160, deadline=None)
@given(st.tuples(small_3graphs(), st.integers(min_value=1, max_value=6)) | _type_ii_cases())
def test_fast_path_and_full_scan_agree(case):
    _assert_paths_match_the_literal_scan(*case)


@settings(max_examples=60, deadline=None)
@given(small_linear_3graphs(), st.integers(min_value=2, max_value=5))
def test_fast_path_and_full_scan_agree_on_linear_inputs(g, ell):
    _assert_paths_match_the_literal_scan(g, ell)


def _reference_components(verts, pairs):
    """Components of the graph on verts, as (sorted vertex list, pair
    count) in order of their first vertex in verts, by a depth-first
    search: a reference independent of the union-find in the package."""
    adj = {v: [] for v in verts}
    for x, y in pairs:
        adj[x].append(y)
        adj[y].append(x)
    seen = set()
    out = []
    for s in verts:
        if s in seen:
            continue
        seen.add(s)
        stack, comp = [s], []
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comp.sort()
        out.append((comp, sum(len(adj[u]) for u in comp) // 2))
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10).flatmap(lambda k: st.tuples(
    st.permutations(range(k + 4)),
    st.sets(st.sampled_from(list(combinations(range(k), 2))), max_size=12)
    if k >= 2 else st.just(set()))))
def test_components_keeps_isolated_vertices_in_vertex_order(case):
    # pairs cover at most 0..k-1, so the last four vertices, and any
    # other vertex outside every pair, must come out as singletons
    verts, pairs = case
    pairs = sorted(pairs)
    assert twographs.components(verts, pairs) == _reference_components(verts, pairs)
    isolated = set(verts).difference(*pairs)
    forms = twographs.canonical_form(verts, pairs)
    assert forms.count((1, (0,), ())) == len(isolated) >= 4


def _reference_canonical_connected(verts, pairs):
    """`twographs.canonical_connected` before integer pair codes and
    interchangeable vertices, verbatim: every permutation of every degree
    class, a relabeling dict and sorted pair tuples per candidate."""
    k = len(verts)
    deg = {v: 0 for v in verts}
    for x, y in pairs:
        deg[x] += 1
        deg[y] += 1
    by_deg = sorted(verts, key=lambda v: (deg[v], v))
    base = {v: i for i, v in enumerate(by_deg)}
    # contiguous index ranges per degree class
    classes = []
    i = 0
    while i < k:
        j = i
        while j < k and deg[by_deg[j]] == deg[by_deg[i]]:
            j += 1
        classes.append(range(i, j))
        i = j
    base_pairs = [tuple(sorted((base[x], base[y]))) for x, y in pairs]
    best = None
    for perms in product(*(permutations(c) for c in classes)):
        relab = {}
        for c, p in zip(classes, perms):
            for src, dst in zip(c, p):
                relab[src] = dst
        cand = tuple(sorted(tuple(sorted((relab[x], relab[y]))) for x, y in base_pairs))
        if best is None or cand < best:
            best = cand
    degs = tuple(sorted(deg.values()))
    return (k, degs, best)


def test_canonical_connected_matches_the_reference_on_every_small_graph():
    # every connected labelled graph on at most 6 vertices: 27,476 graphs
    count = 0
    for k in range(1, 7):
        verts = list(range(k))
        pool = list(combinations(verts, 2))
        for mask in range(1 << len(pool)):
            pairs = [p for i, p in enumerate(pool) if mask >> i & 1]
            if len(twographs.components(verts, pairs)) == 1:
                count += 1
                assert (twographs.canonical_connected(verts, pairs)
                        == _reference_canonical_connected(verts, pairs)), pairs
    assert count == 27476


@st.composite
def _labelled_graphs(draw, max_vertices=8, max_pairs=10):
    """(verts, pairs) under distinct labels from 0..99, in shuffled pair
    order with either orientation per pair."""
    k = draw(st.integers(min_value=1, max_value=max_vertices))
    pool = list(combinations(range(k), 2))
    picked = draw(st.lists(st.sampled_from(pool), unique=True, max_size=max_pairs)
                  if pool else st.just([]))
    label = draw(st.lists(st.integers(0, 99), min_size=k, max_size=k, unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(picked), max_size=len(picked)))
    pairs = [(label[y], label[x]) if f else (label[x], label[y])
             for (x, y), f in zip(picked, flips)]
    return label, pairs


@settings(max_examples=100, deadline=None)
@given(_labelled_graphs())
def test_canonical_connected_matches_the_reference_under_any_labelling(graph):
    # connected or not: the candidate set is the same either way
    verts, pairs = graph
    assert twographs.canonical_connected(verts, pairs) == _reference_canonical_connected(verts, pairs)


@settings(max_examples=200, deadline=None)
@given(_labelled_graphs(), st.randoms(use_true_random=False))
def test_canonical_form_ignores_vertex_labels(graph, rng):
    verts, pairs = graph
    relabel = dict(zip(verts, rng.sample(range(1000), len(verts))))
    moved = [(relabel[y], relabel[x]) for x, y in rng.sample(pairs, len(pairs))]
    assert (twographs.canonical_form(rng.sample(list(relabel.values()), len(verts)), moved)
            == twographs.canonical_form(verts, pairs))


def _reference_links(g):
    """(pairs of L(v), NT(v), d_B(v)) per vertex, one component search
    per link."""
    rows = []
    for v in range(g.vertex_count):
        l = link(g, v)
        nontree, trees = set(), 0
        for verts, count in _reference_components(l.neighbors, l.pairs):
            if count == len(verts) - 1:
                trees += 1
            else:
                nontree.update(verts)
        rows.append((l.pairs, frozenset(nontree), len(l.neighbors) - trees))
    return rows


def _reference_tags(rows, ell):
    def neutral(pairs, nontree):
        return [p for p in combinations(sorted(nontree), 2) if p not in pairs]

    type_i = [d == ell - 1 and not neutral(p, nt) for p, nt, d in rows]
    return tuple(
        TYPE_I if type_i[v]
        else TYPE_II if d == ell - 1 and all(type_i[x] or type_i[y] for x, y in neutral(p, nt))
        else None
        for v, (p, nt, d) in enumerate(rows)
    )


@st.composite
def _near_broken_lanterns(draw):
    """The broken lantern on up to 12 vertices with a few triples
    flipped; Type II vertices are rare in uniform random graphs."""
    n = draw(st.integers(min_value=10, max_value=12))
    flips = draw(st.sets(st.sampled_from(list(combinations(range(n), 3))), max_size=3))
    return make(n, set(broken_lantern().edges) ^ flips)


@st.composite
def _linear_beside_a_block(draw):
    """A sampled linear 3-graph, where every link is a matching, beside a
    clique or a lantern, whose links are complete or neither."""
    n, ell = draw(st.integers(min_value=14, max_value=24)), draw(st.integers(4, 6))
    g, _, _ = sample_linear(n, ell, 0, seed=draw(st.integers(0, 99)), require_pair=False)
    block = draw(st.sampled_from((clique3(ell), lantern(5), lantern(6))))
    return disjoint_union(*draw(st.permutations((g, block))))


@settings(max_examples=150, deadline=None)
@given(small_3graphs(max_vertices=12, max_edges=40) | _near_broken_lanterns()
       | _linear_beside_a_block(),
       st.integers(min_value=0, max_value=11))
def test_link_pass_matches_a_component_search_per_link(g, pick):
    rows = _reference_links(g)
    lp = LinkPass(g.vertex_count, g.edges)
    assert lp.degrees == tuple(d for _, _, d in rows)
    for v, (pairs, nt, _) in enumerate(rows):
        assert sorted(lp.nontree[v]) == sorted(nt)
        assert tuple(sorted(lp.pairs(v))) == pairs
    # tag at an ell where the picked vertex sits at Berge degree ell - 1
    ell = 1 + rows[pick % g.vertex_count][2]
    assert is_saturated(g, ell).aggressive.tags == _reference_tags(rows, ell)


@settings(max_examples=80, deadline=None)
@given(small_3graphs())
def test_pair_insertion_rule_matches_the_matching_oracle(g):
    # adding the absent triple {v, p, q} leaves d_B(v) unchanged exactly
    # when p and q both lie in NT(v), and raises it by one otherwise
    lp = LinkPass(g.vertex_count, g.edges)
    for v in range(g.vertex_count):
        before = berge_degree_matching(g, v)
        assert lp.degrees[v] == before
        others = [u for u in range(g.vertex_count) if u != v]
        for p, q in combinations(others, 2):
            e = tuple(sorted((v, p, q)))
            if e in g.edges:
                continue
            gain = 0 if p in lp.nontree[v] and q in lp.nontree[v] else 1
            h = make(g.vertex_count, g.edges + (e,))
            assert berge_degree_matching(h, v) == before + gain


@settings(max_examples=80, deadline=None)
@given(small_3graphs(), st.integers(min_value=0, max_value=1))
def test_creates_new_berge_matches_the_matching_oracle(g, slack):
    # the smallest free ell (slack 0) puts the top vertices at ell - 1
    ell = 1 + slack + max(
        (berge_degree_matching(g, v) for v in range(g.vertex_count)), default=0
    )
    lp = LinkPass(g.vertex_count, g.edges)
    for e in combinations(range(g.vertex_count), 3):
        if e in g.edges:
            continue
        h = make(g.vertex_count, g.edges + (e,))
        expected = any(berge_degree_matching(h, v) >= ell for v in e)
        assert _lifts(lp.nontree, lp.degrees, e, ell) == expected


def test_fast_path_and_full_scan_agree_on_a_built_witness_minus_an_edge():
    _, g = build_spectrum_witness(120, 6, 248, seed=0)
    assert g is not None and len(g.edges) == 248
    h = remove_edge(g, g.edges[len(g.edges) // 2])
    rep = is_saturated(h, 6)
    assert rep.is_free and not rep.is_saturated
    _assert_paths_match_the_literal_scan(h, 6)


def test_full_scan_on_the_largest_witness_agrees_with_the_fast_path(monkeypatch):
    # C(10008, 3) = 1.67e11 triples: a literal scan would never finish,
    # the rule-pruned one takes a fraction of a second and, as the README
    # and the checker docstring say, visits 16,038 triples on the witness
    _, g = build_spectrum_witness(10008, 6, 25590, seed=0)
    assert g is not None and len(g.edges) == 25590
    lifts = []

    def counted(*args, _lifts=checker._lifts):
        lifts.append(args[2])
        return _lifts(*args)

    monkeypatch.setattr(checker, "_lifts", counted)
    for h, saturated in ((g, True), (remove_edge(g, g.edges[len(g.edges) // 2]), False)):
        lifts.clear()
        fast = is_saturated(h, 6)
        fast_lifts = len(lifts)
        started = time.perf_counter()
        full = is_saturated(h, 6, full_scan=True)
        assert time.perf_counter() - started < 10.0
        if saturated:
            assert (fast_lifts, len(lifts) - fast_lifts) == (0, 16038)
        assert fast.is_free and full.is_free
        assert fast.is_saturated == full.is_saturated == saturated
        assert full.counterexample == fast.counterexample


def test_creates_new_berge_examples():
    # one triple: adding a second through 0 lifts 0 to Berge degree 2,
    # and any triple sharing a vertex does the same for that vertex
    g = make(7, [(0, 1, 2)])
    lp = LinkPass(g.vertex_count, g.edges)
    assert _lifts(lp.nontree, lp.degrees, (0, 3, 4), 2)
    assert not _lifts(lp.nontree, lp.degrees, (0, 3, 4), 3)
    assert _lifts(lp.nontree, lp.degrees, (2, 3, 4), 2)
    # a vertex-disjoint triple leaves every Berge degree at 1
    assert not _lifts(lp.nontree, lp.degrees, (3, 4, 5), 2)


def test_two_broken_lanterns_saturated_three_not():
    b = broken_lantern()
    two = disjoint_union(b, b)
    assert is_saturated(two, 5).is_saturated
    three = disjoint_union(two, b)
    rep = is_saturated(three, 5)
    assert rep.is_free and not rep.is_saturated
    # the failing triples join the three low vertices, one per copy
    assert rep.counterexample is not None
    a, bb, c = rep.counterexample
    assert a < 10 <= bb < 20 <= c


def test_lantern_tags_split_into_both_types():
    tags = is_saturated(lantern(5), 5).aggressive.tags
    assert len(tags) == 15 and all(t is not None for t in tags)
    assert sum(1 for t in tags if t == TYPE_I) == 6
    assert sum(1 for t in tags if t == TYPE_II) == 9


def test_broken_lantern_has_one_untagged_vertex():
    rep = is_saturated(broken_lantern(), 5)
    assert len(rep.aggressive.untagged()) == 1
    v = rep.aggressive.untagged()[0]
    assert rep.berge_degrees[v] == 3


def test_aggressive_sufficient_on_the_block_components():
    assert aggressive_sufficient(lantern(5), 5)
    assert aggressive_sufficient(sun(5), 5)
    assert aggressive_sufficient(k5(), 5)
    assert aggressive_sufficient(lantern(6), 6)
    assert aggressive_sufficient(sun(6), 6)
    # the broken lantern is saturated but keeps a low vertex, so the
    # disjoint-union guarantee does not follow from it alone
    assert is_saturated(broken_lantern(), 5).is_saturated
    assert not aggressive_sufficient(broken_lantern(), 5)


def test_aggressive_components_compose_under_disjoint_union():
    g = disjoint_union(lantern(5), k5())
    assert is_saturated(g, 5).is_saturated
    g2 = disjoint_union(g, sun(5))
    assert is_saturated(g2, 5).is_saturated


def test_link_classification_on_known_vertices():
    assert classify_link_5(link(k5(), 0).pairs) == "K4"
    # in D, the catalog promise holds for vertices with 5 or more
    # neighbors; smaller links may fall outside the named shapes
    d = gadget_D()
    lp = LinkPass(d.vertex_count, d.edges)
    links = [lp.pairs(v) for v in range(d.vertex_count)]
    wide = [ps for ps in links if len(set(chain.from_iterable(ps))) >= 5]
    assert wide
    labels = {classify_link_5(ps) for ps in wide}
    assert "OTHER" not in labels


def test_link_classification_canonicalizes_only_the_sizes_of_shapes(monkeypatch):
    # each named shape keeps its name under relabelling; a link of a
    # (vertices, pairs) size that no shape has is OTHER with no canonical
    # form computed: K5, 5K2 and the 6-cycle here
    for name, (k, pairs) in twographs.LINK_SHAPES:
        assert classify_link_5([(3 * x + 7, 3 * y + 7) for x, y in pairs]) == name

    def refuse(*args):
        raise AssertionError("canonicalized a link that no shape can match")

    monkeypatch.setattr(twographs, "canonical_form", refuse)
    for pairs in (list(combinations(range(5), 2)),
                  [(2 * i, 2 * i + 1) for i in range(5)],
                  [(i, i + 1) for i in range(5)] + [(0, 5)]):
        assert classify_link_5(pairs) == "OTHER"


def test_degree6_component_claim_on_clique_unions():
    g = disjoint_union(k5(), lantern(5))
    assert degree6_component_claim(g)
    with pytest.raises(ValueError, match="saturated"):
        degree6_component_claim(make(6, [(0, 1, 2)]))
    # the edge (0, 5, 6) puts the degree-6 pairs of K5 in a 7-vertex
    # component; the claim fails even when the report says saturated
    wide = make(7, k5().edges + ((0, 5, 6),))
    assert not degree6_component_claim(wide, report=is_saturated(k5(), 5))
    # a saturated report at another ell does not stand in for ell = 5:
    # K_6^(3) is saturated at 6 but has Berge degree 5 everywhere
    six = clique3(6)
    with pytest.raises(ValueError, match="saturated"):
        degree6_component_claim(six, report=is_saturated(six, 6))


def test_deficiency_twelve_is_achievable_with_the_k2_k13_link():
    # the structural count for the K2+K1,3 link class is 12, and this
    # 9-vertex free graph attains it: the star center and its leaves
    # absorb extra edges inside closed triangles, so their plain degrees
    # climb to 6 and 4 while every Berge degree stays at 4 or below
    edges = [
        (0, 1, 2), (0, 3, 4), (0, 3, 5), (0, 3, 6),
        (3, 4, 5), (3, 4, 6), (3, 5, 6),
        (4, 5, 6),
        (1, 2, 7), (1, 2, 8),
        (1, 7, 8), (2, 7, 8),
    ]
    g = make(9, edges)
    assert is_saturated(g, 5).is_free
    assert classify_link_5(link(g, 0).pairs) == "K2+K1,3"
    # the deficiency of the closed neighborhood: the sum of 6 - d(v)
    degree = Counter(chain.from_iterable(g.edges))
    closed = (0,) + link(g, 0).neighbors
    assert sum(6 - degree[v] for v in closed) == 12


def test_verify_report_serializes():
    rep = is_saturated(k5(), 5)
    obj = rep.to_json()
    assert obj["is_saturated"] is True
    assert obj["berge_degrees"] == [4, 4, 4, 4, 4]
    assert len(obj["aggressive"]) == 5
