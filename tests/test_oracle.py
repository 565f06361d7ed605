"""Ground-truth routes: matching degrees, exhaustive sweeps, the catalog."""

from collections import Counter
import gc
from hashlib import sha256
from itertools import combinations, permutations
import json
from math import comb, factorial

import pytest
from hypothesis import given, settings

from bergesat import twographs
from bergesat.checker import is_saturated
from bergesat.hypercore import (
    Hypergraph3,
    LinkPass,
    make,
)
from bergesat.oracle import (
    _connected_classes,
    _degree_table,
    _link_classes,
    _max_matching,
    berge_degree_matching,
    enumerate_link_catalog,
    exhaustive_spectrum,
)

from conftest import small_3graphs
from test_assembler import REALIZABLE_AT_SEVEN


@settings(max_examples=150, deadline=None)
@given(small_3graphs())
def test_matching_route_equals_formula_route(g):
    lp = LinkPass(g.vertex_count, g.edges)
    for v in range(g.vertex_count):
        assert berge_degree_matching(g, v) == lp.degrees[v]


def test_single_triple_baseline():
    res = exhaustive_spectrum(3, 2)
    assert res.realizable == (1,)
    assert res.sat_observed == res.ex_observed == 1
    # below three vertices there is no triple, and the empty graph is saturated
    for n in (0, 1, 2):
        for ell in range(1, 9):
            assert exhaustive_spectrum(n, ell) == (
                n, ell, (0,), {0: Hypergraph3(n, ())}, {0: 1}, 0, 0)


def test_unique_extremal_witness_at_five():
    res = exhaustive_spectrum(5, 5)
    assert res.realizable == (10,)
    assert res.counts[10] == 1
    g = res.witnesses[10]
    assert len(g.edges) == 10 and g.vertex_count == 5
    assert is_saturated(g, 5).is_saturated


def test_observed_range_at_four():
    res = exhaustive_spectrum(5, 4)
    assert (res.sat_observed, res.ex_observed) == (4, 5)


def test_all_witnesses_reverify():
    for n in (4, 5):
        for ell in (2, 3, 4, 5):
            res = exhaustive_spectrum(n, ell)
            for m, g in res.witnesses.items():
                rep = is_saturated(g, ell)
                assert rep.is_free and rep.is_saturated
                assert len(g.edges) == m


def test_large_n_guard():
    # the sweep's cap and argument check, and the matching's vertex range
    k4 = make(4, list(combinations(range(4), 3)))
    for call, problem in ((lambda: exhaustive_spectrum(8, 3), "exhaustive cap"),
                          (lambda: exhaustive_spectrum(3, 0), "bad arguments"),
                          (lambda: berge_degree_matching(k4, 4), "out of range"),
                          (lambda: berge_degree_matching(k4, -1), "out of range")):
        with pytest.raises(ValueError, match=problem):
            call()


@pytest.mark.parametrize("n", range(1, 7))
def test_one_degree_table_serves_every_vertex(n):
    # each vertex's own pairs, in the order of its triples' mask bits,
    # give on every link code the Berge degree the shared table holds
    triples = list(combinations(range(n), 3))
    reps, _, of = _link_classes(n)
    table = _degree_table(n, reps, of)
    for v in range(n):
        pairs = [tuple(x for x in t if x != v) for t in triples if v in t]
        assert len(table) == 1 << len(pairs)
        for code in range(len(table)):
            chosen = [p for j, p in enumerate(pairs) if code >> j & 1]
            assert _max_matching(chosen) == table[code], (n, v, code)


@pytest.mark.parametrize("n, classes", [(4, 4), (5, 11), (6, 34), (7, 156)])
def test_link_class_table(n, classes):
    # one class per graph on n - 1 labeled vertices up to isomorphism
    reps, sizes, of = _link_classes(n)
    assert len(reps) == classes
    assert sum(sizes) == 1 << comb(n - 1, 2)
    assert all(factorial(n - 1) % s == 0 for s in sizes)
    assert Counter(of) == dict(enumerate(sizes))
    assert [of[rep] for rep in reps] == list(range(classes))
    if n <= 5:
        assert all(_is_least_link_code(n, rep) for rep in reps)


def _is_least_link_code(n, mask):
    """Whether vertex 0's link code, the low C(n-1, 2) bits of mask, is
    the least of its images under every relabelling of 1..n-1."""
    pairs = list(combinations(range(1, n), 2))
    code = mask & ((1 << len(pairs)) - 1)
    present = [p for j, p in enumerate(pairs) if code >> j & 1]
    for perm in permutations(range(1, n)):
        to = dict(zip(range(1, n), perm))
        image = sum(1 << pairs.index(tuple(sorted((to[a], to[b])))) for a, b in present)
        if image < code:
            return False
    return True


def _reference_spectra(n, ells, masks, swept=lambda mask: True):
    """Per-mask reference for the sweep over masks, one dict per ell.

    Every Berge degree comes from berge_degree_matching on the graph itself:
    a mask is saturated at ell iff its largest degree is below ell and
    every absent triple, once added, gives one of its vertices degree at
    least ell.  Returns {ell: (counts, witnesses)}: counts over every
    mask, and as the witness per edge count the smallest saturated mask
    that `swept` accepts.
    """
    triples = list(combinations(range(n), 3))
    out = {ell: ({}, {}) for ell in ells}
    for mask in sorted(masks):
        g = Hypergraph3(n, tuple(t for i, t in enumerate(triples) if mask >> i & 1))
        top = max(berge_degree_matching(g, v) for v in range(n))
        need = min(
            (
                max(berge_degree_matching(make(n, g.edges + (t,)), v) for v in t)
                for t in triples
                if t not in g.edges
            ),
            default=float("inf"),
        )
        for ell in ells:
            if top < ell <= need:
                counts, witnesses = out[ell]
                m = len(g.edges)
                counts[m] = counts.get(m, 0) + 1
                if swept(mask):
                    witnesses.setdefault(m, g)
    return out


def test_sweep_matches_the_per_mask_reference_at_five():
    ref = _reference_spectra(
        5, range(1, 7), range(1 << 10), lambda mask: _is_least_link_code(5, mask)
    )
    for ell, (counts, witnesses) in ref.items():
        res = exhaustive_spectrum(5, ell)
        assert res.counts == counts
        assert res.witnesses == witnesses


# exhaustive_spectrum(7, ell).counts for ell = 1..7, and the sha256 of
# every witness edge list for n <= 7 and ell = 1..8, as the vectorized
# sweep over all 156 x 2^20 masks at n = 7 gave them
COUNTS_AT_SEVEN = {
    1: {0: 1},
    2: {2: 70},
    3: {4: 4305},
    4: {5: 287, 6: 62160, 7: 11205},
    5: {7: 3150, 8: 484785, 9: 452130, 10: 126},
    6: {10: 424620, 11: 8753850, 12: 1471575, 13: 44975, 14: 2415, 15: 441,
        16: 315, 17: 105, 20: 7},
    7: {35: 1},
}
WITNESSES_SHA256 = "41f851e936d61fa28a9b098911db31215be0c77a67551ff13a193c4de92f1aea"


def test_sweep_at_seven_and_every_witness_are_pinned():
    # the full n = 7 search at every ell: about 2 s on a 2-core VM
    rows = []
    for n in range(8):
        for ell in range(1, 9):
            res = exhaustive_spectrum(n, ell)
            if n == 7 and ell in COUNTS_AT_SEVEN:
                assert res.counts == COUNTS_AT_SEVEN[ell], ell
                assert res.realizable == REALIZABLE_AT_SEVEN[ell], ell
            rows += [[n, ell, m, res.witnesses[m].edges] for m in sorted(res.witnesses)]
    assert sha256(json.dumps(rows).encode()).hexdigest() == WITNESSES_SHA256


@pytest.mark.parametrize(
    "ell, counts",
    [
        (2, {2: 10}),
        (3, {3: 180, 4: 75}),
        (4, {4: 15, 5: 1812, 6: 330}),
        (5, {6: 90, 7: 8400, 8: 1290, 10: 6}),
        # below the other rows so that their ids stay; at 6 and 7 the
        # prune on triples that cannot be lifted does all the work
        (1, {0: 1}),
        (6, {20: 1}),
        (7, {20: 1}),
    ],
)
def test_counts_at_six(ell, counts):
    assert exhaustive_spectrum(6, ell).counts == counts


def test_catalog_strata_and_bounds():
    rep = enumerate_link_catalog()
    sizes = {s: len(v) for s, v in rep.strata.items()}
    assert sizes == {8: 1, 7: 1, 6: 4, 5: 5}
    assert rep.published_bounds == (18, 15, 15, 14, 12, 12, 9, 12, 9, 12, 9)
    # the recomputed bound disagrees on exactly one row
    assert rep.discrepancies == ("K2+K1,3",)
    i = rep.row_names.index("K2+K1,3")
    assert rep.computed_bounds[i] == 12
    for j, name in enumerate(rep.row_names):
        if name != "K2+K1,3":
            assert rep.computed_bounds[j] == rep.published_bounds[j]


def _connected_classes_by_subsets(max_vertices, max_edges):
    """Reference: canonicalize every connected labeled edge subset."""
    out = {}
    for nv in range(2, max_vertices + 1):
        all_pairs = list(combinations(range(nv), 2))
        for ne in range(nv - 1, min(max_edges, len(all_pairs)) + 1):
            for sub in combinations(all_pairs, ne):
                if len(twographs.components(range(nv), sub)) != 1:
                    continue
                canon = twographs.canonical_connected(list(range(nv)), sub)
                out.setdefault(canon, (nv, ne))
    return out


def test_connected_classes_count_per_edge_count():
    # OEIS A002905: connected graphs with 1..6 edges
    classes = _connected_classes(8, 6)
    by_edges = Counter(ne for _, ne in classes.values())
    assert [by_edges[ne] for ne in range(1, 7)] == [1, 1, 3, 5, 12, 30]
    assert len(classes) == 52


@pytest.mark.parametrize("bounds", [(6, 5), (5, 7), (4, 6)])
def test_augmentation_matches_the_subset_loop(bounds):
    assert _connected_classes(*bounds) == _connected_classes_by_subsets(*bounds)


@pytest.mark.parametrize("bounds", [(1, 6), (8, 0)])
def test_connected_classes_degenerate_bounds(bounds):
    assert _connected_classes(*bounds) == {}


def test_catalog_row_bound_follows_from_the_degree_profile():
    # the disputed row: degree profile (1,1,1,1,1,3) has five leaves,
    # no degree-2 and no degree-4 vertex, so the structural count
    # 6 - |E| + 2 L1 + L2 + 2 L4 lands on 12
    rep = enumerate_link_catalog()
    i = rep.row_names.index("K2+K1,3")
    c = [c for c in rep.classes if c.name == "K2+K1,3"][0]
    assert c.degrees == (1, 1, 1, 1, 1, 3)
    l1 = sum(1 for d in c.degrees if d == 1)
    l2 = sum(1 for d in c.degrees if d == 2)
    l4 = sum(1 for d in c.degrees if d == 4)
    assert (l1, l2, l4) == (5, 0, 0)
    assert rep.computed_bounds[i] == 6 - c.edge_count + 2 * l1 + l2 + 2 * l4 == 12


def test_catalog_leaves_nothing_for_the_collector():
    # every CLI command runs with the cyclic collector off, so a catalog
    # that left reference cycles (a self-calling closure does) would hold
    # them until the process ends
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        enumerate_link_catalog()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_matching_route_on_a_multibranch_link():
    # two triangles through v force a matching argument, not a greedy one
    g = make(
        7,
        [(0, 1, 2), (0, 2, 3), (0, 1, 3), (0, 4, 5), (0, 5, 6), (0, 4, 6)],
    )
    assert berge_degree_matching(g, 0) == LinkPass(g.vertex_count, g.edges).degrees[0] == 6
