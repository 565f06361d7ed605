"""Fixed blocks: counts, deficits, saturation, and the sparse split."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergesat.checker import aggressive_sufficient
from bergesat.gadgets import (
    broken_lantern,
    clique3,
    gadget_D,
    gadget_Q,
    gadget_R,
    l4_sparse,
    lantern,
    sun,
)
from bergesat.hypercore import LinkPass, disjoint_union
from conftest import certified


def test_counts_and_deficits_of_the_named_blocks():
    # (graph, vertices, edges); deficit below is edges - 2 * vertices
    rows = (
        (lantern(5), 15, 23),
        (sun(5), 6, 8),
        (clique3(5), 5, 10),
        (broken_lantern(), 10, 15),
        (gadget_D(), 10, 14),
        (gadget_Q(), 20, 29),
        (gadget_R(), 15, 21),
    )
    for g, nv, ne in rows:
        assert (g.vertex_count, len(g.edges)) == (nv, ne)
    deficits = [len(g.edges) - 2 * g.vertex_count for g, _, _ in rows]
    assert deficits == [-7, -4, 0, -5, -6, -11, -9]


def test_every_named_block_is_saturated_at_five():
    for g in (
        lantern(5),
        sun(5),
        clique3(5),
        broken_lantern(),
        gadget_D(),
        gadget_Q(),
        gadget_R(),
        disjoint_union(sun(5), clique3(4)),
        disjoint_union(broken_lantern(), broken_lantern()),
    ):
        assert certified(g, 5)


def test_mixed_unit_with_small_clique():
    g = disjoint_union(sun(5), clique3(4))
    assert (g.vertex_count, len(g.edges)) == (10, 12)
    assert len(g.edges) - 2 * g.vertex_count == -8


@pytest.mark.parametrize("ell", range(5, 13))
def test_lantern_scales_with_ell(ell):
    g = lantern(ell)
    assert g.vertex_count == 3 * ell
    assert certified(g, ell)
    assert aggressive_sufficient(g, ell)
    # the two spine triples hold the degree-(ell-1) vertices
    degrees = LinkPass(g.vertex_count, g.edges).degrees
    for v in range(6):
        assert degrees[v] == ell - 1


@pytest.mark.parametrize("ell", range(5, 13))
def test_sun_scales_with_ell(ell):
    g = sun(ell)
    assert certified(g, ell)
    assert aggressive_sufficient(g, ell)


def test_clique_sizes():
    assert clique3(0).edges == ()
    assert clique3(2).edges == ()
    assert clique3(3).edges == ((0, 1, 2),)
    assert len(clique3(6).edges) == 20
    with pytest.raises(ValueError):
        clique3(-1)


def test_lantern_and_sun_reject_small_ell():
    with pytest.raises(ValueError):
        lantern(4)
    with pytest.raises(ValueError):
        sun(4)


def test_lantern_degrees_split_spine_from_groups():
    g = lantern(5)
    through = LinkPass(g.vertex_count, g.edges).through
    assert [len(through[v]) for v in range(6)] == [4] * 6
    assert [len(through[v]) for v in range(6, 15)] == [5] * 9


@pytest.mark.parametrize("n", (*range(9, 121), 100_000))
def test_l4_sparse_hits_n_minus_one_edges(n):
    g = l4_sparse(n)
    assert g.vertex_count == n
    assert len(g.edges) == n - 1
    assert certified(g, 4)


def test_l4_sparse_rejects_tiny_n():
    with pytest.raises(ValueError):
        l4_sparse(8)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=5, max_value=9))
def test_unions_of_aggressive_blocks_stay_saturated(ell):
    g = disjoint_union(lantern(ell), clique3(ell))
    assert certified(g, ell)
