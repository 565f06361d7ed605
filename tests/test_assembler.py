"""Planner formulas, builder identities, and the dispatch boundaries."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergesat.assembler import (
    BELOW_SAT,
    BY_THEOREM,
    OK,
    OUT_OF_RANGE,
    UNSUPPORTED,
    LowerPlan,
    build_exact5,
    build_H1,
    build_H2,
    build_lower,
    build_spectrum_witness,
    build_W,
    ex_formula,
    plan_exact5,
    plan_lower,
    plan_witness,
    sat_formula,
    select_a_star,
    small_star_spectrum,
)
from bergesat.checker import aggressive_sufficient, is_saturated
from bergesat.confmodel import SamplerBudgetError
from bergesat.hypercore import incidence_index


def certified(g, ell):
    rep = is_saturated(g, ell)
    return rep.is_free and rep.is_saturated


def test_sat_formula_values_and_minimizers():
    assert sat_formula(30, 5) == (37, frozenset({3}))
    assert sat_formula(45, 5) == (57, frozenset({3}))
    assert sat_formula(30, 4) == (28, frozenset({2, 3}))
    assert sat_formula(30, 2) == (10, frozenset({1, 2}))
    assert sat_formula(30, 3)[0] == 19


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=10, max_value=400),
    st.integers(min_value=2, max_value=8),
)
def test_sat_formula_monotone_in_n(n, ell):
    assert sat_formula(n, ell)[0] <= sat_formula(n + 1, ell)[0]


def test_extremal_values():
    assert ex_formula(45, 5) == (90, "exact")
    assert ex_formula(46, 5)[1] == "bound-only"
    assert ex_formula(30, 4) == (30, "exact")
    assert ex_formula(31, 3) == (20, "exact")
    assert ex_formula(120, 6) == (400, "exact")


def test_sun_swap_beats_columns_for_all_moderate_ell():
    # the per-vertex cost of one sun swap stays below the density slack,
    # as exact rationals, for every ell in the working window
    for ell in range(5, 65):
        lhs = Fraction(ell - 4, 4 * (ell * ell - 7 * ell + 13) * ell)
        rhs = Fraction(1, (2 * ell - 4) * ell)
        assert lhs < rhs, ell


def test_select_a_star_prefers_three():
    assert select_a_star(45, 5) == 3
    assert select_a_star(120, 6) == 3


def test_lower_plan_matches_built_edge_count():
    for m in (57, 60, 64, 70, 74):
        verdict = plan_lower(45, 5, m)
        assert verdict.status == OK
        g = build_lower(verdict.plan, seed=0)
        assert g.vertex_count == 45 and len(g.edges) == m


def test_lantern_overlay_adds_three_edges_each():
    base = len(build_W(45, 5, 0, 3, 0, seed=0).edges)
    for k in (1, 2):
        g = build_W(45, 5, k, 3, 0, seed=0)
        assert len(g.edges) == base + 3 * k
        assert certified(g, 5)


def test_pair_surgeries_add_one_edge_each():
    base = len(build_W(45, 5, 0, 3, 0, seed=0).edges)
    for i in (1, 2):
        g = build_W(45, 5, 0, 3, i, seed=0)
        assert len(g.edges) == base + i
        assert certified(g, 5)


def test_lower_plan_reaches_the_extremal_end():
    # the clique split runs past ell(ell-1)n/12 = 25020 at (10008, 6)
    for m, c in ((25590, 891), (25589, 891), (25520, 884), (25021, 834)):
        verdict = plan_lower(10008, 6, m)
        assert verdict.status == OK, (m, verdict.detail)
        assert isinstance(verdict.plan, LowerPlan) and verdict.plan.c == c
    ex_val, _ = ex_formula(10008, 6)
    assert plan_lower(10008, 6, ex_val + 1).status == OUT_OF_RANGE


def test_lower_plan_keeps_the_largest_clique_split():
    # the bisection agrees with a linear scan over every clique count
    for n, ell in ((45, 5), (61, 5), (120, 6), (120, 7), (87, 8)):
        sat, _ = sat_formula(n, ell)
        for m in range(sat, ex_formula(n, ell)[0] + 1):
            verdict = plan_lower(n, ell, m)
            if verdict.plan is None:
                continue
            c = verdict.plan.c
            assert m - comb(ell, 3) * c - sat_formula(n - c * ell, ell)[0] == verdict.plan.s
            if n - (c + 1) * ell > ell:
                assert m - comb(ell, 3) * (c + 1) - sat_formula(n - (c + 1) * ell, ell)[0] < 0


def test_unrealizable_core_specs_are_unsupported():
    # these plans' cores fail degree_spec (too few edges for the
    # pairwise non-adjacent low vertices), so the plan itself is refused
    for n, m in ((45, 87), (100, 232)):
        verdict = plan_witness(n, 6, m)
        assert verdict.status == UNSUPPORTED
        assert "pairwise non-adjacent" in verdict.detail


COVERAGE_FLOOR = {(120, 6): 148, (61, 5): 30, (120, 7): 143}


@pytest.mark.parametrize("n,ell", sorted(COVERAGE_FLOOR))
def test_every_m_from_sat_to_ex_is_built_or_refused(n, ell):
    # each m either builds a certified witness or ends in a documented
    # verdict (exit 6/7) or a sampler refusal (exit 5); never exit 4
    certified_ms = 0
    for m in range(sat_formula(n, ell)[0], ex_formula(n, ell)[0] + 1):
        try:
            verdict, g = build_spectrum_witness(n, ell, m, seed=0, max_tries=20000)
        except SamplerBudgetError:
            continue
        if g is None:
            assert verdict.status in (BY_THEOREM, OUT_OF_RANGE, UNSUPPORTED), m
            continue
        assert g.vertex_count == n and len(g.edges) == m
        assert certified(g, ell), m
        certified_ms += 1
    assert certified_ms >= COVERAGE_FLOOR[(n, ell)]


def test_h_components_are_aggressive():
    for ell, n0 in ((5, 60), (6, 72)):
        h1, h2 = build_H1(n0, ell, seed=0), build_H2(n0, ell, seed=0)
        assert len(h1.edges) == (ell - 1) * n0 // 3 + 9
        assert len(h2.edges) == len(h1.edges) + 1
        assert aggressive_sufficient(h1, ell)
        assert aggressive_sufficient(h2, ell)


def test_exact5_zone_covers_the_top_band():
    n = 45
    for m in range(76, 86):
        verdict = plan_exact5(n, m)
        assert verdict.status == OK, (m, verdict.detail)
        g = build_exact5(verdict.plan, seed=0)
        assert g.vertex_count == n and len(g.edges) == m
        assert certified(g, 5)
    for m in range(86, 90):
        assert plan_exact5(n, m).status == BY_THEOREM
    verdict = plan_exact5(n, 90)
    assert verdict.status == OK
    g = build_exact5(verdict.plan, seed=0)
    assert len(g.edges) == 90 and certified(g, 5)


def test_exact5_single_unit_per_deficit_class():
    # each deficit residue gets exactly one special unit; the unit sizes
    # must fit inside n with the prescribed lantern count
    verdict = plan_exact5(45, 82)
    assert verdict.status == OK
    plan = verdict.plan
    assert plan.m_star == 8
    g = build_exact5(plan, seed=0)
    assert len(g.edges) == 82 and certified(g, 5)


def test_dispatch_boundaries_at_45():
    sat, _ = sat_formula(45, 5)
    v, _ = build_spectrum_witness(45, 5, sat - 1, seed=0)
    assert v.status == BELOW_SAT
    v, g = build_spectrum_witness(45, 5, 75, seed=0)
    assert v.status == OK and len(g.edges) == 75
    v, _ = build_spectrum_witness(45, 5, 91, seed=0)
    assert v.status == OUT_OF_RANGE


def test_dispatch_prefers_exact_zone_only_on_multiples_of_five():
    # n = 60: the lower plan serves up to 99, the exact zone from 100
    v, g = build_spectrum_witness(60, 5, 99, seed=0)
    assert v.status == OK and len(g.edges) == 99
    v, g = build_spectrum_witness(60, 5, 100, seed=0)
    assert v.status == OK and len(g.edges) == 100
    # n = 61 has no exact zone; the top of the lower range still works
    v, g = build_spectrum_witness(61, 5, 101, seed=0)
    assert v.status == OK and len(g.edges) == 101
    assert certified(g, 5)


def test_small_star_spectra_match_the_case_split():
    for n in (30, 31, 32):
        assert sorted(small_star_spectrum(n, 2)) == [n // 3]
        got = sorted(small_star_spectrum(n, 4))
        assert got == [n - 2, n - 1, n]
    assert sorted(small_star_spectrum(30, 3)) == [19, 20]
    assert sorted(small_star_spectrum(31, 3)) == [20]
    assert sorted(small_star_spectrum(32, 3)) == [20, 21]


def test_small_star_witnesses_certify():
    for n in (30, 31, 32):
        for ell in (2, 3, 4):
            for m, g in small_star_spectrum(n, ell).items():
                assert g.vertex_count == n and len(g.edges) == m
                assert certified(g, ell), (n, ell, m)


def test_witnesses_use_every_vertex_budget():
    v, g = build_spectrum_witness(45, 5, 64, seed=3)
    assert v.status == OK
    idx = incidence_index(g)
    # the clique block leaves no isolated vertices behind
    assert all(len(idx[u]) > 0 for u in range(g.vertex_count))


def test_build_w_validates_parameters():
    with pytest.raises(ValueError):
        build_W(45, 5, 0, 3, 3)
    with pytest.raises(ValueError):
        build_W(45, 5, 0, 7, 0)
