"""Planner formulas, builder identities, the union rule, and the
dispatch boundaries."""

from fractions import Fraction
from hashlib import sha256
from itertools import combinations, groupby
import json
from math import comb
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergesat.assembler import (
    BELOW_SAT,
    BY_THEOREM,
    OK,
    OUT_OF_RANGE,
    UNSUPPORTED,
    Block,
    Verdict,
    build_spectrum_witness,
    build_W,
    compose,
    ex_formula,
    plan_exact5,
    plan_lower,
    plan_witness,
    sat_formula,
    select_a_star,
    spectrum_runs,
    union_saturated,
)
from bergesat import assembler, gadgets
from bergesat.checker import is_saturated
from bergesat.confmodel import SamplerBudgetError
from bergesat.hypercore import (
    InternalError,
    LinkPass,
    disjoint_union,
    make,
    write_h3,
)
from bergesat.oracle import exhaustive_spectrum
from conftest import certified, small_star_spectrum, top_degree_claim_holds


def build(plan):
    """The seed-0 union of a plan's runs, as build_spectrum_witness makes it."""
    return disjoint_union(*(b.build(seed=0) for b, copies in plan for _ in range(copies)))


def split_fields(plan, ell):
    """(c, s) of a clique-split plan: its K_ell copies, and the core's
    edges above sat of its vertices (0 without a core)."""
    c = sum(copies for b, copies in plan if b.name == f"K_{ell}")
    core = [b for b, _ in plan if b.name == "W"]
    s = core[0].edges - sat_formula(core[0].vertices, ell)[0] if core else 0
    return c, s


def runs_shape(plan):
    """A plan's runs as (name, vertices, edges, nonfull, copies)."""
    return [(*b[:4], copies) for b, copies in plan]


def assert_lawful_runs(plan):
    """Each run holds at least one copy of a block on at least one vertex,
    and neighbouring runs differ in block."""
    assert plan and all(copies >= 1 and b.vertices >= 1 for b, copies in plan), runs_shape(plan)
    assert all(a[:4] != b[:4] for (a, _), (b, _) in zip(plan, plan[1:])), runs_shape(plan)


def nonfull(g, ell):
    return sum(d != ell - 1 for d in LinkPass(g.vertex_count, g.edges).degrees)


def test_sat_formula_values_and_minimizers():
    assert sat_formula(30, 5) == (37, frozenset({3}))
    assert sat_formula(45, 5) == (57, frozenset({3}))
    assert sat_formula(30, 4) == (28, frozenset({2, 3}))
    assert sat_formula(30, 2) == (10, frozenset({1, 2}))
    assert sat_formula(30, 3)[0] == 19
    for n, ell in ((30, 1), (0, 5)):
        with pytest.raises(ValueError):
            sat_formula(n, ell)


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
    with pytest.raises(ValueError):
        ex_formula(5, 0)
    # every closed-form table ends at ex and, from ell = 2 on, starts at sat
    for ell in range(1, 13):
        for n in range(1, 301 if ell <= 4 else ell + 1):
            table = assembler._closed_form(n, ell)
            assert max(table) == ex_formula(n, ell)[0], (n, ell)
            assert ell < 2 or min(table) == sat_formula(n, ell)[0], (n, ell)


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
    # an argmin of sat_formula, 3 whenever 3 is one, and always 3 at ell <= 6
    for ell in range(5, 21):
        for n in range(ell + 1, 400):
            a, argmin = select_a_star(n, ell), sat_formula(n, ell)[1]
            assert a in argmin and (a == 3) == (3 in argmin), (n, ell)
            assert ell > 6 or a == 3, (n, ell)
    # the W construction needs ell >= 5 and n > ell
    for n, ell in ((45, 4), (5, 5), (3, 6)):
        with pytest.raises(ValueError, match="needs ell >= 5 and n > ell"):
            select_a_star(n, ell)


def test_lower_plan_matches_built_edge_count():
    for m in (57, 60, 64, 70, 74):
        verdict = plan_lower(45, 5, m)
        assert verdict.status == OK
        g = build(verdict.plan)
        assert g.vertex_count == 45 and len(g.edges) == m


def test_lantern_overlay_adds_three_edges_each():
    base = len(build_W(45, 5, 0, 0, seed=0).edges)
    for k in (1, 2):
        g = build_W(45, 5, k, 0, seed=0)
        assert len(g.edges) == base + 3 * k
        assert certified(g, 5)


def test_pair_surgeries_add_one_edge_each():
    base = len(build_W(45, 5, 0, 0, seed=0).edges)
    for i in (1, 2):
        g = build_W(45, 5, 0, i, seed=0)
        assert len(g.edges) == base + i
        assert certified(g, 5)


def test_lower_plan_reaches_the_extremal_end():
    # the clique split runs past ell(ell-1)n/12 = 25020 at (10008, 6)
    for m, c in ((25590, 891), (25589, 891), (25520, 884), (25021, 834)):
        verdict = plan_lower(10008, 6, m)
        assert verdict.status == OK, (m, verdict.detail)
        assert split_fields(verdict.plan, 6)[0] == c
    ex_val, _ = ex_formula(10008, 6)
    assert plan_witness(10008, 6, ex_val + 1).status == OUT_OF_RANGE


def test_plan_size_does_not_grow_with_n():
    # a plan holds one run per block, not one entry per clique
    n = 999_996
    ex = ex_formula(n, 6)[0]
    assert runs_shape(plan_witness(n, 6, ex).plan) == [("K_6", 6, 20, 0, 166_666)]
    # one Block per clique size, so plans compare whole, build lambda too
    assert plan_witness(n, 6, ex).plan == ((assembler._clique(6, 6), 166_666),)
    verdict = plan_witness(n, 6, ex - 200)
    assert verdict.status == OK and verdict.detail.endswith("plus 166646 cliques")
    assert runs_shape(verdict.plan) == [("W", 120, 200, 120, 1), ("K_6", 6, 20, 0, 166_646)]


def test_lower_plan_keeps_the_largest_clique_split():
    # the bisection agrees with a linear scan over every clique count
    for n, ell in ((45, 5), (61, 5), (120, 6), (120, 7), (87, 8)):
        sat, _ = sat_formula(n, ell)
        for m in range(sat, ex_formula(n, ell)[0] + 1):
            verdict = plan_lower(n, ell, m)
            if verdict.plan is None:
                continue
            c, s = split_fields(verdict.plan, ell)
            assert m - comb(ell, 3) * c - sat_formula(n - c * ell, ell)[0] == s
            if n - (c + 1) * ell > ell:
                assert m - comb(ell, 3) * (c + 1) - sat_formula(n - (c + 1) * ell, ell)[0] < 0


# spectrum_runs reaches every rule on this grid: the closed form at
# ell <= 4 and at n <= ell, sampler-refused cores at (20, 6) and (120, 6),
# the exact range at (45, 5) and (60, 5), and the clique split off ell | n
RUN_GRID = ([(n, ell) for ell in (1, 2, 3, 4) for n in range(1, 18)]
            + [(3, 5), (5, 5), (6, 7), (8, 8)]
            + [(20, 6), (120, 6), (45, 5), (60, 5), (61, 5), (120, 7), (87, 8)])
RUNS_SHA256 = "9cfca734a33b32fe2be8cf8aac60e27ea24609631b270eee1d4ea90d669b9949"


def test_spectrum_runs_are_pinned_and_every_verdict_names_its_run():
    runs = [spectrum_runs(n, ell) for n, ell in RUN_GRID]
    assert sha256(json.dumps(runs).encode()).hexdigest() == RUNS_SHA256
    statuses = {r["status"] for rs in runs for r in rs}
    assert statuses == {"feasible", "infeasible", "unsupported", "sampler-refused"}
    for n, ell in RUN_GRID:
        table = assembler._closed_form(n, ell)
        top = ex_formula(n, ell)[0] if table is None else max(table)
        for m in range(top + 2):
            verdict = plan_witness(n, ell, m)
            if verdict.feasible:
                assert_lawful_runs(verdict.plan)
            run = verdict.run
            assert isinstance(run, tuple) and len(run) == 2, (n, ell, m)
            assert all(isinstance(x, str) and x for x in run), (n, ell, m)


def test_unrealizable_core_specs_are_unsupported():
    # these plans' cores fail degree_spec (too few edges for the
    # pairwise non-adjacent low vertices), so the plan itself is refused
    for n, m in ((45, 87), (100, 232)):
        verdict = plan_witness(n, 6, m)
        assert verdict.status == UNSUPPORTED
        assert "pairwise non-adjacent" in verdict.detail


COVERAGE_FLOOR = {(120, 6): 149, (61, 5): 30, (120, 7): 143}


def reference_runs(n, ell):
    """spectrum_runs from one plan per m in [0, top], merging equal runs;
    top is the largest closed-form m, else ex."""
    table = assembler._closed_form(n, ell)
    top = ex_formula(n, ell)[0] if table is None else max(table)
    marked = [(plan_witness(n, ell, m).run, m) for m in range(top + 1)]
    runs = []
    for (status, rule), same in groupby(marked, key=lambda x: x[0]):
        ms = [m for _, m in same]
        runs.append({"lo": ms[0], "hi": ms[-1], "status": status, "rule": rule})
    return runs


def test_spectrum_runs_match_one_plan_per_m():
    for n in range(1, 61):
        for ell in range(1, 10):
            assert spectrum_runs(n, ell) == reference_runs(n, ell), (n, ell)


@pytest.mark.parametrize("n,ell", sorted(COVERAGE_FLOOR))
def test_every_m_from_sat_to_ex_is_built_or_refused(n, ell):
    # each m either builds a certified witness or ends in a documented
    # verdict (exit 6/7) or a sampler refusal (exit 5); never exit 4
    certified_ms = 0
    for m in range(sat_formula(n, ell)[0], ex_formula(n, ell)[0] + 1):
        planned = plan_witness(n, ell, m)
        if planned.feasible:
            assert_lawful_runs(planned.plan)
        try:
            verdict, g = build_spectrum_witness(n, ell, m, seed=0, max_tries=20000)
        except SamplerBudgetError:
            continue
        if g is None:
            assert verdict.status in (BY_THEOREM, OUT_OF_RANGE, UNSUPPORTED), m
            continue
        assert g.vertex_count == n and len(g.edges) == m
        assert certified(g, ell), m
        assert top_degree_claim_holds(g, ell), m
        certified_ms += 1
    assert certified_ms >= COVERAGE_FLOOR[(n, ell)]


def test_no_witness_off_five_divides_n_has_deficit_zero_or_one():
    # ROADMAP item 16's l = 5 sketch: off 5 | n, the top-degree claim
    # leaves no saturated graph with 2n - m in {0, 1}.  This checks it on
    # certified and stored sweep witnesses; it changes no verdict
    deficits = []
    for n in range(61, 65):
        for m in range(sat_formula(n, 5)[0], ex_formula(n, 5)[0] + 1):
            try:
                _, g = build_spectrum_witness(n, 5, m, seed=0, max_tries=20000)
            except SamplerBudgetError:
                continue
            if g is not None:
                assert certified(g, 5), (n, m)
                deficits.append((2 * n - m, n, m))
    for n in (6, 7):
        deficits += [(2 * n - m, n, m) for m in exhaustive_spectrum(n, 5).witnesses]
    assert len(deficits) > 100 and min(deficits)[0] >= 2, min(deficits)


def test_exact5_zone_covers_the_top_band():
    n = 45
    for m in range(76, 86):
        verdict = plan_exact5(n, m)
        assert verdict.status == OK, (m, verdict.detail)
        g = build(verdict.plan)
        assert g.vertex_count == n and len(g.edges) == m
        assert certified(g, 5)
    for m in range(86, 90):
        assert plan_exact5(n, m).status == BY_THEOREM
    verdict = plan_exact5(n, 90)
    assert verdict.status == OK
    g = build(verdict.plan)
    assert len(g.edges) == 90 and certified(g, 5)


def test_exact5_single_unit_per_deficit_class():
    # each deficit residue gets exactly one special unit; the unit sizes
    # must fit inside n with the prescribed lantern count
    verdict = plan_exact5(45, 82)
    assert verdict.status == OK
    plan = verdict.plan
    # the deficit m* = 2n - m is the sum of 2N - e over the blocks
    assert sum(copies * (2 * b.vertices - b.edges) for b, copies in plan) == 8
    g = build(plan)
    assert len(g.edges) == 82 and certified(g, 5)


_REF_LANTERN = Block("lantern", 15, 23, 0, lambda **_: gadgets.lantern(5))
_REF_BROKEN = Block("broken lantern", 10, 15, 1, lambda **_: gadgets.broken_lantern())

# residue b of the deficit m* = 7a + b at ell = 5: its special blocks and
# how many of the a lanterns they replace; 2N - e of a block is its share
# of m*, 7 for a lantern and 0 for K_5
_REF_EXACT5_UNITS = {
    0: ((), 0),
    1: ((Block("sun", 6, 8, 0, lambda **_: gadgets.sun(5)), assembler._clique(4, 5)), 1),
    2: ((Block("R", 15, 21, 2, lambda **_: gadgets.gadget_R()),), 1),
    3: ((_REF_BROKEN, _REF_BROKEN), 1),
    4: ((Block("Q", 20, 29, 2, lambda **_: gadgets.gadget_Q()),), 1),
    5: ((_REF_BROKEN,), 0),
    6: ((Block("D", 10, 14, 2, lambda **_: gadgets.gadget_D()),), 0),
}


def _reference_exact5_plan(n, m):
    """The ell = 5, 5 | n mixture plan for m in [5n/3, 2n - 5] or 2n
    before `compose`, verbatim: a residue table of special blocks, then
    lanterns, then 5-cliques."""
    if m == 2 * n:
        return (assembler._clique(5, 5),) * (n // 5)
    m_star = 2 * n - m
    a, b = divmod(m_star, 7)
    units, replaced = _REF_EXACT5_UNITS[b]
    lanterns = a - replaced
    used = sum(u.vertices for u in units) + 15 * lanterns
    return units + (_REF_LANTERN,) * lanterns + (assembler._clique(5, 5),) * ((n - used) // 5)


def test_compose_rebuilds_the_residue_table_plans():
    # every 5 | n <= 600 and every m the mixtures planned: the same blocks
    # in the same order; the four counts under 2n have no union at all
    def shape(runs):
        return [(b.name, b.vertices, b.edges, copies) for b, copies in runs]

    plans = 0
    for n in range(5, 601, 5):
        for m in [*range(-(-5 * n // 3), 2 * n - 4), 2 * n]:
            reference = [(b, len(list(same))) for b, same in groupby(_reference_exact5_plan(n, m))]
            assert shape(compose(n, 5, m).plan) == shape(reference), (n, m)
            plans += 1
        for m in range(2 * n - 4, 2 * n):
            assert compose(n, 5, m) is None, (n, m)
    assert plans == 11704


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


# every m in [sat, ex] at ell <= 4 and n <= 60 that the planner refuses
# (exit 7): tiny n the closed forms do not reach, each waiting on the
# exhaustive answers at n <= 8
SMALL_STAR_MISSES = {(4, 3, 2), (5, 3, 2), (5, 3, 3), (6, 3, 3), (8, 3, 5),
                     (5, 4, 3), (5, 4, 4), (6, 4, 5), (7, 4, 6), (8, 4, 7)}


def test_small_stars_build_by_construction_up_to_sixty(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an ell <= 4 plan sampled")

    monkeypatch.setattr(assembler.confmodel, "sample_linear", refuse)
    misses = set()
    for ell in (1, 2, 3, 4):
        for n in range(1, 61):
            lo = 0 if ell == 1 else sat_formula(n, ell)[0]
            for m in range(lo, ex_formula(n, ell)[0] + 1):
                verdict, g = build_spectrum_witness(n, ell, m)
                if verdict.status == UNSUPPORTED:
                    misses.add((n, ell, m))
                    continue
                assert verdict.feasible, (n, ell, m, verdict.detail)
                assert g.vertex_count == n and len(g.edges) == m
                assert certified(g, ell), (n, ell, m)
    assert misses == SMALL_STAR_MISSES


# oracle.exhaustive_spectrum(7, ell).realizable, pinned so that the planner
# is held to fixed values; test_oracle checks that the sweep still gives them
REALIZABLE_AT_SEVEN = {
    1: (0,),
    2: (2,),
    3: (4,),
    4: (5, 6, 7),
    5: (7, 8, 9, 10),
    6: (10, 11, 12, 13, 14, 15, 16, 17, 20),
    7: (35,),
}


def test_planner_agrees_with_tiny_n_ground_truth():
    # every (n, ell, m) with n <= 7 against the exhaustive sweep: an ok
    # verdict builds a certified witness of a realizable m, an infeasible
    # verdict names an unrealizable m, and only the sampler may raise
    for n in range(1, 8):
        for ell in range(1, 8):
            if n == 7:
                realizable = set(REALIZABLE_AT_SEVEN[ell])
            else:
                realizable = set(exhaustive_spectrum(n, ell).realizable)
            for m in range(comb(n, 3) + 2):
                try:
                    verdict, g = build_spectrum_witness(n, ell, m, seed=0)
                except SamplerBudgetError:
                    continue
                if verdict.feasible:
                    assert m in realizable and certified(g, ell), (n, ell, m)
                    assert g.vertex_count == n and len(g.edges) == m
                elif verdict.status in (BELOW_SAT, BY_THEOREM):
                    assert m not in realizable, (n, ell, m)


def test_witnesses_use_every_vertex_budget():
    v, g = build_spectrum_witness(45, 5, 64, seed=3)
    assert v.status == OK
    # the clique block leaves no isolated vertices behind
    assert all(LinkPass(g.vertex_count, g.edges).through)


def test_build_w_validates_parameters():
    with pytest.raises(ValueError):
        build_W(45, 5, 0, 3)


def test_build_w_makes_no_lantern_without_overlay(monkeypatch):
    def refuse(ell):
        raise AssertionError("built a lantern for k = 0")

    monkeypatch.setattr(gadgets, "lantern", refuse)
    g = build_W(45, 5, 0, 1)
    assert g.vertex_count == 45 and certified(g, 5)


def test_build_w_checks_and_searches_its_core_once(monkeypatch):
    # the sampler hands back the pair it accepted, so a build with two
    # surgeries checks its core against the spec and searches its pair
    # once (the seed-0 core of d(42, 5, 0) is accepted without a pair reject)
    from bergesat import confmodel

    calls = []
    for name in ("_check_realizes", "find_disjoint_edge_pair"):
        def counted(*args, _name=name, _fn=getattr(confmodel, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(confmodel, name, counted)
    build_W(45, 5, 0, 2, seed=0)
    assert sorted(calls) == ["_check_realizes", "find_disjoint_edge_pair"]


# sha256 of write_h3 (first 16 hex digits) of the seed-0 witness: every
# closed-form row, the clique split with i = 0, 1, 2 and k = 1, the
# all-clique plan, and the exact-5 mixtures for every residue b.  A change
# to the sampler or a block that alters any of these updates them here
# and says so in CHANGES.md
PINNED_WITNESSES = {
    (30, 1, 0): "2b4d6be56eea39e9",
    (30, 2, 10): "3de8e2fad1dd9806",
    (30, 3, 19): "4f54c8d197e1e9a5",
    (30, 3, 20): "f0f80d80f2a58cc5",
    (30, 4, 28): "47854de4049fa61b",
    (30, 4, 29): "074d910de2b94c97",
    (30, 4, 30): "55ebe761b9198124",
    (31, 1, 0): "96f3db7842560e53",
    (31, 2, 10): "b51e1dbb8b0f9ffc",
    (31, 3, 20): "f13306c753df3458",
    (31, 4, 29): "42ce6ca2a0ec7e94",
    (31, 4, 30): "73633d5a36374f4b",
    (31, 4, 31): "986ce04b1452f235",
    (32, 1, 0): "bd82d9eab6045a4a",
    (32, 2, 10): "9a31237a77e0fcf7",
    (32, 3, 20): "1a67010b5098249a",
    (32, 3, 21): "7db20aed7ab37c44",
    (32, 4, 30): "bf69ad84a0c1340d",
    (32, 4, 31): "45c186d47eb18681",
    (32, 4, 32): "0554ebbcf13c69cd",
    (5, 7, 10): "36ccac8e4be2c0b7",
    (3, 3, 1): "d75466058223601a",
    (45, 5, 57): "8a2592f8b8d3359b",
    (45, 5, 58): "abad0f0182e5c0e0",
    (45, 5, 59): "e7e0e1cf29bc38ff",
    (45, 5, 60): "ae0a16cb0742e063",
    (45, 5, 64): "aa6c609a0a11b3c0",
    (45, 5, 70): "3dba5301b476f59c",
    (45, 5, 73): "c05ed654d09f3239",
    (120, 6, 400): "a06731868112492c",  
    (45, 5, 75): "5c03cb42ab5405ed",
    (45, 5, 76): "3a41731fda7e230b",
    (45, 5, 77): "b813496b5355da36",
    (45, 5, 78): "bc9dee5a02ed2025",
    (45, 5, 79): "c65e866ed9f7a055",
    (45, 5, 80): "fbdca9957a54f1b6",
    (45, 5, 81): "2790d2a0fb87b4ff",
    (45, 5, 82): "fa11a44038a130d2",
    (45, 5, 83): "4ffa37f96b6c987b",
    (45, 5, 84): "c72e5bd8923ba6a7",
}


@pytest.mark.parametrize("key", sorted(PINNED_WITNESSES))
def test_witness_bytes_are_pinned(key):
    verdict, g = build_spectrum_witness(*key, seed=0)
    assert verdict.feasible, verdict.detail
    assert sha256(write_h3(g).encode()).hexdigest()[:16] == PINNED_WITNESSES[key]


def _greedy_maximal_free(rng, ell):
    """A random maximal Berge-K_{1,ell}-free graph on 3..7 vertices: each
    triple in random order is kept when the graph stays free, so every
    triple left out would break freeness, and the graph is saturated."""
    n = rng.randint(3, 7)
    triples = list(combinations(range(n), 3))
    rng.shuffle(triples)
    edges = []
    for t in triples:
        if max(LinkPass(n, edges + [t]).degrees) <= ell - 1:
            edges.append(t)
    return make(n, edges)


def test_union_rule_matches_the_checker():
    rng = random.Random(0)
    outcomes = set()
    for _ in range(300):
        ell = rng.randint(3, 6)
        blocks = [_greedy_maximal_free(rng, ell) for _ in range(rng.randint(2, 3))]
        assert all(certified(b, ell) for b in blocks)
        saturated = is_saturated(disjoint_union(*blocks), ell).is_saturated
        assert union_saturated([nonfull(b, ell) for b in blocks]) == saturated
        outcomes.add(saturated)
    assert outcomes == {True, False}


def test_ten_cliques_beside_a_smaller_clique_certify():
    # ten K_ell and one K_r, r < ell, on n = 10 ell + r vertices fall
    # delta_r(ell) = floor(C(ell,3) r / ell) - C(r,3) edges short of ex;
    # the certificate alone, since the planner does not plan these unions
    unions = [(ell, r) for ell in range(5, 11) for r in range(1, ell)]
    assert len(unions) == 39
    for ell, r in unions:
        g = disjoint_union(*[gadgets.clique3(ell)] * 10, gadgets.clique3(r))
        delta = comb(ell, 3) * r // ell - comb(r, 3)
        assert ex_formula(g.vertex_count, ell)[0] - len(g.edges) == delta, (ell, r)
        assert certified(g, ell), (ell, r)


def _planned_blocks():
    """(ell, block) for every distinct block the planner uses on a grid
    that covers each branch, and every row of assembler._BESIDE."""
    points = [(n, ell, m) for n in (2, 3, 5, 8, 16, 30, 31, 32) for ell in (1, 2, 3, 4)
              for m in range(comb(n, 3) + 1)]
    points += [(5, 7, 10)]
    points += [(45, 5, m) for m in (57, 58, 60, 64, 75, 90)]
    points += [(45, 5, m) for m in range(76, 86)] + [(120, 6, 400)]
    seen = {}
    for n, ell, m in points:
        verdict = plan_witness(n, ell, m)
        for b, _ in verdict.plan or ():
            seen.setdefault((ell, b.name, b.vertices), (ell, b))
    # every row compose sets beside cliques, planned on this grid or not
    for ell, rows in assembler._BESIDE.items():
        for b in rows:
            seen.setdefault((ell, b.name, b.vertices), (ell, b))
    return list(seen.values())


def test_declared_nonfull_counts_match_the_link_pass():
    blocks = _planned_blocks()
    names = {b.name for _, b in blocks}
    assert {"W", "lantern", "sun", "broken lantern", "D", "Q", "R", "K_4", "K_5",
            "wrap cycle", "tight cycle", "sparse split", "empty graph"} <= names
    # compose checks the union rule on its units alone: every first row is all full
    assert all(rows[0].nonfull == 0 for rows in assembler._BESIDE.values())
    for ell, b in blocks:
        g = b.build(seed=0)
        assert (g.vertex_count, len(g.edges)) == (b.vertices, b.edges), b.name
        assert certified(g, ell), (ell, b.name)
        if b.name != "W":
            assert nonfull(g, ell) == b.nonfull, (ell, b.name)
        else:
            # the sampled core declares its vertex count, an upper bound
            assert nonfull(g, ell) <= b.nonfull == b.vertices


def test_planner_refuses_blocks_that_break_the_rule_or_the_sums(monkeypatch):
    d = Block("D", 10, 14, 2, lambda **_: gadgets.gadget_D())
    # two D blocks fill (20, 28) but leave 4 non-full vertices in 2 blocks
    monkeypatch.setattr(assembler, "plan_lower",
                        lambda n, ell, m: Verdict(OK, "D + D", ((d, 2),)))
    with pytest.raises(InternalError, match="non-full counts \\[2, 2\\]"):
        plan_witness(20, 5, 28)
    with pytest.raises(InternalError):
        build_spectrum_witness(20, 5, 28)
    # one D block: the rule holds, but 10 vertices are not 20
    monkeypatch.setattr(assembler, "plan_lower", lambda n, ell, m: Verdict(OK, "D", ((d, 1),)))
    with pytest.raises(InternalError, match="\\(10, 14\\)"):
        plan_witness(20, 5, 28)
    # compose skips units that break the rule: with only lanterns and D,
    # two D blocks and five 5-cliques are the one union with 45 vertices and 78 edges
    monkeypatch.setattr(assembler, "_BESIDE", {5: (assembler._BESIDE[5][0], d)})
    assert compose(45, 5, 78) is None
