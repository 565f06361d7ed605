"""Sampler contracts: degree specs, determinism, defect rates, exact search."""

from collections import Counter
import hashlib
from itertools import chain, islice
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergesat.confmodel import (
    DegreeSpec,
    SampleStats,
    SamplerBudgetError,
    degree_spec,
    _sample_dfs,
    _sample_hill,
    find_disjoint_edge_pair,
    refusal,
    sample_linear,
)
from bergesat.hypercore import make, write_h3


def count_degrees(g):
    count = Counter(chain.from_iterable(g.edges))
    return [count[v] for v in range(g.vertex_count)]


def assert_linear(g):
    seen = set()
    for a, b, c in g.edges:
        for p in ((a, b), (a, c), (b, c)):
            assert p not in seen, f"pair {p} repeats"
            seen.add(p)


def test_degree_spec_arithmetic():
    s = degree_spec(60, 5, 0)
    assert (s.t, s.edge_count) == (0, 80)
    assert set(s.degree_array()) == {4}
    s = degree_spec(17, 5, 0)
    assert (s.t, s.edge_count) == (2, 22)
    assert sorted(set(s.degree_array())) == [3, 4]
    s = degree_spec(27, 5, 1)
    assert s.edge_count == 16
    arr = s.degree_array()
    assert list(arr[:15]) == [0] * 15 and list(arr[15:]) == [4] * 12
    s = degree_spec(120, 6, 1)
    assert list(s.degree_array()[:15]) == [1] * 15
    for args in ((60, 5, 0), (17, 5, 0), (27, 5, 1), (120, 6, 1)):
        s = degree_spec(*args)
        assert 3 * s.edge_count == sum(s.degree_array())


def test_degree_spec_rejects_bad_parameters():
    for args, problem in (((30, 3, 0), "unsupported"), ((30, 4, 1), "unsupported"),
                          ((30, 5, 11), "outside"), ((14, 5, 1), "15k = 15 exceeds"),
                          ((16, 6, 1), "15k \\+ t = 17 exceed n = 16"),
                          ((-1, 5, 0), "negative n = -1")):
        with pytest.raises(ValueError, match=problem):
            degree_spec(*args)


@pytest.mark.parametrize(
    "n,ell,k",
    [(30, 5, 0), (45, 5, 0), (42, 5, 0), (60, 5, 1), (54, 6, 0), (120, 6, 1),
     (17, 5, 0), (200, 61, 0)],
)
def test_samples_realize_the_spec(n, ell, k):
    spec = degree_spec(n, ell, k)
    g, stats, _ = sample_linear(n, ell, k, seed=5)
    assert g.vertex_count == n
    assert count_degrees(g) == list(spec.degree_array())
    assert_linear(g)
    assert len(g.edges) == spec.edge_count


def test_same_seed_same_graph():
    a, _, _ = sample_linear(33, 5, 0, seed=9)
    b, _, _ = sample_linear(33, 5, 0, seed=9)
    assert a == b
    c, _, _ = sample_linear(33, 5, 0, seed=10)
    assert a != c


def test_rejection_and_hill_climbing_agree_on_the_contract():
    spec = degree_spec(30, 4, 0)
    for rejection in (True, False):
        g, stats, _ = sample_linear(30, 4, 0, seed=2, rejection=rejection)
        assert count_degrees(g) == list(spec.degree_array())
        assert_linear(g)
        assert stats.repaired == (not rejection)


# a linear realization of d(30, 6, 1) but for its first edge, which joins
# the low vertices 0 and 1
LOW_PAIR_30_6_1 = (
    (0, 1, 17), (2, 21, 25), (3, 19, 25), (4, 18, 28), (5, 15, 24), (6, 15, 17),
    (7, 15, 21), (8, 20, 28), (9, 15, 26), (10, 21, 22), (11, 16, 18), (12, 19, 27),
    (13, 16, 28), (14, 16, 24), (15, 25, 29), (16, 22, 26), (16, 23, 27), (17, 18, 22),
    (17, 23, 24), (17, 25, 27), (18, 20, 23), (18, 21, 29), (19, 20, 21), (19, 23, 29),
    (19, 24, 26), (20, 22, 27), (20, 26, 29), (22, 25, 28), (23, 26, 28), (24, 27, 29),
)


@pytest.mark.parametrize("require_pair", (True, False))
def test_every_route_result_is_checked_against_the_spec(monkeypatch, require_pair):
    from bergesat import confmodel
    from bergesat.hypercore import Hypergraph3

    for args, edges, problem in (
        ((24, 5, 0), ((0, 1, 2),), "degree mismatch"),
        ((24, 5, 0), ((0, 1, 2), (0, 1, 3)), "not linear: pair \\(0, 1\\) in two edges"),
        ((30, 6, 1), LOW_PAIR_30_6_1, "low-degree vertices 0 and 1 share the edge"),
    ):
        def wrong_graph(spec, seed, max_tries, stats, edges=edges):
            yield Hypergraph3(spec.n, edges)

        monkeypatch.setattr(confmodel, "_sample_hill", wrong_graph)
        with pytest.raises(ValueError, match=problem):
            sample_linear(*args, seed=0, require_pair=require_pair)


def test_rejection_defect_rates_match_the_loop_model():
    """Loops per configuration stay near ell - 2; overlaps run above the
    documented asymptotic rate at this size, which is why hill-climbing
    is the default route."""
    with pytest.raises(SamplerBudgetError) as e:
        sample_linear(60, 5, 0, seed=11, max_tries=20000, rejection=True)
    s = e.value.stats
    assert s.tries == 20000
    loops = s.loops_seen / s.tries
    overlaps = s.overlaps_seen / s.tries
    assert abs(loops - s.expected_lambda) < 0.2
    assert 2 * s.expected_mu <= overlaps <= 3 * s.expected_mu


def test_exact_search_assembles_the_rigid_overlay_remainder():
    # 12 active vertices, all at degree 4: only a near-perfect pair
    # packing realizes this, and specs this small go to the exhaustive
    # search, which settles them outright
    g, stats, _ = sample_linear(27, 5, 1, seed=0, require_pair=False)
    assert count_degrees(g) == [0] * 15 + [4] * 12
    assert_linear(g)
    assert not stats.repaired
    g2, _, _ = sample_linear(27, 5, 1, seed=0, require_pair=False)
    assert g2 == g


@pytest.mark.parametrize("n", (22, 17))
def test_exact_search_proves_tiny_specs_unrealizable(n):
    with pytest.raises(SamplerBudgetError, match="no simple linear"):
        sample_linear(n, 5, 1, seed=0, require_pair=False, max_tries=200000)


@pytest.mark.parametrize("n", (22, 17))
def test_exact_search_itself_proves_the_refused_specs_unrealizable(n):
    # sample_linear refuses these by counting; the search reaches the
    # same verdict by exhausting its space
    spec = degree_spec(n, 5, 1)
    assert refusal(spec, require_pair=False) is not None
    stats = SampleStats()
    assert next(_sample_dfs(spec, 0, 200000, stats), None) is None
    assert 0 < stats.tries < 200000


@pytest.mark.parametrize("require_pair, suffix", [(True, " with the disjoint-pair guarantee"),
                                                  (False, "")])
def test_search_that_runs_out_raises_the_budget_error(monkeypatch, require_pair, suffix):
    # refusal() rules d(7, 5, 0) out by counting; without it the search
    # runs its whole space, 916 nodes, and the acceptance loop gives up
    from bergesat import confmodel

    monkeypatch.setattr(confmodel, "refusal", lambda spec, require_pair=True: None)
    with pytest.raises(SamplerBudgetError) as e:
        sample_linear(7, 5, 0, seed=0, require_pair=require_pair)
    assert str(e.value) == ("exhaustive search: no simple linear realization of "
                            f"(n=7, ell=5, k=0){suffix}")
    assert e.value.stats.tries == 916


def test_counting_refusals_come_before_any_sampling():
    # d(12, 7, 0): twelve vertices of degree 6 each need 12 neighbours
    start = time.perf_counter()
    with pytest.raises(SamplerBudgetError) as e:
        sample_linear(12, 7, 0, seed=0)
    assert time.perf_counter() - start < 1
    assert str(e.value).startswith("no simple linear realization of (n=12, ell=7, k=0)")
    assert e.value.stats.tries == 0
    # d(27, 6, 1): 25 edges, but the disjoint pair needs 6 ell - 10 = 26
    spec = degree_spec(27, 6, 1)
    assert refusal(spec, require_pair=False) is None
    assert "need 26 edges, the spec has 25" in refusal(spec, require_pair=True)
    # the free-edge count is still the first test
    assert refusal(degree_spec(84, 8, 3), require_pair=True).startswith(
        "no disjoint full-degree edge pair")


@pytest.mark.parametrize("n,ell,k", [(45, 5, 0), (60, 5, 1), (54, 6, 0), (84, 7, 1)])
def test_disjoint_pair_spans_six_ell_minus_ten_distinct_edges(n, ell, k):
    g, _, _ = sample_linear(n, ell, k, seed=1)
    spec = degree_spec(n, ell, k)
    e1, e2 = find_disjoint_edge_pair(g, spec)
    around = {e for e in g.edges if set(e) & (set(e1) | set(e2))}
    assert len(around) == 6 * ell - 10
    assert refusal(spec) is None


def test_zero_edge_spec_yields_the_empty_graph():
    g, stats, _ = sample_linear(15, 5, 1, seed=0, require_pair=False)
    assert g.edges == ()


def test_rejection_logs_each_time_it_crosses_a_progress_step(monkeypatch, caplog):
    # one draw per try, so a line at each multiple of the step: 1500,
    # 3000 and 4500 of the 5000 tries
    from bergesat import confmodel

    monkeypatch.setattr(confmodel, "_PROGRESS_EVERY", 1500)
    with caplog.at_level("INFO", logger="bergesat.confmodel"):
        with pytest.raises(SamplerBudgetError):
            sample_linear(60, 6, 0, seed=0, max_tries=5000, rejection=True)
    assert [r.getMessage() for r in caplog.records] == [
        f"sample_linear(n=60, ell=6, k=0): {done} tries, no accept yet"
        for done in (1500, 3000, 4500)
    ]


def test_budget_error_reports_progress():
    with pytest.raises(SamplerBudgetError) as e:
        sample_linear(36, 5, 0, seed=1, max_tries=3, rejection=True)
    assert e.value.stats.tries == 3


def test_disjoint_pair_on_a_sampled_graph():
    spec = degree_spec(42, 5, 0)
    g, _, pair = sample_linear(42, 5, 0, seed=0)
    e1, e2 = find_disjoint_edge_pair(g, spec)
    assert pair == (e1, e2)
    assert sample_linear(42, 5, 0, seed=0, require_pair=False)[2] is None
    assert set(e1) & set(e2) == set()
    assert e1 in g.edges and e2 in g.edges


def fano_plane():
    return make(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
                    (1, 4, 6), (2, 3, 6), (2, 4, 5)])


def test_disjoint_pair_absent_in_the_fano_plane():
    # the seven lines pairwise intersect, so no disjoint pair exists,
    # even though every vertex sits at the qualifying degree
    g = fano_plane()
    spec = degree_spec(7, 4, 0)
    assert count_degrees(g) == list(spec.degree_array())
    assert find_disjoint_edge_pair(g, spec) is None


def reference_pair(g, spec):
    """The first index pair i < j of full-degree, disjoint edges such that
    no third edge shares a vertex with both, read off the definition."""
    degs = count_degrees(g)
    edges = g.edges
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            e1, e2 = set(edges[i]), set(edges[j])
            if any(degs[v] != spec.ell - 1 for v in e1 | e2) or e1 & e2:
                continue
            if any(f & e1 and f & e2 for h, f in enumerate(map(set, edges)) if h not in (i, j)):
                continue
            return edges[i], edges[j]
    return None


def test_disjoint_pair_search_matches_the_definition():
    cases = [(fano_plane(), degree_spec(7, 4, 0))]
    # the first finished graphs of the (14, 4, 0) climb, which the pinned
    # seed-0 sample rejects five times for want of a pair
    spec = degree_spec(14, 4, 0)
    cases += [(g, spec) for g in islice(_sample_hill(spec, 0, 10_000, SampleStats()), 8)]
    for n, ell, k in [(14, 4, 0), (17, 5, 0), (24, 5, 0), (30, 4, 0), (27, 5, 1), (45, 5, 1),
                      (33, 6, 1)]:
        spec = degree_spec(n, ell, k)
        cases += [(sample_linear(n, ell, k, seed=seed, require_pair=False)[0], spec)
                  for seed in range(6)]
    found = [find_disjoint_edge_pair(g, spec) for g, spec in cases]
    assert found == [reference_pair(g, spec) for g, spec in cases]
    assert None in found and any(found)


def test_disjoint_pair_rejects_mismatched_spec():
    spec = degree_spec(30, 5, 0)
    g, _, _ = sample_linear(33, 5, 0, seed=0)
    with pytest.raises(ValueError):
        find_disjoint_edge_pair(g, spec)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_any_seed_yields_a_lawful_sample(seed):
    spec = degree_spec(24, 5, 0)
    g, _, _ = sample_linear(24, 5, 0, seed=seed, require_pair=False)
    assert count_degrees(g) == list(spec.degree_array())
    assert_linear(g)


def test_spec_is_hashable_and_frozen():
    s = degree_spec(30, 5, 0)
    assert isinstance(hash(s), int)
    with pytest.raises(Exception):
        s.n = 31


# seed-recorded sample_linear results, taken before the routes became
# candidate generators for one acceptance loop (the search rows when its
# order moved from numpy to random.Random, the rejection row when that
# route did): (n, ell, k), keyword arguments, then the sha256 prefix of
# the h3 text (or the budget error's message) and (tries, pair_rejects,
# repair_rounds, repaired)
PINNED_SAMPLES = [
    # hill-climbing; (14, 4, 0) rejects five finished graphs without the pair
    ((14, 4, 0), {}, "4542950bb74ae325", (112, 5, 62, True)),
    ((45, 5, 0), {"seed": 1}, "973e9581d216b116", (69, 0, 5, True)),
    ((120, 6, 1), {}, "ec3cc4f074be5758", (187, 0, 6, True)),
    ((30, 4, 0), {"seed": 2, "rejection": True}, "7ddd11f923010153", (925, 0, 0, False)),
    # the exhaustive search
    ((27, 5, 1), {"require_pair": False}, "db2c63c8f77b824d", (16, 0, 0, False)),
    ((41, 5, 2), {"require_pair": False}, "3f0ba7012df39dbd", (299, 0, 0, False)),
    # no edges: the search yields the empty graph at its root, on either route
    ((15, 5, 1), {"require_pair": False}, "589857a019d82dca", (1, 0, 0, False)),
    ((15, 5, 1), {"require_pair": False, "rejection": True}, "589857a019d82dca",
     (1, 0, 0, False)),
]

PINNED_BUDGET_ERRORS = [
    ((60, 5, 0), {"max_tries": 50},
     "hill-climbing found no simple linear sample for (n=60, ell=5, k=0) within 50 moves",
     (50, 0, 4, True)),
    ((26, 7, 1), {"max_tries": 1000},
     "hill-climbing found no simple linear sample for (n=26, ell=7, k=1) within 1000 moves",
     (1000, 44, 636, True)),
    ((36, 5, 0), {"seed": 1, "max_tries": 3, "rejection": True},
     "no simple linear sample for (n=36, ell=5, k=0) within 3 tries", (3, 0, 0, False)),
    # the search needs 299 nodes for its first realization here
    ((41, 5, 2), {"max_tries": 200, "require_pair": False},
     "backtracking budget exhausted for (n=41, ell=5, k=2)", (200, 0, 0, False)),
]


def _pinned_fields(stats):
    return (stats.tries, stats.pair_rejects, stats.repair_rounds, stats.repaired)


@pytest.mark.parametrize("spec, kwargs, digest, fields", PINNED_SAMPLES)
def test_sampler_outputs_are_pinned(spec, kwargs, digest, fields):
    g, stats, _ = sample_linear(*spec, **kwargs)
    assert hashlib.sha256(write_h3(g).encode()).hexdigest()[:16] == digest
    assert _pinned_fields(stats) == fields


@pytest.mark.parametrize("spec, kwargs, message, fields", PINNED_BUDGET_ERRORS)
def test_sampler_budget_errors_are_pinned(spec, kwargs, message, fields):
    with pytest.raises(SamplerBudgetError) as e:
        sample_linear(*spec, **kwargs)
    assert str(e.value) == message
    assert _pinned_fields(e.value.stats) == fields


def test_refusal_applies_the_triangle_packing_bound():
    # d(11, 6, 0) has 18 triples on 11 vertices of positive degree; a
    # linear 3-graph on v = 11 = 5 (mod 6) vertices has at most
    # floor(11 * 5 / 3) - 1 = 17
    spec = degree_spec(11, 6, 0)
    assert refusal(spec, require_pair=False) == (
        "no simple linear realization of (n=11, ell=6, k=0): a linear 3-graph on "
        "its 11 vertices of positive degree has at most 17 triples, the spec has 18")
    start = time.perf_counter()
    with pytest.raises(SamplerBudgetError) as e:
        sample_linear(11, 6, 0, require_pair=False)
    assert time.perf_counter() - start < 1 and e.value.stats.tries == 0
    # the bound is met exactly by the Steiner triple system on 13 points
    assert refusal(degree_spec(13, 7, 0), require_pair=False) is None
    g, _, _ = sample_linear(13, 7, 0, require_pair=False)
    assert len(g.edges) == 26
