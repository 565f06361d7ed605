"""Shared helpers: hypothesis strategies for small 3-graphs, the
certificate and the top-degree claim as bools, and the small-star
spectra the planner builds."""

from collections import Counter
from itertools import chain, combinations
from math import comb

from hypothesis import strategies as st

from bergesat.assembler import build_spectrum_witness
from bergesat.checker import is_saturated, top_degree_component_claim
from bergesat.hypercore import Hypergraph3


def certified(g, ell):
    rep = is_saturated(g, ell)
    return rep.is_free and rep.is_saturated


def top_degree_claim_holds(g, ell):
    """No degree above C(ell-1, 2), and top_degree_component_claim, on a
    saturated g."""
    degrees = Counter(chain.from_iterable(g.edges)).values()
    return max(degrees, default=0) <= comb(ell - 1, 2) and top_degree_component_claim(g, ell)


def small_star_spectrum(n, ell):
    """{m: seed-0 witness} of every m in [0, 2n + 1] the planner builds."""
    built = {m: build_spectrum_witness(n, ell, m, seed=0) for m in range(2 * n + 2)}
    return {m: g for m, (verdict, g) in built.items() if verdict.feasible}


@st.composite
def small_3graphs(draw, max_vertices=8, max_edges=12):
    n = draw(st.integers(min_value=3, max_value=max_vertices))
    pool = list(combinations(range(n), 3))
    count = draw(st.integers(min_value=0, max_value=min(max_edges, len(pool))))
    picked = draw(
        st.lists(
            st.sampled_from(pool), min_size=count, max_size=count, unique=True
        )
    )
    return Hypergraph3(n, tuple(sorted(picked)))


@st.composite
def small_linear_3graphs(draw, max_vertices=10, max_edges=10):
    """Linear instances only: edges kept while no pair repeats."""
    n = draw(st.integers(min_value=3, max_value=max_vertices))
    pool = list(combinations(range(n), 3))
    order = draw(st.permutations(pool))
    limit = draw(st.integers(min_value=0, max_value=max_edges))
    used = set()
    edges = []
    for e in order:
        if len(edges) == limit:
            break
        pairs = {(e[0], e[1]), (e[0], e[2]), (e[1], e[2])}
        if used & pairs:
            continue
        used |= pairs
        edges.append(e)
    return Hypergraph3(n, tuple(sorted(edges)))
