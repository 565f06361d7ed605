"""Shared helpers: hypothesis strategies for small 3-graphs, the
certificate as a bool, and the small-star spectra the planner builds."""

from itertools import combinations

from hypothesis import strategies as st

from bergesat.assembler import build_spectrum_witness
from bergesat.checker import is_saturated
from bergesat.hypercore import Hypergraph3


def certified(g, ell):
    rep = is_saturated(g, ell)
    return rep.is_free and rep.is_saturated


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
