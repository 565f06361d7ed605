"""Planners and builders for saturated graphs with prescribed size.

The planning layer turns (n, ell, m) into a recipe over the fixed
component kit: the core graph W (a sampled near-regular linear graph
with lantern overlays, an attached clique, and up to two edge
surgeries), disjoint cliques, lanterns, suns, the H blocks, and for
ell = 5 the small exact-count pieces.  Builders realize a plan
deterministically per seed, and everything they emit is re-verified by
the checker in the test suite rather than trusted.

Supported ranges follow the underlying counting arguments: the lower
range runs from the saturation number to ell(ell-1)n/12, the upper
range covers a constant-width window below the extremal number via the
H-block construction, and for ell = 5 with 5 | n the exact mixture
cases close everything from 5n/3 up to 2n - 5 plus the extremal value
2n itself, with 2n-4 .. 2n-1 provably unrealizable.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

from .hypercore import Hypergraph3, InternalError, make
from . import confmodel, gadgets

OK = "ok"
BELOW_SAT = "infeasible_below_sat"
BY_THEOREM = "infeasible_by_theorem"
OUT_OF_RANGE = "out_of_range"
UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class Verdict:
    """Outcome of planning: a status, a human-readable detail line, and
    the concrete plan when status is "ok"."""

    status: str
    detail: str
    plan: object = None

    @property
    def feasible(self) -> bool:
        return self.status == OK


@dataclass(frozen=True)
class LowerPlan:
    n: int
    ell: int
    m: int
    c: int
    a_star: int
    k: int
    i: int
    s: int


@dataclass(frozen=True)
class UpperPlan:
    n: int
    n0: int
    ell: int
    m: int
    alpha: int
    r: int
    a: int
    b: int
    beta: int


@dataclass(frozen=True)
class Exact5Plan:
    n: int
    m: int
    m_star: int
    a: int
    b: int


def sat_formula(n: int, ell: int):
    """Saturation number and its argmin set.

    Minimizes ceil((ell-1)(n-a)/3) + C(a,3) over integers a >= 1 with
    C(a-1,2) <= ell-2.  Returns (value, frozenset of minimizing a).
    """
    if ell < 2:
        raise ValueError(f"sat_formula needs ell >= 2, got {ell}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    best = None
    argmin = []
    a = 1
    while comb(a - 1, 2) <= ell - 2 and a <= n:
        val = -(-(ell - 1) * (n - a) // 3) + comb(a, 3)
        if best is None or val < best:
            best = val
            argmin = [a]
        elif val == best:
            argmin.append(a)
        a += 1
    return best, frozenset(argmin)


def select_a_star(n: int, ell: int) -> int:
    """The clique size the W construction attaches: 3 when possible.

    Always an argmin of sat_formula; for ell = 5 the admissible window
    [3, max(3, ell-3)] pins it to 3.
    """
    if ell < 5 or n <= ell:
        raise ValueError(f"select_a_star needs ell >= 5 and n > ell, got ({n}, {ell})")
    _, argmin = sat_formula(n, ell)
    window = [a for a in sorted(argmin) if 3 <= a <= max(3, ell - 3)]
    if not window:
        raise InternalError(f"no argmin of sat_formula({n}, {ell}) in the admissible window")
    return 3 if 3 in window else window[0]


def ex_formula(n: int, ell: int):
    """Extremal number, with an exactness flag.

    For ell <= 4 the value floor((ell-1)n/3) is exact; for ell >= 5 it
    is C(ell,3) n / ell, exact exactly when ell divides n.
    """
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    if ell <= 4:
        return ((ell - 1) * n) // 3, "exact"
    if n % ell == 0:
        return comb(ell, 3) * n // ell, "exact"
    return comb(ell, 3) * n // ell, "bound-only"


def _union_all(parts) -> Hypergraph3:
    """Disjoint union of many graphs in one pass, ids in block order."""
    edges = []
    offset = 0
    for g in parts:
        for a, b, c in g.edges:
            edges.append((a + offset, b + offset, c + offset))
        offset += g.vertex_count
    return Hypergraph3(offset, tuple(sorted(edges)))


def build_W(n, ell, k, a, i, seed=0, max_tries=10_000_000) -> Hypergraph3:
    """The core lower-range graph on n vertices.

    A sampled linear graph on n - a vertices realizing d(n-a, ell, k),
    k five-lanterns overlaid on its degree-(ell-5) blocks, a clique on
    the last a ids, a patch edge lifting the degree-(ell-2) vertices,
    and i in {0, 1, 2} edge surgeries through the clique.  Edge count:
    ceil((ell-1)(n-a)/3) + C(a,3) + 3k + i.
    """
    if not 0 <= i <= 2:
        raise ValueError(f"i must be 0, 1, or 2, got {i}")
    if not 3 <= a <= max(3, ell - 3):
        raise ValueError(f"a = {a} outside [3, max(3, ell-3)] for ell = {ell}")
    spec = confmodel.degree_spec(n - a, ell, k)
    g, _ = confmodel.sample_linear(n - a, ell, k, seed=seed, max_tries=max_tries,
                                   require_pair=i > 0)
    edges = list(g.edges)

    lantern5 = gadgets.lantern(5)
    for j in range(k):
        base = 15 * j
        for x, y, z in lantern5.edges:
            edges.append((x + base, y + base, z + base))

    cl = [n - a + j for j in range(a)]
    edges.extend(combinations(cl, 3))

    if spec.t:
        d0 = 15 * k
        if spec.t == 1:
            edges.append(tuple(sorted((d0, cl[0], cl[1]))))
        else:
            edges.append(tuple(sorted((d0, d0 + 1, cl[0]))))

    if i:
        e1, e2 = confmodel.find_disjoint_edge_pair(g, spec)
        if i == 1:
            edges.remove(e1)
            edges.remove(e2)
            for p, q, anchor in zip(e1, e2, cl[:3]):
                edges.append(tuple(sorted((p, q, anchor))))
        else:
            edges.remove(e1)
            anchors = [(cl[0], cl[1]), (cl[1], cl[2]), (cl[0], cl[2])]
            for p, (u, v) in zip(e1, anchors):
                edges.append(tuple(sorted((p, u, v))))

    return make(n, edges)


def build_H1(n0, ell, seed=0, max_tries=10_000_000) -> Hypergraph3:
    """H block with three lantern overlays; (ell-1)n0/3 + 9 edges."""
    if n0 % (3 * ell):
        raise ValueError(f"n0 = {n0} not a multiple of 3*ell = {3 * ell}")
    g, _ = confmodel.sample_linear(n0, ell, 3, seed=seed, max_tries=max_tries,
                                   require_pair=False)
    edges = list(g.edges)
    lantern5 = gadgets.lantern(5)
    for j in range(3):
        base = 15 * j
        for x, y, z in lantern5.edges:
            edges.append((x + base, y + base, z + base))
    return make(n0, edges)


def build_H2(n0, ell, seed=0, max_tries=10_000_000) -> Hypergraph3:
    """H block with three 5-clique overlays; one edge more than H1."""
    if n0 % (3 * ell):
        raise ValueError(f"n0 = {n0} not a multiple of 3*ell = {3 * ell}")
    g, _ = confmodel.sample_linear(n0, ell, 1, seed=seed, max_tries=max_tries,
                                   require_pair=False)
    edges = list(g.edges)
    for j in range(3):
        base = 5 * j
        edges.extend(combinations(range(base, base + 5), 3))
    return make(n0, edges)


def alpha_constant(ell: int) -> int:
    """(2 ell - 4) C(ell,3) - ell (ell-1)(ell-3): the edge cost of one
    sun swap in the upper construction."""
    return (2 * ell - 4) * comb(ell, 3) - ell * (ell - 1) * (ell - 3)


def build_U(n, n0, ell, s, i, seed=0, max_tries=10_000_000) -> Hypergraph3:
    """The upper-range union: K_r + i H2 + (alpha - i) H1 + s*ell suns
    + beta ell-cliques.  Each i-step adds one edge; each s-step removes
    alpha edges."""
    alpha = alpha_constant(ell)
    if not 0 <= i <= alpha:
        raise ValueError(f"i = {i} outside [0, alpha = {alpha}]")
    r = n % ell
    rest = n - r - alpha * n0 - s * (2 * ell - 4) * ell
    if s < 0 or rest < 0 or rest % ell:
        raise ValueError(f"no valid beta for (n={n}, n0={n0}, ell={ell}, s={s})")
    beta = rest // ell
    h1 = build_H1(n0, ell, seed=seed, max_tries=max_tries)
    h2 = build_H2(n0, ell, seed=seed, max_tries=max_tries)
    parts = [gadgets.clique3(r)]
    parts.extend([h2] * i)
    parts.extend([h1] * (alpha - i))
    sun = gadgets.sun(ell)
    parts.extend([sun] * (s * ell))
    parts.extend([gadgets.clique3(ell)] * beta)
    return _union_all(parts)


def plan_lower(n, ell, m) -> Verdict:
    """Decompose m as C(ell,3) c + sat(n - c ell) + 3k + i with the
    largest admissible number of split-off cliques c."""
    if ell < 5 or n <= ell:
        return Verdict(UNSUPPORTED, f"lower planner needs ell >= 5 and n > ell, got ({n}, {ell})")
    sat, _ = sat_formula(n, ell)
    if m < sat:
        return Verdict(BELOW_SAT, f"m = {m} below the saturation number {sat}")
    if 12 * m > ell * (ell - 1) * n:
        return Verdict(
            OUT_OF_RANGE,
            f"m = {m} above the lower-range cap ell(ell-1)n/12 = {ell * (ell - 1) * n / 12:g}",
        )
    chosen = None
    c = 0
    while n - c * ell > ell:
        s = m - comb(ell, 3) * c - sat_formula(n - c * ell, ell)[0]
        if s < 0:
            break
        chosen = (c, s)
        c += 1
    if chosen is None:
        return Verdict(UNSUPPORTED, f"no clique split covers m = {m} at n = {n}")
    c, s = chosen
    if s >= comb(ell, 3):
        return Verdict(UNSUPPORTED, f"residue s = {s} at c = {c} exceeds C(ell,3) - 1")
    k, i = divmod(s, 3)
    a_star = select_a_star(n - c * ell, ell)
    if 15 * k > n - c * ell - a_star:
        return Verdict(
            UNSUPPORTED,
            f"k = {k} lantern blocks do not fit on {n - c * ell - a_star} core vertices",
        )
    plan = LowerPlan(n, ell, m, c, a_star, k, i, s)
    return Verdict(OK, f"core graph with {k} lanterns and {i} surgeries plus {c} cliques", plan)


def build_lower(plan: LowerPlan, seed=0, max_tries=10_000_000) -> Hypergraph3:
    w = build_W(plan.n - plan.c * plan.ell, plan.ell, plan.k, plan.a_star, plan.i,
                seed=seed, max_tries=max_tries)
    parts = [w] + [gadgets.clique3(plan.ell)] * plan.c
    return _union_all(parts)


def default_n0(ell: int) -> int:
    """Smallest multiple of 3 ell accommodating three lantern blocks."""
    base = 45 + 3 * ell
    step = 3 * ell
    return ((base + step - 1) // step) * step


def upper_gap(ell: int, n0: int) -> int:
    """Width of the window below the extremal number that the upper
    construction cannot reach: alpha (C(ell,3) n0 / ell - (ell-1) n0 / 3 - 9)."""
    alpha = alpha_constant(ell)
    return alpha * (comb(ell, 3) * n0 // ell - (ell - 1) * n0 // 3 - 9)


def plan_upper(n, ell, m, n0: Optional[int] = None) -> Verdict:
    """Fit m as |E(U(n, n0, ell, 0, 0))| - a alpha + b."""
    if ell < 5:
        return Verdict(UNSUPPORTED, f"upper planner needs ell >= 5, got {ell}")
    if n0 is None:
        n0 = default_n0(ell)
    if n0 % (3 * ell):
        return Verdict(UNSUPPORTED, f"n0 = {n0} not a multiple of 3*ell")
    alpha = alpha_constant(ell)
    r = n % ell
    rest = n - r - alpha * n0
    if rest < 0 or rest % ell:
        return Verdict(UNSUPPORTED, f"n = {n} too small for {alpha} H blocks of {n0} vertices")
    beta0 = rest // ell
    base_edges = (
        alpha * ((ell - 1) * n0 // 3 + 9)
        + beta0 * comb(ell, 3)
        + comb(r, 3)
    )
    m_star = base_edges - m
    if m_star < 0:
        return Verdict(
            OUT_OF_RANGE,
            f"m = {m} exceeds the construction maximum {base_edges} "
            f"(the window of width {upper_gap(ell, n0)} below the extremal number is open)",
        )
    a = -(-m_star // alpha)
    b = a * alpha - m_star
    beta = beta0 - a * (2 * ell - 4)
    if beta < 0:
        return Verdict(OUT_OF_RANGE, f"m = {m} needs {a} sun swaps but only {beta0 // (2 * ell - 4)} fit")
    plan = UpperPlan(n, n0, ell, m, alpha, r, a, b, beta)
    return Verdict(OK, f"H-block union with {a} sun swaps and {b} block upgrades", plan)


def build_upper(plan: UpperPlan, seed=0, max_tries=10_000_000) -> Hypergraph3:
    return build_U(plan.n, plan.n0, plan.ell, plan.a, plan.b,
                   seed=seed, max_tries=max_tries)


def plan_exact5(n, m) -> Verdict:
    """The exact mixture cases for ell = 5 with 5 | n."""
    if n % 5:
        return Verdict(UNSUPPORTED, f"exact planner needs 5 | n, got n = {n}")
    if m > 2 * n:
        return Verdict(OUT_OF_RANGE, f"m = {m} above the extremal number {2 * n}")
    if m == 2 * n:
        return Verdict(OK, "disjoint 5-cliques", Exact5Plan(n, m, 0, 0, 0))
    if m > 2 * n - 5:
        return Verdict(
            BY_THEOREM,
            f"no saturated graph on {n} vertices has {m} edges: "
            f"deficits 1 through 4 below the extremal number are unrealizable",
        )
    if 3 * m < 5 * n:
        return Verdict(OUT_OF_RANGE, f"m = {m} below the exact-range floor 5n/3")
    m_star = 2 * n - m
    a, b = divmod(m_star, 7)
    sizes = {0: 0, 1: 10, 2: 15, 3: 20, 4: 20, 5: 10, 6: 10}
    lanterns = a if b in (0, 5, 6) else a - 1
    used = sizes[b] + 15 * lanterns
    if used > n:
        return Verdict(UNSUPPORTED, f"mixture for m* = {m_star} needs {used} vertices, n = {n}")
    plan = Exact5Plan(n, m, m_star, a, b)
    return Verdict(OK, f"mixture case b = {b} with {lanterns} lanterns", plan)


def build_exact5(plan: Exact5Plan, seed=0) -> Hypergraph3:
    b = plan.b
    parts = []
    if b in (1, 2, 3, 4):
        lanterns = plan.a - 1
        if b == 1:
            parts += [gadgets.sun(5), gadgets.clique3(4)]
        elif b == 2:
            parts += [gadgets.gadget_R()]
        elif b == 3:
            parts += [gadgets.broken_lantern(), gadgets.broken_lantern()]
        else:
            parts += [gadgets.gadget_Q()]
    else:
        lanterns = plan.a
        if b == 5:
            parts += [gadgets.broken_lantern()]
        elif b == 6:
            parts += [gadgets.gadget_D()]
    parts += [gadgets.lantern(5)] * lanterns
    used = sum(g.vertex_count for g in parts)
    beta, rem = divmod(plan.n - used, 5)
    if rem or beta < 0:
        raise InternalError(f"vertex accounting failed for {plan}")
    parts += [gadgets.clique3(5)] * beta
    return _union_all(parts)


def small_star_spectrum(n: int, ell: int) -> dict:
    """Complete witness map {m: graph} for ell <= 4.

    ell = 1: the empty graph only.  ell = 2: a maximum matching.
    ell = 3: the extremal value and, when n is not 1 mod 3, one below.
    ell = 4: {n-2, n-1, n} via tight cycles and the sparse split.
    """
    if not 1 <= ell <= 4:
        raise ValueError(f"small-star spectrum needs 1 <= ell <= 4, got {ell}")
    if ell == 1:
        return {0: make(n, [])}
    if ell == 2:
        edges = [(3 * j, 3 * j + 1, 3 * j + 2) for j in range(n // 3)]
        return {n // 3: make(n, edges)}
    if ell == 3:
        out = {}
        ex = (2 * n) // 3
        if n % 3 == 0:
            out[ex] = _wrap_cycle(n)
            out[ex - 1] = _union_pad(_wrap_cycle(n - 3), n, [(n - 3, n - 2, n - 1)])
        elif n % 3 == 1:
            out[ex] = _union_pad(_wrap_cycle(n - 1), n, [])
        else:
            out[ex] = _union_pad(_wrap_cycle(n - 5), n, _five_piece(n - 5))
            out[ex - 1] = _union_pad(_wrap_cycle(n - 2), n, [])
        return out
    out = {n - 2: _union_pad(_tight_cycle(n - 2), n, []),
           n - 1: gadgets.l4_sparse(n),
           n: _tight_cycle(n)}
    return out


def _wrap_cycle(q: int) -> Hypergraph3:
    """Two overlapping triple layers on q vertices (3 | q, q >= 6); every
    vertex ends with Berge degree exactly 2."""
    if q % 3 or q < 6:
        raise ValueError(f"wrap cycle needs 3 | q and q >= 6, got {q}")
    edges = [(3 * j, 3 * j + 1, 3 * j + 2) for j in range(q // 3)]
    for j in range(q // 3):
        edges.append(tuple(sorted(((3 * j + 1), (3 * j + 2), (3 * j + 3) % q))))
    return make(q, edges)


def _tight_cycle(q: int) -> Hypergraph3:
    if q < 4:
        raise ValueError(f"tight cycle needs q >= 4, got {q}")
    edges = {tuple(sorted((j, (j + 1) % q, (j + 2) % q))) for j in range(q)}
    return make(q, edges)


def _five_piece(base: int):
    """Five extra vertices carrying three edges, degrees (2,2,2,2,1)."""
    a, b, c, d, e = range(base, base + 5)
    return [(a, b, c), (c, d, e), (a, b, d)]


def _union_pad(g: Hypergraph3, n: int, extra_edges) -> Hypergraph3:
    """g placed on the first ids of [0, n) plus literal extra edges."""
    edges = list(g.edges) + [tuple(sorted(e)) for e in extra_edges]
    return make(n, edges)


def build_spectrum_witness(n, ell, m, seed=0, n0=None, max_tries=10_000_000):
    """Dispatch: returns (Verdict, graph or None).

    Small ell goes through the complete spectra; ell >= 5 routes m to
    the lower planner up to ell(ell-1)n/12, then to the exact mixtures
    when ell = 5 and 5 | n, otherwise to the H-block upper planner.
    """
    if n < 1 or ell < 1:
        raise ValueError(f"need n >= 1 and ell >= 1, got ({n}, {ell})")
    if m < 0:
        raise ValueError(f"negative m = {m}")
    if ell <= 4:
        table = small_star_spectrum(n, ell)
        if m in table:
            return Verdict(OK, f"complete small-star spectrum, ell = {ell}"), table[m]
        lo, hi = min(table), max(table)
        if m > hi:
            return Verdict(OUT_OF_RANGE, f"m = {m} above the extremal number {hi}"), None
        return Verdict(
            BY_THEOREM,
            f"the spectrum for ell = {ell} is exactly {sorted(table)} around [{lo}, {hi}]",
        ), None
    sat, _ = sat_formula(n, ell)
    if m < sat:
        return Verdict(BELOW_SAT, f"m = {m} below the saturation number {sat}"), None
    exact5_zone = ell == 5 and n % 5 == 0 and 3 * m >= 5 * n
    if 12 * m <= ell * (ell - 1) * n and not exact5_zone:
        verdict = plan_lower(n, ell, m)
        if not verdict.feasible:
            return verdict, None
        return verdict, build_lower(verdict.plan, seed=seed, max_tries=max_tries)
    if ell == 5 and n % 5 == 0:
        verdict = plan_exact5(n, m)
        if not verdict.feasible:
            return verdict, None
        return verdict, build_exact5(verdict.plan, seed=seed)
    verdict = plan_upper(n, ell, m, n0=n0)
    if not verdict.feasible:
        return verdict, None
    return verdict, build_upper(verdict.plan, seed=seed, max_tries=max_tries)
