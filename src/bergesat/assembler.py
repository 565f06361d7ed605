"""Planners and builders for saturated graphs with prescribed size.

Every plan is a tuple of runs (`Block`, copies >= 1), no two
neighbouring runs on one block, whose copies' disjoint union is the
witness.  plan_witness is the one planner for every (n, ell, m) and
builds nothing; build_spectrum_witness builds each run's block once,
glues the copies in order with hypercore.disjoint_union, and the checker
re-verifies every witness.  The union rule composes the blocks: call v
full when d_B(v) = ell - 1; a disjoint union of saturated free blocks is
saturated iff its non-full vertices lie in one block or number at most
2, since by the pair-insertion rule a triple across blocks lifts exactly
when one of its vertices is full.  A plan that breaks the rule or does
not fill n vertices with m edges is an InternalError.  Three branches:

- closed form, ell <= 4 or n <= ell: a table from m to the construction
  (and the vertices it needs); any other m below its top is infeasible.
- composed unions, ell = 5 with 5 | n from 5n/3 up, and m = ex when
  ell | n: compose sets fixed blocks, the rows of _BESIDE, beside
  ell-cliques.  A block's share C(ell,3) N - ell e is 0 for K_ell, and a
  union's shares sum to C(ell,3) n - ell m; compose takes the fewest
  units that leave a multiple of the repeating first row's share, so a
  new block joins as a row, not as a branch.  At ell = 5 that is every m
  up to 2n - 5 and 2n; 2n-4 .. 2n-1 are provably unrealizable.
- clique split, every other m from sat to ex: a core W (a sampled
  near-regular linear graph with lantern overlays, an attached clique
  and up to two edge surgeries), then disjoint ell-cliques, accepted
  only when confmodel.degree_spec accepts the core; proved up to
  ell(ell-1)n/12, and vouched for by certification alone above that.
"""

from functools import lru_cache, partial
from itertools import chain, combinations, combinations_with_replacement, groupby
from math import comb
from typing import NamedTuple

from .hypercore import DEFAULT_MAX_TRIES, Hypergraph3, InternalError, disjoint_union, make
from . import confmodel, gadgets

OK = "ok"
BELOW_SAT = "infeasible_below_sat"
BY_THEOREM = "infeasible_by_theorem"
OUT_OF_RANGE = "out_of_range"
UNSUPPORTED = "unsupported"

# the most values of m spectrum_runs plans one by one
MAX_PLANNED = 2**17


class Verdict(NamedTuple):
    """Outcome of planning: a status, a human-readable detail line, the
    plan, a tuple of (block, copies) runs, when status is "ok", and the
    run, the (status, rule) pair under which spectrum_runs groups this m."""

    status: str
    detail: str
    plan: tuple = None
    run: tuple = None

    @property
    def feasible(self) -> bool:
        return self.status == OK


class Block(NamedTuple):
    """One saturated free piece of a witness at the plan's ell.

    nonfull counts the vertices with d_B < ell - 1, exactly for every block
    but the sampled core W, where it is W's vertex count, an upper bound.
    build(seed=, max_tries=) makes the graph on ids 0..vertices-1.
    """

    name: str
    vertices: int
    edges: int
    nonfull: int
    build: object


def union_saturated(nonfull) -> bool:
    """The union rule on the non-full counts of saturated free blocks."""
    spread = [k for k in nonfull if k]
    return len(spread) <= 1 or sum(spread) <= 2


@lru_cache(maxsize=1 << 8)
def _clique(s, ell) -> Block:
    """K_s^(3), whose vertices have Berge degree min(C(s-1, 2), s-1).
    One Block per (s, ell), so every plan that holds K_s holds the same one."""
    degree = min(comb(s - 1, 2), s - 1) if s else 0
    return Block(f"K_{s}", s, comb(s, 3), 0 if degree == ell - 1 else s,
                 lambda **_: gadgets.clique3(s))


# spectrum_runs' bisections ask for the same few values again and again
@lru_cache(maxsize=1 << 12)
def sat_formula(n: int, ell: int):
    """Saturation number and its argmin set.

    Minimizes ceil((ell-1)(n-a)/3) + C(a,3) over integers a >= 1 with
    C(a-1,2) <= ell-2.  Returns (value, frozenset of minimizing a).
    For n <= ell, K_n^(3) is the only saturated graph: (C(n,3), {n}).
    """
    if ell < 2:
        raise ValueError(f"sat_formula needs ell >= 2, got {ell}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n <= ell:
        return comb(n, 3), frozenset({n})
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
    """The clique size the W construction attaches: the least argmin of
    sat_formula from 3 up.  For ell >= 5, a = 3 is admissible and costs
    no more than a = 1 or 2, so one always exists."""
    if ell < 5 or n <= ell:
        raise ValueError(f"select_a_star needs ell >= 5 and n > ell, got ({n}, {ell})")
    return min(a for a in sat_formula(n, ell)[1] if a >= 3)


def ex_formula(n: int, ell: int):
    """Extremal number, with an exactness flag.

    For n <= ell it is C(n,3), from the only saturated graph K_n^(3).
    Otherwise, for ell <= 4 the value floor((ell-1)n/3) is exact; for
    ell >= 5 it is C(ell,3) n / ell, exact exactly when ell divides n.
    """
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    if n <= ell:
        return comb(n, 3), "exact"
    if ell <= 4:
        return ((ell - 1) * n) // 3, "exact"
    if n % ell == 0:
        return comb(ell, 3) * n // ell, "exact"
    return comb(ell, 3) * n // ell, "bound-only"


def build_W(n, ell, k, i, seed=0, max_tries=DEFAULT_MAX_TRIES) -> Hypergraph3:
    """The core lower-range graph on n vertices.

    A sampled linear graph on n - a vertices realizing d(n-a, ell, k),
    k five-lanterns overlaid on its degree-(ell-5) blocks, a clique on
    the last a = select_a_star(n, ell) ids, a patch edge lifting the
    degree-(ell-2) vertices, and i in {0, 1, 2} edge surgeries through
    the clique.  Edge count: ceil((ell-1)(n-a)/3) + C(a,3) + 3k + i.
    """
    if not 0 <= i <= 2:
        raise ValueError(f"i must be 0, 1, or 2, got {i}")
    a = select_a_star(n, ell)
    spec = confmodel.degree_spec(n - a, ell, k)
    g, _, pair = confmodel.sample_linear(n - a, ell, k, seed=seed, max_tries=max_tries,
                                         require_pair=i > 0)
    edges = list(g.edges + disjoint_union(*[gadgets.lantern(5)] * k).edges) if k else list(g.edges)

    cl = [n - a + j for j in range(a)]
    edges.extend(combinations(cl, 3))

    if spec.t:
        d0 = 15 * k
        if spec.t == 1:
            edges.append(tuple(sorted((d0, cl[0], cl[1]))))
        else:
            edges.append(tuple(sorted((d0, d0 + 1, cl[0]))))

    if i:
        e1, e2 = pair
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


def _largest_split(n, ell, m):
    """Largest c with n - c ell > ell and s(c) = m - C(ell,3) c
    - sat(n - c ell) >= 0, and s(c); needs m >= sat(n), so s(0) >= 0.

    sat rises by at most ceil(ell(ell-1)/3) < C(ell,3) per ell vertices,
    so s falls strictly as c grows and bisection finds the largest c.
    """
    def residue(c):
        return m - comb(ell, 3) * c - sat_formula(n - c * ell, ell)[0]

    lo, hi = 0, (n - ell - 1) // ell
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if residue(mid) >= 0:
            lo = mid
        else:
            hi = mid - 1
    return lo, residue(lo)


_NO_SPLIT = ("unsupported", "no clique split with an admissible residue and core degree spec; "
             "exit 7")


def plan_lower(n, ell, m) -> Verdict:
    """Decompose m as C(ell,3) c + sat(n - c ell) + 3k + i with the
    largest number of split-off cliques c: the core W, then c copies of
    K_ell^(3).  Needs ell >= 5, n > ell and m in [sat, ex], which
    plan_witness checks first.

    The plan stands only when confmodel.degree_spec accepts the core
    sequence d(n - c ell - a, ell, k); its refusal is the verdict, and
    confmodel.refusal names the run of a core no sampler can realize.
    """
    c, s = _largest_split(n, ell, m)
    if s >= comb(ell, 3):
        return Verdict(UNSUPPORTED, f"residue s = {s} at c = {c} exceeds C(ell,3) - 1",
                       run=_NO_SPLIT)
    k, i = divmod(s, 3)
    core = n - c * ell
    try:
        spec = confmodel.degree_spec(core - select_a_star(core, ell), ell, k)
    except ValueError as exc:
        return Verdict(UNSUPPORTED, f"core spec at c = {c}, k = {k} refused: {exc}", run=_NO_SPLIT)
    w = Block("W", core, m - comb(ell, 3) * c, core, partial(build_W, core, ell, k, i))
    if confmodel.refusal(spec, i > 0) is None:
        run = ("feasible", "clique-split lower-range plan; past ell(ell-1)n/12 each witness "
                           "is vouched for by certification only")
    else:
        run = ("sampler-refused", "clique-split plan whose core degree spec no simple linear "
               "3-graph realizes (too few active vertices or edges, or more edges than a "
               "linear 3-graph on its active vertices holds); exit 5")
    return Verdict(OK, f"core graph with {k} lanterns and {i} surgeries plus {c} cliques",
                   ((w, 1),) + (((_clique(ell, ell), c),) if c else ()), run)


# perfbench/tracer.py wraps the planners by name, this one included; the
# alias goes when the tracer stops naming it
plan_upper = plan_lower


# the fixed blocks compose sets beside ell-cliques, by ell: the first row,
# all full, repeats, and the others join at most twice; a block joins as a row.
# Each build, like W's, takes seed= and max_tries= and looks its gadget up when called
_BESIDE = {5: (
    Block("lantern", 15, 23, 0, lambda **_: gadgets.lantern(5)),
    Block("sun", 6, 8, 0, lambda **_: gadgets.sun(5)),
    _clique(4, 5),
    Block("R", 15, 21, 2, lambda **_: gadgets.gadget_R()),
    Block("broken lantern", 10, 15, 1, lambda **_: gadgets.broken_lantern()),
    Block("Q", 20, 29, 2, lambda **_: gadgets.gadget_Q()),
    Block("D", 10, 14, 2, lambda **_: gadgets.gadget_D()),
)}


def compose(n, ell, m):
    """The verdict for a union of _BESIDE[ell] blocks and ell-cliques on n
    vertices with m edges, or None.  The units are the fewest rows past
    the first, at most two and first in row order, whose shares leave a
    non-negative multiple of the first row's, that fit in n with a
    multiple of ell vertices left and keep the union rule; the plan is
    the units, copies of the first row, then cliques, each as a run."""
    clique = _clique(ell, ell)
    # with no rows K_ell heads alone, and its share 0 admits cliques only
    head, *rows = _BESIDE.get(ell) or (clique,)
    share = {b: comb(ell, 3) * b.vertices - ell * b.edges for b in (head, *rows)}
    for units in chain.from_iterable(combinations_with_replacement(rows, k) for k in range(3)):
        rest = comb(ell, 3) * n - ell * m - sum(map(share.get, units))
        copies, off = divmod(rest, share[head]) if share[head] else (0, rest)
        c, left = divmod(n - sum(b.vertices for b in units) - copies * head.vertices, ell)
        if copies < 0 or c < 0 or off or left or not union_saturated([b.nonfull for b in units]):
            continue
        counts = tuple((b, k) for b, k in ((head, copies), (clique, c)) if k)
        detail = " + ".join([b.name for b in units] + [f"{k} x {b.name}" for b, k in counts])
        run = "exact-fifth-zone gadget unions" if units or copies else "disjoint ell-cliques"
        plan = tuple((b, len(list(same))) for b, same in groupby(units)) + counts
        return Verdict(OK, detail, plan, ("feasible", run))
    return None


def plan_exact5(n, m) -> Verdict:
    """ell = 5 with 5 | n and m in [5n/3, 2n], which plan_witness checks
    first: 2n-4 .. 2n-1 are unrealizable, and compose plans every other m,
    since the units of a deficit 2n - m <= n/3 fit in n vertices."""
    if 2 * n - 5 < m < 2 * n:
        return Verdict(BY_THEOREM, f"no saturated graph on {n} vertices has {m} edges: deficits "
                       f"1 through 4 below the extremal number are unrealizable",
                       run=("infeasible", "clique-count gap just under the maximum"))
    return compose(n, 5, m)


def _wrap_cycle(q) -> Block:
    """Two overlapping triple layers on q vertices (3 | q, q >= 6); every
    vertex ends with Berge degree exactly 2."""
    return Block("wrap cycle", q, 2 * (q // 3), 0, lambda **_: make(q, [
        t for j in range(0, q, 3) for t in ((j, j + 1, j + 2), (j + 1, j + 2, (j + 3) % q))]))


def _tight_cycle(q) -> Block:
    """The q triples of cyclically consecutive vertices; every d_B is 3."""
    return Block("tight cycle", q, q, 0, lambda **_: make(
        q, {tuple(sorted((j, (j + 1) % q, (j + 2) % q))) for j in range(q)}))


# ell = 3 by n mod 3: (ex - m, the block beside the wrap cycle, its name)
_WRAP_ROWS = {
    0: ((0, _clique(0, 3), ""), (1, _clique(3, 3), " and a disjoint triple")),
    1: ((0, _clique(1, 3), " and an isolated vertex"),),
    2: ((0, Block("three edges on five vertices", 5, 3, 1, lambda **_: make(
            5, [(0, 1, 2), (2, 3, 4), (0, 1, 3)])), " and three edges on five vertices"),
        (1, _clique(2, 3), " and two isolated vertices")),
}


def _closed_form(n, ell):
    """{m: (vertices the construction needs, its name, its plan)} for
    n <= ell, where no Berge degree can reach ell and K_n^(3) is the only
    saturated graph, and for ell <= 4; None otherwise."""
    if n < 1 or ell < 1:
        raise ValueError(f"need n >= 1 and ell >= 1, got ({n}, {ell})")
    if n <= ell:
        return {comb(n, 3): (n, "the complete 3-graph, the only saturated graph when n <= ell",
                             ((_clique(n, ell), 1),))}
    if ell == 1:
        return {0: (1, "the empty graph",
                    ((Block("empty graph", n, 0, 0, lambda **_: make(n, [])), 1),))}
    if ell == 2:
        return {n // 3: (3, "a maximum matching",
                         ((_clique(3, 2), n // 3), (_clique(n % 3, 2), 1)))}
    if ell == 3:
        return {2 * n // 3 - d: (6 + b.vertices, "a wrap cycle" + what,
                                 ((_wrap_cycle(n - b.vertices), 1), (b, 1)))
                for d, b, what in _WRAP_ROWS[n % 3]}
    if ell == 4:
        sparse = Block("sparse split", n, n - 1, 2, lambda **_: gadgets.l4_sparse(n))
        return {n - 2: (6, "a tight cycle and two isolated vertices",
                        ((_tight_cycle(n - 2), 1), (_clique(2, 4), 1))),
                n - 1: (9, "the sparse split of a 3-regular linear graph", ((sparse, 1),)),
                n: (4, "a tight cycle", ((_tight_cycle(n), 1),))}
    return None


def plan_witness(n, ell, m) -> Verdict:
    """The one planner for every (n, ell, m), building nothing: the
    closed-form table for ell <= 4 and n <= ell, else a gate on m in
    [sat, ex], then the exact mixtures in the ell = 5, 5 | n zone from
    5n/3 up, the cliques alone at m = ex with ell | n, or the clique
    split.  Every verdict names its run; an ok plan is checked against
    n, m and the union rule."""
    table = _closed_form(n, ell)
    top = ex_formula(n, ell)[0]
    if m > top:
        detail = f"m = {m} above the extremal number {top}"
        return Verdict(OUT_OF_RANGE, detail, run=("out-of-range", detail))
    if table is None:
        sat, _ = sat_formula(n, ell)
        if m < sat:
            return Verdict(BELOW_SAT, f"m = {m} below the saturation number {sat}",
                           run=("infeasible", "below the saturation minimum"))
        if ell == 5 and n % 5 == 0 and 3 * m >= 5 * n:
            verdict = plan_exact5(n, m)
        elif m == top and n % ell == 0:
            verdict = compose(n, ell, m)
        else:
            verdict = plan_lower(n, ell, m)
    elif m in table:
        need, name, plan = table[m]
        if need > n:
            detail = f"{name} needs n >= {need}, got n = {n}"
            return Verdict(UNSUPPORTED, detail, run=("unsupported", detail))
        # an empty block (K_0 beside a matching or wrap cycle on all n) adds nothing
        verdict = Verdict(OK, name, tuple(r for r in plan if r[0].vertices), ("feasible", name))
    else:
        detail = f"the spectrum for ell = {ell} on {n} vertices is in {sorted(table)}"
        return Verdict(BY_THEOREM, detail, run=("infeasible", detail))
    if verdict.feasible:
        plan = verdict.plan
        size = (sum(k * b.vertices for b, k in plan), sum(k * b.edges for b, k in plan))
        nonfull = [b.nonfull for b, k in plan if b.nonfull for _ in range(k)]
        if size != (n, m) or not union_saturated(nonfull):
            raise InternalError(f"the blocks planned for {(n, ell, m)} have (vertices, "
                                f"edges) = {size} and non-full counts {nonfull}")
    return verdict


def build_spectrum_witness(n, ell, m, seed=0, max_tries=DEFAULT_MAX_TRIES):
    """(plan_witness's verdict, the union of its blocks or None).  A block
    built with other (vertices, edges) than planned is an InternalError."""
    if m < 0:
        raise ValueError(f"negative m = {m}")
    if max_tries < 1:
        raise ValueError(f"max_tries must be >= 1, got {max_tries}")
    verdict = plan_witness(n, ell, m)
    if not verdict.feasible:
        return verdict, None
    # the block of each run is built once: the c cliques of a split share one graph
    built = {b: b.build(seed=seed, max_tries=max_tries) for b, _ in verdict.plan}
    for b, h in built.items():
        if (h.vertex_count, len(h.edges)) != (b.vertices, b.edges):
            raise InternalError(f"block {b.name} was built with {h.vertex_count} vertices "
                                f"and {len(h.edges)} edges, not {b.vertices} and {b.edges}")
    return verdict, disjoint_union(*chain.from_iterable([built[b]] * k for b, k in verdict.plan))


def spectrum_runs(n, ell):
    """Maximal runs of m in [0, hi] sharing the run plan_witness names,
    planning m = 0 and each m from lo to hi + 1; lo is the least
    closed-form m, else sat, and hi is ex, the largest closed-form m
    too.  Below lo one verdict stands for the whole run."""
    table = _closed_form(n, ell)
    lo = min(table) if table else sat_formula(n, ell)[0]
    hi = ex_formula(n, ell)[0]
    if hi - lo + 1 > MAX_PLANNED:
        raise ValueError(f"({n}, {ell}) has {hi - lo + 1} values of m from sat to ex, "
                         f"above the planning limit {MAX_PLANNED}")
    bounds = [0, *range(max(lo, 1), hi + 2)]
    runs = []
    for m, nxt in zip(bounds, bounds[1:]):
        status, rule = plan_witness(n, ell, m).run
        if runs and (runs[-1]["status"], runs[-1]["rule"]) == (status, rule):
            runs[-1]["hi"] = nxt - 1
        else:
            runs.append({"lo": m, "hi": nxt - 1, "status": status, "rule": rule})
    return runs
