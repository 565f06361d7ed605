"""Seeded generation of simple linear 3-graphs with prescribed degrees.

The target degree sequence d(n, ell, k) puts 15k vertices at degree
ell-5 (the lantern slots), t at degree ell-2 with t = n(ell-1) mod 3
(so the degree sum is divisible by 3), and the rest at degree ell-1.
A sample must be simple and linear (no loop, no two triples sharing a
pair), its low-degree vertices must be pairwise non-adjacent, and, when
asked, it must admit a disjoint pair of full-degree edges that no third
edge meets (the hook for the edge surgeries downstream).

sample_linear is the one acceptance loop: it refuses what counting
rules out, picks a route and takes its candidate realizations until one
carries the disjoint pair (when asked), counting the others as pair
rejects, and re-validates the accepted graph against the degree spec.
A route is a generator that keeps one SampleStats record up to date and
raises SamplerBudgetError when its budget runs out; only the search can
run out of candidates.

* Rejection (``rejection=True``, for diagnostics): a draw of the
  configuration model partitions the degree points into triples
  uniformly at random, and each draw without loops, overlapping pairs
  or low-low pairs is a candidate.  Defect counts per draw concentrate
  near lambda = ell - 2 loops and, in this implementation's
  measurements, about (ell-2)^2 overlapping pairs, twice the documented
  reference rate mu = (ell-2)^2 / 2 kept in SampleStats.  Acceptance is
  about 1e-6 at ell = 5 near n = 45 and about 1e-9 from ell = 6 on, so
  this route is kept for its calibrated defect rates, not for building.
* Hill-climbing (the default), after Stinson's algorithm for Steiner
  triple systems (Ann. Discrete Math. 26, 1985).  A vertex is live
  while its residual degree is positive.  Each move joins a random live
  vertex to two live partners it does not yet share a triple with; if
  the partners already share one, that triple is evicted.  Low-low
  pairs count as covered from the start and are never evicted.  Each
  finished graph is a candidate; to resume, a few random triples are
  evicted.  The result follows no known distribution; downstream
  verification never assumes uniformity.
* Exhaustive search, when at most 13 vertices have positive degree:
  such realizations are rigid packings or do not exist, a seeded
  backtracking search (recursion depth is the edge count, at most 26)
  yields them in turn, and running out of them proves the spec
  unrealizable, which the randomized routes cannot do.

Determinism: every route draws from one ``random.Random`` keyed by the
caller's seed, so results are reproducible across platforms for a fixed
Python.
"""

from itertools import chain, combinations
from math import comb
import random
from typing import NamedTuple

from .hypercore import DEFAULT_MAX_TRIES, Hypergraph3, InternalError, SamplerBudgetError

_PROGRESS_EVERY = 100_000
_PARTNER_DRAWS = 16
_PAIR_REJECT_EVICTIONS = 4


class DegreeSpec(NamedTuple):
    """Degree sequence d(n, ell, k) with the vertex-id layout of blocks fixed."""

    n: int
    ell: int
    k: int
    t: int

    @property
    def blocks(self) -> tuple:
        """(degree, size) in id order: 15k ids at ell-5, t at ell-2, the rest at ell-1."""
        low = 15 * self.k
        return ((self.ell - 5, low), (self.ell - 2, self.t), (self.ell - 1, self.n - low - self.t))

    def degree_array(self) -> list:
        return list(chain.from_iterable([d] * size for d, size in self.blocks))

    @property
    def active(self) -> int:
        """Vertices of positive degree."""
        return sum(size for d, size in self.blocks if d > 0)

    @property
    def edge_count(self) -> int:
        return sum(d * size for d, size in self.blocks) // 3


def degree_spec(n: int, ell: int, k: int) -> DegreeSpec:
    """Validate (n, ell, k) and derive t.

    ell = 4 is admitted only with k = 0, the all-degree-3 sequence that
    `sample-config --ell 4` draws (no plan samples it: the sparse split
    builds its base directly); the lantern machinery starts at ell = 5.
    """
    if n < 0:
        raise ValueError(f"negative n = {n}")
    if ell < 4 or (ell == 4 and k != 0):
        raise ValueError(f"unsupported (ell={ell}, k={k}); need ell >= 5, or ell = 4 with k = 0")
    if not 0 <= k <= comb(ell, 3):
        raise ValueError(f"k = {k} outside [0, C({ell},3) = {comb(ell, 3)}]")
    if 15 * k > n:
        raise ValueError(f"15k = {15 * k} exceeds n = {n}")
    t = (n * (ell - 1)) % 3
    if 15 * k + t > n:
        raise ValueError(f"degree blocks 15k + t = {15 * k + t} exceed n = {n}")
    spec = DegreeSpec(n, ell, k, t)
    # low vertices must end up pairwise non-adjacent, so each of the
    # 15k(ell-5) low incidences occupies a distinct edge
    if spec.edge_count < 15 * k * (ell - 5):
        raise ValueError(
            f"only {spec.edge_count} edges for {15 * k} pairwise non-adjacent "
            f"vertices of degree {ell - 5}; the sequence is unrealizable"
        )
    return spec


class SampleStats:
    """Diagnostics of one sample_linear run, updated as its route runs;
    vars() gives the fields in this order.

    expected_lambda and expected_mu are the documented per-draw defect
    rates (mu is the reference value; measured overlaps run about twice
    it, see the module docstring).  loops_seen, overlaps_seen and
    lowadj_seen total the defects of all draws inspected; pair_rejects
    counts candidates without an admissible disjoint pair.  repaired
    marks the hill-climbing route, repair_rounds counts its evicted
    triples.  tries counts draws (rejection), moves (hill-climbing) or
    search nodes (exhaustive search).
    """

    def __init__(self, expected_lambda=0.0, expected_mu=0.0):
        self.tries = 0
        self.loops_seen = 0
        self.overlaps_seen = 0
        self.expected_lambda = expected_lambda
        self.expected_mu = expected_mu
        self.lowadj_seen = 0
        self.pair_rejects = 0
        self.repaired = False
        self.repair_rounds = 0


def sample_linear(n, ell, k, seed=0, max_tries=DEFAULT_MAX_TRIES, rejection=False,
                  require_pair=True):
    """(g, stats, pair): a simple linear 3-graph g realizing d(n, ell, k),
    the run's SampleStats, and the disjoint pair that
    find_disjoint_edge_pair accepted g with (None without require_pair).
    A candidate for which the search returns None counts as a pair reject.

    Hill-climbing is the default route; rejection=True selects the
    clean rejection sampling the defect diagnostics are calibrated
    against; specs with at most 13 active vertices go to the exhaustive
    search either way.  require_pair=False waives the disjoint-pair
    guarantee, for builders without edge surgery: at small n it can be
    unsatisfiable where the degree sequence is not.  Deterministic in
    all arguments.  Raises SamplerBudgetError, carrying the stats, when
    refusal() proves the spec unrealizable (before any sampling), when
    max_tries runs out, and when the search runs out of realizations.
    """
    if max_tries < 1:
        raise ValueError(f"max_tries must be >= 1, got {max_tries}")
    spec = degree_spec(n, ell, k)
    stats = SampleStats(expected_lambda=float(ell - 2), expected_mu=(ell - 2) ** 2 / 2)
    reason = refusal(spec, require_pair)
    if reason is not None:
        raise SamplerBudgetError(reason, stats)
    if spec.active <= 13:
        route = _sample_dfs(spec, seed, max_tries, stats)
    elif rejection:
        route = _sample_reject(spec, seed, max_tries, stats)
    else:
        route = _sample_hill(spec, seed, max_tries, stats)
    pair = None
    for g in route:
        if not require_pair:
            _check_realizes(g, spec)
            break
        pair = find_disjoint_edge_pair(g, spec)  # checks g against the spec first
        if pair is not None:
            break
        stats.pair_rejects += 1
    else:
        raise SamplerBudgetError(
            f"exhaustive search: no simple linear realization of (n={n}, ell={ell}, k={k})"
            + (" with the disjoint-pair guarantee" if require_pair else ""),
            stats,
        )
    return g, stats, pair


def refusal(spec: DegreeSpec, require_pair=True):
    """Why no sample can exist, from counting alone, or None.

    Low vertices are pairwise non-adjacent, so each low incidence sits
    on its own edge and the disjoint pair needs two edges avoiding them.
    In a linear 3-graph a vertex of degree d has 2d distinct neighbours,
    all of positive degree.  The pair e1, e2 and the ell-2 other edges
    at each of their six full-degree vertices are all distinct (no third
    edge meets both), so the pair needs 6 ell - 10 edges.  A linear
    3-graph on v vertices has at most floor(v floor((v-1)/2) / 3) triples,
    one fewer when v = 5 (mod 6) (Schonheim's bound, exact by Spencer).
    """
    n, ell, k = spec.n, spec.ell, spec.k
    free_edges = spec.edge_count - 15 * k * (ell - 5)
    if require_pair and free_edges < 2:
        return (f"no disjoint full-degree edge pair is possible for (n={n}, ell={ell}, "
                f"k={k}): only {free_edges} of its {spec.edge_count} edges can avoid the "
                f"{15 * k} low-degree vertices")
    active = spec.active
    d_max = max((d for d, size in spec.blocks if d > 0 and size), default=0)
    head = f"no simple linear realization of (n={n}, ell={ell}, k={k})"
    if d_max and active < 2 * d_max + 1:
        return (f"{head}: a vertex of degree {d_max} needs {2 * d_max} neighbours "
                f"of positive degree, and only {active} vertices have any")
    if require_pair and spec.edge_count < 6 * ell - 10:
        return (f"{head} with the disjoint-pair guarantee: the pair and the edges at "
                f"its six vertices need {6 * ell - 10} edges, the spec has "
                f"{spec.edge_count}")
    most = active * ((active - 1) // 2) // 3 - (1 if active % 6 == 5 else 0)
    if spec.edge_count > most:
        return (f"{head}: a linear 3-graph on its {active} vertices of positive degree "
                f"has at most {most} triples, the spec has {spec.edge_count}")
    return None


def _sample_reject(spec, seed, max_tries, stats):
    """Clean configuration-model draws: each shuffles the degree points
    and cuts them into consecutive triples."""
    pts = list(chain.from_iterable([v] * d for v, d in enumerate(spec.degree_array())))
    if len(pts) % 3:
        raise InternalError("degree sum not divisible by 3")
    n, low = spec.n, 15 * spec.k
    rnd = random.Random(seed)
    for tries in range(1, max_tries + 1):
        rnd.shuffle(pts)
        cut = iter(pts)
        trip = [sorted(t) for t in zip(cut, cut, cut)]
        loops = sum(a == b or b == c for a, b, c in trip)
        keys = [k for a, b, c in trip for k in (a * n + b, a * n + c, b * n + c)]
        dups = len(keys) - len(set(keys))
        # sorted, a triple holds two low ids exactly when its middle one is low
        lowadj = sum(b < low for _, b, _ in trip)
        stats.loops_seen += loops
        stats.overlaps_seen += dups
        stats.lowadj_seen += lowadj
        if not (loops or dups or lowadj):
            stats.tries = tries
            yield Hypergraph3(n, tuple(sorted(map(tuple, trip))))
        if tries % _PROGRESS_EVERY == 0:
            import logging

            logging.getLogger(__name__).info(
                "sample_linear(n=%d, ell=%d, k=%d): %d tries, no accept yet",
                spec.n, spec.ell, spec.k, tries,
            )
    stats.tries = max_tries
    raise SamplerBudgetError(
        f"no simple linear sample for (n={spec.n}, ell={spec.ell}, k={spec.k}) "
        f"within {max_tries} tries",
        stats,
    )


def _sample_hill(spec, seed, max_tries, stats):
    """Stinson's hill-climbing with prescribed degrees (module docstring).

    Partners come from a few random draws from the live list, then from
    a full scan.  When the live vertex has fewer than two partners, a
    random triple is evicted instead; a finished graph that the caller
    turns down loses a few random triples and the climb goes on.  Live
    vertices and triples sit in swap-remove lists, so every draw is a
    list index and no result depends on set order.
    """
    stats.repaired = True
    n = spec.n
    low = 15 * spec.k
    # rnd.choice(seq) draws as seq[rnd.randrange(len(seq))] does, with one _randbelow(len(seq))
    rnd = random.Random(seed)
    rd = spec.degree_array()
    live = [v for v in range(n) if rd[v] > 0]
    live_at = {v: i for i, v in enumerate(live)}
    cover = {}  # pair (a, b), a < b -> the triple holding it
    triples = []
    triple_at = {}

    def drop(items, at, x):
        i = at.pop(x)
        last = items.pop()
        if last != x:
            items[i] = last
            at[last] = i

    def add(t):
        triple_at[t] = len(triples)
        triples.append(t)
        a, b, c = t
        cover[(a, b)] = cover[(a, c)] = cover[(b, c)] = t
        for x in t:
            rd[x] -= 1
            if rd[x] == 0:
                drop(live, live_at, x)

    def evict(t):
        stats.repair_rounds += 1
        drop(triples, triple_at, t)
        a, b, c = t
        del cover[(a, b)], cover[(a, c)], cover[(b, c)]
        for x in t:
            if rd[x] == 0:
                live_at[x] = len(live)
                live.append(x)
            rd[x] += 1

    def eligible(u, v, x):
        """x may join u (and v): a new vertex, {u, x} uncovered, no low-low pair."""
        if x == u or x == v or (x < low and (u < low or v < low)):
            return False
        return ((u, x) if u < x else (x, u)) not in cover

    def partner(u, v):
        for _ in range(_PARTNER_DRAWS):
            x = rnd.choice(live)
            if eligible(u, v, x):
                return x
        found = [x for x in live if eligible(u, v, x)]
        return rnd.choice(found) if found else None

    moves = 0
    while moves < max_tries:
        moves += 1
        if not live:
            stats.tries = moves
            yield Hypergraph3(n, tuple(sorted(triples)))
            for _ in range(min(_PAIR_REJECT_EVICTIONS, len(triples))):
                evict(rnd.choice(triples))
            continue
        u = rnd.choice(live)
        v = partner(u, u)
        w = partner(u, v) if v is not None else None
        if w is None:
            if triples:
                evict(rnd.choice(triples))
            continue
        clash = cover.get((v, w) if v < w else (w, v))
        if clash is not None:
            evict(clash)
        add(tuple(sorted((u, v, w))))
    stats.tries = max_tries
    raise SamplerBudgetError(
        f"hill-climbing found no simple linear sample for (n={n}, ell={spec.ell}, "
        f"k={spec.k}) within {max_tries} moves",
        stats,
    )


def _sample_dfs(spec, seed, max_tries, stats):
    """Seeded backtracking over canonical edge placements.

    Edges through the lowest unfilled vertex are placed first, partner
    pairs in seed-shuffled order, so every simple linear realization is
    reachable and none is yielded twice.  When the generator ends, the
    space is exhausted.
    """
    n = spec.n
    rd = spec.degree_array()
    active = [v for v in range(n) if rd[v] > 0]
    pairs = list(combinations(active, 2))
    random.Random(seed).shuffle(pairs)
    used = set()
    edges = []

    def unfilled_min():
        return next((v for v in active if rd[v] > 0), None)

    def place(u):
        stats.tries += 1
        if stats.tries > max_tries:
            stats.tries = max_tries
            raise SamplerBudgetError(
                f"backtracking budget exhausted for (n={n}, ell={spec.ell}, k={spec.k})",
                stats,
            )
        if u is None:  # the root of a spec without edges: the empty graph
            yield Hypergraph3(n, ())
            return
        # u is the lowest unfilled vertex, so u < v < w for every candidate
        cands = [(v, w) for v, w in pairs if u < v and rd[v] > 0 and rd[w] > 0
                 and (u, v) not in used and (u, w) not in used and (v, w) not in used]
        for v, w in cands:
            sides = ((u, v), (u, w), (v, w))
            used.update(sides)
            for x in (u, v, w):
                rd[x] -= 1
            edges.append((u, v, w))
            nxt = unfilled_min()
            if nxt is None:
                yield Hypergraph3(n, tuple(sorted(edges)))
            else:
                yield from place(nxt)
            edges.pop()
            for x in (u, v, w):
                rd[x] += 1
            used.difference_update(sides)

    yield from place(unfilled_min())


def _check_realizes(g: Hypergraph3, spec: DegreeSpec):
    """(degrees, covered pairs) of g, each pair an (a, b) with a < b;
    ValueError unless g is linear, realizes spec and joins no two low vertices."""
    if g.vertex_count != spec.n:
        raise ValueError(f"graph has {g.vertex_count} vertices, spec wants {spec.n}")
    degs = [0] * spec.n
    seen_pairs = set()
    low = 15 * spec.k
    for a, b, c in g.edges:
        if b < low:  # the edges are ascending, so a < b < 15k
            raise ValueError(f"low-degree vertices {a} and {b} share the edge {(a, b, c)}")
        for v in (a, b, c):
            degs[v] += 1
        for p in ((a, b), (a, c), (b, c)):
            if p in seen_pairs:
                raise ValueError(f"not linear: pair {p} in two edges")
            seen_pairs.add(p)
    want = spec.degree_array()
    for v in range(spec.n):
        if degs[v] != want[v]:
            raise ValueError(
                f"degree mismatch at vertex {v}: found {degs[v]}, spec says {want[v]}"
            )
    return degs, seen_pairs


def find_disjoint_edge_pair(g: Hypergraph3, spec: DegreeSpec):
    """Lexicographically first disjoint pair of full-degree edges that no
    third edge meets on both sides, or None when there is none.

    Both edges consist of degree-(ell-1) vertices only.  Such a pair is
    one where no {x, y} with x in e1 and y in e2 is covered: a shared
    vertex x puts {x, y} in e2, and any edge covering {x, y} when e1 and
    e2 are disjoint is a third edge that meets both.  Raises ValueError
    when g is not linear or does not realize the spec.
    """
    degs, covered = _check_realizes(g, spec)
    full = spec.ell - 1
    qualifying = [e for e in g.edges if all(degs[v] == full for v in e)]
    for pos, e1 in enumerate(qualifying):
        for e2 in qualifying[pos + 1 :]:
            if covered.isdisjoint((min(x, y), max(x, y)) for x in e1 for y in e2):
                return e1, e2
    return None
