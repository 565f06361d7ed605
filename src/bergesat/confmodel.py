"""Seeded generation of simple linear 3-graphs with prescribed degrees.

The target degree sequence d(n, ell, k) puts 15k vertices at degree
ell-5 (the lantern slots), t at degree ell-2 with t = n(ell-1) mod 3
(so the degree sum is divisible by 3), and the rest at degree ell-1.
A sample must be simple and linear (no loop, no two triples sharing a
pair), its low-degree vertices must be pairwise non-adjacent, and, when
asked, it must admit a disjoint pair of full-degree edges that no third
edge meets (the hook for the edge surgeries downstream).

Three routes produce samples:

* Rejection (``rejection=True``, for diagnostics): a draw of the
  configuration model partitions the degree points into triples
  uniformly at random and is kept only if it meets the contract.
  Defect counts per draw concentrate near lambda = ell - 2 loops and,
  in this implementation's measurements, about (ell-2)^2 overlapping
  pairs, twice the documented reference rate mu = (ell-2)^2 / 2 kept in
  SampleStats.  Acceptance is about 1e-6 at ell = 5 near n = 45 and
  about 1e-9 from ell = 6 on, so this route is kept for its calibrated
  defect rates, not for building.
* Hill-climbing (the default), after Stinson's algorithm for Steiner
  triple systems (Ann. Discrete Math. 26, 1985).  A vertex is live
  while its residual degree is positive.  Each move joins a random live
  vertex to two live partners it does not yet share a triple with; if
  the partners already share one, that triple is evicted.  Low-low
  pairs count as covered from the start and are never evicted.  The
  result follows no known distribution; every returned graph meets the
  contract regardless, and downstream verification never assumes
  uniformity.
* Exhaustive search, when at most 13 vertices have positive degree:
  such realizations are rigid packings or do not exist, a seeded
  backtracking search settles them at once (recursion depth is the edge
  count, at most 26), and it is the only route that can prove a spec
  unrealizable.

Every route's result is re-validated against the degree spec before it
is returned.

Determinism: all randomness flows from generators keyed by the caller's
seed (numpy Generators for rejection and search, a ``random.Random``
for hill-climbing), so results are reproducible across platforms for a
fixed numpy and Python.
"""

from dataclasses import dataclass
import logging
from math import comb
import random

import numpy as np

from .hypercore import Hypergraph3, InternalError

logger = logging.getLogger(__name__)

_BATCH = 1024
_PROGRESS_EVERY = 100_000
_PARTNER_DRAWS = 16
_PAIR_REJECT_EVICTIONS = 4


class SamplerBudgetError(RuntimeError):
    """Raised when max_tries is exhausted; carries the stats so far."""

    def __init__(self, message, stats):
        super().__init__(message)
        self.stats = stats


class NoDisjointPair(LookupError):
    """No admissible disjoint pair of full-degree edges exists."""


@dataclass(frozen=True)
class DegreeSpec:
    """Degree sequence d(n, ell, k) with the vertex-id layout fixed.

    Ids 0 .. 15k-1 get degree ell-5, the next t get degree ell-2, the
    rest degree ell-1.
    """

    n: int
    ell: int
    k: int
    t: int

    def degree_of(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex id {v} out of range [0, {self.n - 1}]")
        if v < 15 * self.k:
            return self.ell - 5
        if v < 15 * self.k + self.t:
            return self.ell - 2
        return self.ell - 1

    def degree_array(self) -> np.ndarray:
        d = np.full(self.n, self.ell - 1, dtype=np.int64)
        d[: 15 * self.k] = self.ell - 5
        d[15 * self.k : 15 * self.k + self.t] = self.ell - 2
        return d

    @property
    def edge_count(self) -> int:
        return (self.n * (self.ell - 1) - 60 * self.k - self.t) // 3


def degree_spec(n: int, ell: int, k: int) -> DegreeSpec:
    """Validate (n, ell, k) and derive t.

    ell = 4 is admitted only with k = 0 (the all-degree-3 sequence used
    by the sparse star-free construction); the lantern machinery proper
    starts at ell = 5.
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


@dataclass(frozen=True)
class SampleStats:
    """Diagnostics of one sample_linear run.

    expected_lambda and expected_mu are the documented per-draw defect
    rates (mu is the reference value; measured overlap counts run about
    twice it, see the module docstring).  loops_seen and overlaps_seen
    total the defects observed across all draws inspected; pair_rejects
    counts full realizations discarded because no admissible disjoint
    pair of full-degree edges existed.  repaired is True when the graph
    came from the hill-climbing route, and repair_rounds counts that
    route's evicted triples.  tries counts draws (rejection), moves
    (hill-climbing) or search nodes (exhaustive search).
    """

    tries: int
    loops_seen: int
    overlaps_seen: int
    expected_lambda: float
    expected_mu: float
    lowadj_seen: int = 0
    pair_rejects: int = 0
    repaired: bool = False
    repair_rounds: int = 0


def _points(spec: DegreeSpec) -> np.ndarray:
    return np.repeat(np.arange(spec.n, dtype=np.int64), spec.degree_array())


def _pair_keys(trip, n):
    """Unordered-pair keys of every triple; shape (samples, 3 * rows)."""
    a, b, c = trip[:, :, 0], trip[:, :, 1], trip[:, :, 2]
    return np.concatenate((a * n + b, a * n + c, b * n + c), axis=1)


def _batch_defects(trip, n, low_count):
    """Per-sample defect counts for a (samples, rows, 3) sorted batch."""
    a, b, c = trip[:, :, 0], trip[:, :, 1], trip[:, :, 2]
    loops = ((a == b) | (b == c)).sum(axis=1)
    keys = np.sort(_pair_keys(trip, n), axis=1)
    dup_pairs = (keys[:, 1:] == keys[:, :-1]).sum(axis=1)
    if low_count:
        lowadj = ((trip < low_count).sum(axis=2) >= 2).sum(axis=1)
    else:
        lowadj = np.zeros(len(trip), dtype=np.int64)
    return loops, dup_pairs, lowadj


def _finish(spec, trip_rows):
    order = np.lexsort((trip_rows[:, 2], trip_rows[:, 1], trip_rows[:, 0]))
    edges = tuple(tuple(int(x) for x in row) for row in trip_rows[order])
    return Hypergraph3(spec.n, edges)


def _has_disjoint_pair(g, spec):
    try:
        find_disjoint_edge_pair(g, spec)
        return True
    except NoDisjointPair:
        return False


def sample_linear(n, ell, k, seed=0, max_tries=10_000_000, rejection=False,
                  require_pair=True):
    """A simple linear 3-graph realizing d(n, ell, k), with stats.

    Hill-climbing is the default route; rejection=True selects
    distributionally clean rejection sampling, the mode the defect
    diagnostics are calibrated against.  Specs with at most 13 active
    vertices go to the exhaustive search either way.  require_pair=False
    waives the disjoint-edge-pair guarantee; builders that perform no
    edge surgery use this, since at small n the guarantee can be
    effectively unsatisfiable even though the degree sequence itself is.
    Deterministic in all arguments.  Raises SamplerBudgetError carrying
    the stats when max_tries runs out, and before any sampling when
    refusal() proves the spec unrealizable.
    """
    if max_tries < 1:
        raise ValueError(f"max_tries must be >= 1, got {max_tries}")
    spec = degree_spec(n, ell, k)
    reason = refusal(spec, require_pair)
    if reason is not None:
        raise SamplerBudgetError(reason, SampleStats(0, 0, 0, float(ell - 2), (ell - 2) ** 2 / 2))
    if _wants_exact_search(spec):
        g, stats = _sample_dfs(spec, seed, max_tries, require_pair)
    elif rejection:
        g, stats = _sample_reject(spec, seed, max_tries, require_pair)
    else:
        g, stats = _sample_hill(spec, seed, max_tries, require_pair)
    _check_realizes(g, spec)
    return g, stats


def refusal(spec: DegreeSpec, require_pair=True):
    """Why no sample can exist, from counting alone, or None.

    Low vertices are pairwise non-adjacent, so each low incidence sits
    on its own edge and the disjoint pair needs two edges avoiding them.
    In a linear 3-graph a vertex of degree d has 2d distinct neighbours,
    all of positive degree.  The pair e1, e2 and the ell-2 other edges
    at each of their six full-degree vertices are all distinct (no third
    edge meets both), so the pair needs 6 ell - 10 edges.
    """
    n, ell, k = spec.n, spec.ell, spec.k
    free_edges = spec.edge_count - 15 * k * (ell - 5)
    if require_pair and free_edges < 2:
        return (f"no disjoint full-degree edge pair is possible for (n={n}, ell={ell}, "
                f"k={k}): only {free_edges} of its {spec.edge_count} edges can avoid the "
                f"{15 * k} low-degree vertices")
    blocks = ((ell - 5, 15 * k), (ell - 2, spec.t), (ell - 1, n - 15 * k - spec.t))
    active = sum(size for d, size in blocks if d > 0)
    d_max = max((d for d, size in blocks if d > 0 and size), default=0)
    head = f"no simple linear realization of (n={n}, ell={ell}, k={k})"
    if d_max and active < 2 * d_max + 1:
        return (f"{head}: a vertex of degree {d_max} needs {2 * d_max} neighbours "
                f"of positive degree, and only {active} vertices have any")
    if require_pair and spec.edge_count < 6 * ell - 10:
        return (f"{head} with the disjoint-pair guarantee: the pair and the edges at "
                f"its six vertices need {6 * ell - 10} edges, the spec has "
                f"{spec.edge_count}")
    return None


def _wants_exact_search(spec: DegreeSpec) -> bool:
    """At most 13 active vertices: the realizations are rigid packings
    (or do not exist at all), so the seeded backtracking search settles
    them, within a recursion depth of C(13, 2) / 3 = 26 edges."""
    active = int((spec.degree_array() > 0).sum())
    return 0 < active <= 13


def _sample_reject(spec, seed, max_tries, require_pair=True):
    pts = _points(spec)
    if pts.size % 3:
        raise InternalError("degree sum not divisible by 3")
    lam = float(spec.ell - 2)
    mu = (spec.ell - 2) ** 2 / 2
    if pts.size == 0:
        return Hypergraph3(spec.n, ()), SampleStats(1, 0, 0, lam, mu)
    low_count = 15 * spec.k if spec.ell > 5 else 0
    loops_total = 0
    dups_total = 0
    lowadj_total = 0
    pair_failures = 0
    done = 0
    while done < max_tries:
        count = min(_BATCH, max_tries - done)
        rng = np.random.default_rng((seed, done))
        tiled = np.tile(pts, (count, 1))
        trip = np.sort(rng.permuted(tiled, axis=1).reshape(count, -1, 3), axis=2)
        loops, dups, lowadj = _batch_defects(trip, spec.n, low_count)
        loops_total += int(loops.sum())
        dups_total += int(dups.sum())
        lowadj_total += int(lowadj.sum())
        clean = np.flatnonzero((loops == 0) & (dups == 0) & (lowadj == 0))
        for idx in clean:
            g = _finish(spec, trip[idx])
            tries = done + int(idx) + 1
            stats = SampleStats(
                tries, loops_total, dups_total, lam, mu,
                lowadj_seen=lowadj_total, pair_rejects=pair_failures,
            )
            if not require_pair or _has_disjoint_pair(g, spec):
                return g, stats
            pair_failures += 1
        done += count
        if done % _PROGRESS_EVERY == 0:
            logger.info(
                "sample_linear(n=%d, ell=%d, k=%d): %d tries, no accept yet",
                spec.n, spec.ell, spec.k, done,
            )
    stats = SampleStats(
        max_tries, loops_total, dups_total, lam, mu,
        lowadj_seen=lowadj_total, pair_rejects=pair_failures,
    )
    raise SamplerBudgetError(
        f"no simple linear sample for (n={spec.n}, ell={spec.ell}, k={spec.k}) "
        f"within {max_tries} tries",
        stats,
    )


def _sample_hill(spec, seed, max_tries, require_pair=True):
    """Stinson's hill-climbing with prescribed degrees (module docstring).

    Partners come from a few random draws from the live list, then from
    a full scan.  When the live vertex has fewer than two partners, a
    random triple is evicted instead; a finished graph without the
    required disjoint pair loses a few random triples and the climb goes
    on.  Live vertices and triples sit in swap-remove lists, so every
    draw is a list index and no result depends on set order.
    """
    lam = float(spec.ell - 2)
    mu = (spec.ell - 2) ** 2 / 2
    if spec.edge_count == 0:
        return Hypergraph3(spec.n, ()), SampleStats(1, 0, 0, lam, mu, repaired=True)
    n = spec.n
    low = 15 * spec.k if spec.ell > 5 else 0
    rnd = random.Random(seed)
    rd = [int(d) for d in spec.degree_array()]
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
            x = live[rnd.randrange(len(live))]
            if eligible(u, v, x):
                return x
        found = [x for x in live if eligible(u, v, x)]
        return rnd.choice(found) if found else None

    moves = evictions = pair_failures = 0
    while moves < max_tries:
        moves += 1
        if not live:
            g = Hypergraph3(n, tuple(sorted(triples)))
            if not require_pair or _has_disjoint_pair(g, spec):
                return g, SampleStats(
                    moves, 0, 0, lam, mu, pair_rejects=pair_failures,
                    repaired=True, repair_rounds=evictions,
                )
            pair_failures += 1
            for _ in range(min(_PAIR_REJECT_EVICTIONS, len(triples))):
                evict(triples[rnd.randrange(len(triples))])
                evictions += 1
            continue
        u = live[rnd.randrange(len(live))]
        v = partner(u, u)
        w = partner(u, v) if v is not None else None
        if w is None:
            if triples:
                evict(triples[rnd.randrange(len(triples))])
                evictions += 1
            continue
        clash = cover.get((v, w) if v < w else (w, v))
        if clash is not None:
            evict(clash)
            evictions += 1
        add(tuple(sorted((u, v, w))))
    raise SamplerBudgetError(
        f"hill-climbing found no simple linear sample for (n={n}, ell={spec.ell}, "
        f"k={spec.k}) within {max_tries} moves",
        SampleStats(max_tries, 0, 0, lam, mu, pair_rejects=pair_failures,
                    repaired=True, repair_rounds=evictions),
    )


def _sample_dfs(spec, seed, max_tries, require_pair=True):
    """Seeded backtracking over canonical edge placements.

    Edges through the lowest unfilled vertex are placed first, partner
    pairs in seed-shuffled order, so every simple linear realization is
    reachable and none is visited twice.  Exhausting the space proves
    the spec (or the disjoint-pair guarantee on top of it) unrealizable,
    which randomized modes cannot do.
    """
    lam = float(spec.ell - 2)
    mu = (spec.ell - 2) ** 2 / 2
    degs = spec.degree_array()
    if spec.edge_count == 0:
        return Hypergraph3(spec.n, ()), SampleStats(1, 0, 0, lam, mu)
    n = spec.n
    rng = np.random.default_rng((seed, 2))
    priority = {}
    order = rng.permutation(n * n)
    for v in range(n):
        for w in range(v + 1, n):
            priority[(v, w)] = int(order[v * n + w])
    rd = [int(d) for d in degs]
    used = set()
    edges = []
    nodes = 0
    pair_failures = 0

    def unfilled_min():
        for v in range(n):
            if rd[v] > 0:
                return v
        return None

    def place(u):
        nonlocal nodes, pair_failures
        nodes += 1
        if nodes > max_tries:
            raise SamplerBudgetError(
                f"backtracking budget exhausted for (n={n}, ell={spec.ell}, k={spec.k})",
                SampleStats(max_tries, 0, 0, lam, mu, pair_rejects=pair_failures),
            )
        cands = []
        for v in range(n):
            if v == u or rd[v] <= 0:
                continue
            if (min(u, v), max(u, v)) in used:
                continue
            for w in range(v + 1, n):
                if w == u or rd[w] <= 0:
                    continue
                if (v, w) in used or (min(u, w), max(u, w)) in used:
                    continue
                cands.append((v, w))
        cands.sort(key=priority.__getitem__)
        for v, w in cands:
            pairs = ((min(u, v), max(u, v)), (min(u, w), max(u, w)), (v, w))
            used.update(pairs)
            for x in (u, v, w):
                rd[x] -= 1
            edges.append(tuple(sorted((u, v, w))))
            nxt = unfilled_min()
            if nxt is None:
                g = Hypergraph3(n, tuple(sorted(edges)))
                if not require_pair or _has_disjoint_pair(g, spec):
                    return g
                pair_failures += 1
            else:
                got = place(nxt)
                if got is not None:
                    return got
            edges.pop()
            for x in (u, v, w):
                rd[x] += 1
            used.difference_update(pairs)
        return None

    start = unfilled_min()
    g = place(start)
    if g is None:
        raise SamplerBudgetError(
            f"exhaustive search: no simple linear realization of "
            f"(n={n}, ell={spec.ell}, k={spec.k})"
            + (" with the disjoint-pair guarantee" if require_pair else ""),
            SampleStats(nodes, 0, 0, lam, mu, pair_rejects=pair_failures),
        )
    return g, SampleStats(nodes, 0, 0, lam, mu, pair_rejects=pair_failures)


def _check_realizes(g: Hypergraph3, spec: DegreeSpec):
    """Degrees of g; ValueError unless g is linear and realizes spec."""
    if g.vertex_count != spec.n:
        raise ValueError(f"graph has {g.vertex_count} vertices, spec wants {spec.n}")
    degs = [0] * spec.n
    seen_pairs = set()
    for a, b, c in g.edges:
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
                f"degree mismatch at vertex {v}: found {degs[v]}, spec says {int(want[v])}"
            )
    return degs


def find_disjoint_edge_pair(g: Hypergraph3, spec: DegreeSpec):
    """Lexicographically first disjoint pair of full-degree edges that no
    third edge meets on both sides.

    Both edges consist of degree-(ell-1) vertices only.  Raises
    NoDisjointPair when none exists and ValueError when g is not linear
    or does not realize the spec.
    """
    degs = _check_realizes(g, spec)
    full = spec.ell - 1
    qualifying = [
        i for i, e in enumerate(g.edges)
        if all(degs[v] == full for v in e)
    ]
    incident: dict = {}
    for i, e in enumerate(g.edges):
        for v in e:
            incident.setdefault(v, set()).add(i)

    def meeting(i):
        out = set()
        for v in g.edges[i]:
            out |= incident[v]
        return out

    meet = {i: meeting(i) for i in qualifying}
    for pos, i in enumerate(qualifying):
        ei = set(g.edges[i])
        for j in qualifying[pos + 1 :]:
            if ei & set(g.edges[j]):
                continue
            if (meet[i] & meet[j]) - {i, j}:
                continue
            return g.edges[i], g.edges[j]
    raise NoDisjointPair(
        f"no disjoint full-degree edge pair in graph on {spec.n} vertices"
    )
