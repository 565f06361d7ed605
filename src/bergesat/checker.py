"""Freeness and saturation verdicts, vertex tags and the l = 5 link checks.

Freeness is a degree cap: a 3-graph has no Berge K_{1,ell} exactly when
every Berge degree is at most ell-1.  Saturation additionally demands
that every absent triple, once added, pushes some vertex of that triple
to Berge degree ell (vertices outside the new triple keep their links,
so only the three members can gain).

Every scan here uses one rule, the pair-insertion rule.  Adding the
absent triple {v, p, q} adds the pair {p, q} to the link L(v), and

    d_B(v) afterwards = d_B(v) + (0 if p, q both in NT(v) else 1),

where NT(v) is the set of link vertices in non-tree components of L(v).
A pair with a new endpoint raises |N(v)| by one more than the tree
count (one new neighbor joins a component, two form a new tree).  A pair
of old neighbors, one of them in a tree component, lowers the tree count
by one: it merges that tree into another component or closes a cycle in
it.  A pair of two vertices in non-tree components changes neither.  So
one `hypercore.LinkPass` over the whole graph suffices, and each absent
triple costs a few lookups.  The checker reads the pass's NT sets in
place, and derives L(v), unsorted, only for the Type II candidates.

The fast path rests on the tagged-vertex lemma: an absent triple through
a Type I or Type II vertex always creates a new Berge star, so only
triples inside the untagged set are tested.  A tag requires d_B(v) =
ell-1, so by the rule only the neutral pairs of v, the non-adjacent
pairs of NT(v), leave it short.  Type I has none (NT(v) is a clique in
L(v)).  Type II defers each to one of its Type I vertices x, whose new
pair {v, y} is absent from L(x) and so not inside the clique NT(x).
``full_scan=True`` drops the lemma and scans triples over every vertex.
Either scan still decides every absent triple by the rule, but visits
only the candidates the rule cannot settle from d_B alone (see
`_first_counterexample`): on the 10,008-vertex ell = 6 witness a full
scan visits 16,038 of its 1.67e11 triples, about 0.06 s on a 2-core
VM.  Both paths report the same verdict and the same lexicographically
first counterexample.  For l = 5, `classify_link_5` names a link from
its pairs, as `LinkPass.pairs` derives them, by the shape map of
`twographs`, and `top_degree_component_claim` checks the top-degree claim.
"""

from bisect import bisect_left
from collections import Counter
from itertools import chain, combinations
from math import comb
from typing import NamedTuple

from .hypercore import (
    Hypergraph3,
    LinkPass,
    component_counts,
    link,  # noqa: F401  wrapped by name in perfbench/tracer.py
    tree_components,  # noqa: F401  wrapped by name in perfbench/tracer.py
)

TYPE_I = "TypeI"
TYPE_II = "TypeII"


class AggressiveClass(NamedTuple):
    """Per-vertex aggressive-saturation tags at the report's ell.

    tags[v] is "TypeI", "TypeII", or None.  Type I means Berge degree
    ell-1 with the non-tree link vertices pairwise adjacent in the link;
    Type II means Berge degree ell-1, not Type I, and every non-adjacent
    pair of non-tree link vertices contains a Type I vertex of the host.
    """

    tags: tuple

    def untagged(self) -> tuple:
        return tuple(v for v, t in enumerate(self.tags) if t is None)


class VerifyReport(NamedTuple):
    """Verdict of one saturation check, with the per-vertex Berge degrees
    and tags.  counterexample is the first vertex above the cap when g is
    not free, else the first absent triple that creates nothing, or None."""

    ell: int
    is_free: bool
    is_saturated: bool
    berge_degrees: tuple
    aggressive: AggressiveClass
    counterexample: object

    def to_json(self) -> dict:
        obj = {
            "ell": self.ell,
            "is_free": self.is_free,
            "is_saturated": self.is_saturated,
            "berge_degrees": list(self.berge_degrees),
            "aggressive": list(self.aggressive.tags),
        }
        if self.counterexample is not None:
            ce = self.counterexample
            obj["counterexample"] = list(ce) if isinstance(ce, tuple) else ce
        return obj


def _lifts_at(nontree, degrees, v, p, q, ell) -> bool:
    """The pair-insertion rule: does adding {p, q} to L(v) give d_B(v) >= ell?"""
    nt = nontree[v]
    return degrees[v] + (0 if p in nt and q in nt else 1) >= ell


def _lifts(nontree, degrees, e, ell) -> bool:
    """Does adding the absent triple e lift a vertex of e to Berge degree ell?"""
    a, b, c = e
    return (
        _lifts_at(nontree, degrees, a, b, c, ell)
        or _lifts_at(nontree, degrees, b, a, c, ell)
        or _lifts_at(nontree, degrees, c, a, b, ell)
    )


def _neutral_pairs(pairs, nontree):
    """Absent link pairs that leave d_B unchanged: non-adjacent pairs of NT."""
    present = set(pairs)
    return (
        (x, y) for x, y in combinations(sorted(nontree), 2) if (x, y) not in present
    )


def _classify(ell, lp):
    """Tag every vertex Type I, Type II, or neither, in two passes: Type
    II consults the finished Type I marks (the definition does not recurse
    further)."""
    # Type I: no neutral pair, i.e. NT(v) is a clique in L(v)
    type_i = [d == ell - 1 and c for d, c in zip(lp.degrees, lp.clique)]
    tags = []
    for v, d in enumerate(lp.degrees):
        if type_i[v]:
            tags.append(TYPE_I)
        elif d == ell - 1 and all(
            type_i[x] or type_i[y] for x, y in _neutral_pairs(lp.pairs(v), lp.nontree[v])
        ):
            tags.append(TYPE_II)
        else:
            tags.append(None)
    return AggressiveClass(tuple(tags))


def _first_counterexample(through, nontree, degrees, ell, pool):
    """Lexicographically first absent triple inside pool that creates no
    Berge K_{1,ell}, or None; the graph must be free.

    By the rule, a full vertex v (d_B(v) = ell-1) stays short only when
    the other two lie in NT(v), and a vertex below ell-1 never lifts.  So
    for a < b < c, b runs over NT(a) when a is full and c over the NT of
    the full ones among a and b; the triples skipped all lift.  Each
    candidate absent from through[a] is still decided by `_lifts`."""
    pool = tuple(pool)
    rank = {v: i for i, v in enumerate(pool)}

    def above(v, *members):
        """Pool vertices above v in the NT of every full member, ascending."""
        nts = [nontree[u] for u in members if degrees[u] == ell - 1]
        if not nts:
            return pool[rank[v] + 1:]
        return sorted(x for x in set(nts[0]).intersection(*nts[1:]) if x > v and x in rank)

    for a in pool:
        for b in above(a, a):
            if degrees[b] == ell - 1 and a not in nontree[b]:
                continue
            for c in above(b, a, b):
                e, es = (a, b, c), through[a]
                i = bisect_left(es, e)
                if e not in es[i:i + 1] and not _lifts(nontree, degrees, e, ell):
                    return e
    return None


def is_saturated(g: Hypergraph3, ell: int, full_scan: bool = False) -> VerifyReport:
    """Full saturation verdict with per-vertex diagnostics.

    On a free graph the scan visits candidate triples in lexicographic
    order and stops at the first absent one that creates nothing; the
    fast path restricts candidates to triples inside the untagged set
    (see the module docstring), which preserves that first
    counterexample because triples through tagged vertices never fail.
    """
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    lp = LinkPass(g.vertex_count, g.edges)
    dbs, aggressive = lp.degrees, _classify(ell, lp)

    bad = next((v for v, d in enumerate(dbs) if d > ell - 1), None)
    if bad is not None:
        return VerifyReport(ell, False, False, dbs, aggressive, bad)

    pool = range(g.vertex_count) if full_scan else aggressive.untagged()
    counterexample = _first_counterexample(lp.through, lp.nontree, dbs, ell, pool)
    return VerifyReport(
        ell, True, counterexample is None, dbs, aggressive, counterexample
    )


def aggressive_sufficient(g: Hypergraph3, ell: int) -> bool:
    """Does g stay saturated in a disjoint union with any saturated free
    graph?  By the union rule (see `assembler`) exactly when g is
    saturated and every vertex is full, d_B = ell - 1.  An all-tagged g
    is one such: a tag needs d_B = ell - 1, and the tagged-vertex lemma
    makes an all-tagged free graph saturated."""
    rep = is_saturated(g, ell)
    return rep.is_saturated and all(d == ell - 1 for d in rep.berge_degrees)


# --- the ell = 5 link catalog ---------------------------------------------

def classify_link_5(pairs) -> str:
    """Label a link, given by its pairs, against the fixed small-shape catalog.

    The canonical form does not depend on vertex labels, so the link is
    read as built, in any pair order.  Returns "OTHER" for anything
    outside the catalog; in a Berge-K_{1,5}-free graph that can only
    happen for |N(v)| <= 4 with a link other than K4 or K4-.  twographs
    is imported here, so commands that classify nothing never load it.
    """
    from . import twographs

    verts = set(chain.from_iterable(pairs))
    if (len(verts), len(pairs)) not in twographs.SHAPE_SIZES:
        return "OTHER"
    return twographs.shape_names().get(twographs.canonical_form(verts, pairs), "OTHER")


def top_degree_component_claim(g: Hypergraph3, ell: int,
                               report: VerifyReport | None = None) -> bool:
    """Adjacent vertices of degree C(ell-1, 2), the most a free graph
    allows, only inside ell-vertex, C(ell,3)-edge components, each the
    complete 3-graph on its vertices: the paper's claim at ell >= 5 (at
    ell = 4 a matching link reaches degree 3 too).  g must be
    Berge-K_{1,ell}-saturated, verified here unless a report is supplied."""
    if report is None:
        report = is_saturated(g, ell)
    if report.ell != ell or not report.is_saturated:
        raise ValueError(f"claim requires a Berge-K_{{1,{ell}}}-saturated input")
    # each edge {a, b, c} joins its vertices by the pairs {a, b} and {b, c},
    # so a component with C(ell,3) edges counts twice as many pairs
    pairs = [p for a, b, c in g.edges for p in ((a, b), (b, c))]
    label, size, held = component_counts(pairs)
    degree = Counter(chain.from_iterable(g.edges))
    top = comb(ell - 1, 2)
    return all(
        size[label[e[0]]] == ell and held[label[e[0]]] == 2 * comb(ell, 3)
        for e in g.edges if sum(degree[x] == top for x in e) >= 2
    )
