"""Small ordinary-graph helpers shared by the checker and the oracle.

A 2-graph is a vertex list and a tuple of ascending vertex pairs; the
named link shapes below are (n, pairs) on 0..n-1, and `shape_names` is
the one map from a canonical form to its shape name, read by the
checker's link labels and the oracle's catalog.  Everything here targets
link-sized graphs, where brute-force canonical forms are exact, fast and
label-free: a connected graph is canonicalized by minimizing its edge
list, coded as the integers i*k + j, over the degree-preserving
relabelings that keep interchangeable vertices in ascending order, and a
general graph by the sorted multiset of its component forms.
"""

from functools import cache
from itertools import combinations, groupby, permutations, product

from .hypercore import component_counts


def _by_component(verts, pairs):
    """(vertex list, pair list) per component, in order of first vertex in verts."""
    label = component_counts(pairs)[0]
    groups = {}
    for v in verts:
        groups.setdefault(label.get(v, v), ([], []))[0].append(v)
    for p in pairs:
        groups[label[p[0]]][1].append(p)
    return groups.values()


def components(verts, pairs):
    """Connected components of the graph on verts with the given pairs,
    as (sorted vertex list, edge count) pairs in order of their first
    vertex in verts; a vertex outside every pair is its own component."""
    return [(sorted(vs), len(ps)) for vs, ps in _by_component(verts, pairs)]


def canonical_connected(verts, pairs):
    """Canonical form of a connected graph given by its vertex list and pairs.

    Vertices are first relabeled 0..k-1 grouped by ascending degree, then
    the lexicographically least edge tuple over all relabelings that
    permute within degree classes is taken, comparing the pair codes
    i*k + j (i <= j), which sort as the pairs do.  Swapping two vertices
    whose other neighbours agree is an automorphism, so such
    interchangeable vertices are kept in ascending order.  Exact for any
    size, intended for k <= 8 or so.
    """
    k = len(verts)
    nbrs = {v: [] for v in verts}
    for x, y in pairs:
        nbrs[x].append(y)
        nbrs[y].append(x)
    # lead[v]: least vertex with v's open or closed neighbourhood (no vertex has both kinds)
    lead, seen = {}, {}
    for v in sorted(verts):
        nb = sorted(nbrs[v])
        lead[v] = seen.setdefault(tuple(nb), seen.setdefault(tuple(sorted(nb + [v])), v))
    by_deg = sorted(verts, key=lambda v: (len(nbrs[v]), lead[v], v))
    base = {v: i for i, v in enumerate(by_deg)}
    base_pairs = [(base[x], base[y]) for x, y in pairs]
    # relabelings concatenate, per degree class, a permutation ascending on each run of equal lead
    choices, end = [], 0
    for _, cls in groupby(by_deg, key=lambda v: len(nbrs[v])):
        runs = [len(list(run)) for _, run in groupby(cls, key=lead.get)]
        span = range(end, end := end + sum(runs))
        twins = len(runs) < len(span)
        perms = [()] if twins else list(permutations(span))
        for s in runs if twins else ():
            perms = [p + c for p in perms for c in combinations([d for d in span if d not in p], s)]
        choices.append(perms)
    best = min(sorted([r[x] * k + r[y] if r[x] < r[y] else r[y] * k + r[x] for x, y in base_pairs])
               for r in (sum(ps, ()) for ps in product(*choices)))
    return (k, tuple(sorted(map(len, nbrs.values()))), tuple(divmod(c, k) for c in best))


def canonical_form(verts, pairs):
    """Canonical form of an arbitrary 2-graph: multiset of component forms.

    Isolated vertices contribute the trivial component form (1, (0,), ()).
    """
    # a component of one pair, as in a matching link, is K2 under any labels
    return tuple(sorted((2, (1, 1), ((0, 1),)) if len(ps) == 1 < len(vs)
                        else canonical_connected(vs, ps) for vs, ps in _by_component(verts, pairs)))


# --- constructors for the named link shapes -------------------------------

def path(k):
    return (k, tuple((i, i + 1) for i in range(k - 1)))


def complete(k):
    return (k, tuple(combinations(range(k), 2)))


def complete_minus_edge(k):
    pairs = tuple(p for p in combinations(range(k), 2) if p != (0, 1))
    return (k, pairs)


def star(leaves):
    return (leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


def matching(k):
    return (2 * k, tuple((2 * i, 2 * i + 1) for i in range(k)))


def t0():
    """The 5-vertex tree with degree sequence (1, 1, 1, 2, 3)."""
    return (5, ((0, 1), (1, 2), (1, 3), (3, 4)))


def disjoint(g1, g2):
    n1, p1 = g1
    n2, p2 = g2
    return (n1 + n2, p1 + tuple((x + n1, y + n1) for x, y in p2))


# the named link shapes of the ell = 5 analysis: the published catalog
# rows (five or more vertices) in row order, then the two dense 4-vertex links
LINK_SHAPES = (
    ("4K2", matching(4)),
    ("2K2+P3", disjoint(matching(2), path(3))),
    ("3K2", matching(3)),
    ("K2+K1,3", disjoint(matching(1), star(3))),
    ("K2+P4", disjoint(matching(1), path(4))),
    ("2P3", disjoint(path(3), path(3))),
    ("K2+K3", disjoint(matching(1), complete(3))),
    ("K2+P3", disjoint(matching(1), path(3))),
    ("P5", path(5)),
    ("K1,4", star(4)),
    ("T0", t0()),
    ("K4", complete(4)),
    ("K4-", complete_minus_edge(4)),
)

# (vertices, pairs) of each named shape, none with an isolated vertex
SHAPE_SIZES = frozenset((k, len(p)) for _, (k, p) in LINK_SHAPES)


@cache
def shape_names() -> dict:
    """Canonical form -> name of each LINK_SHAPES entry, the package's one
    form-to-name map, built on first use."""
    return {canonical_form(range(k), p): name for name, (k, p) in LINK_SHAPES}
