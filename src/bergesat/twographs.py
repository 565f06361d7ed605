"""Small ordinary-graph helpers shared by the checker and the oracle.

A 2-graph is a vertex list and a tuple of ascending vertex pairs; the
named link shapes below are (n, pairs) on 0..n-1, and `shape_names` is
the one map from a canonical form to its shape name, read by the
checker's link labels and the oracle's catalog.  Everything here targets
link-sized graphs, where brute-force canonical forms are exact, fast and
label-free: a connected graph is canonicalized by minimizing its edge
list over all degree-preserving relabelings, and a general graph by the
sorted multiset of its component forms.
"""

from functools import cache
from itertools import combinations, permutations, product

from .hypercore import component_counts


def components(verts, pairs):
    """Connected components of the graph on verts with the given pairs,
    as (sorted vertex list, edge count) pairs in order of their first
    vertex in verts; a vertex outside every pair is its own component."""
    label, _, held = component_counts(pairs)
    groups = {}
    for v in verts:
        groups.setdefault(label.get(v, v), []).append(v)
    return [(sorted(group), held[r]) for r, group in groups.items()]


def canonical_connected(verts, pairs):
    """Canonical form of a connected graph given by its vertex list and pairs.

    Vertices are first relabeled 0..k-1 grouped by ascending degree, then
    the lexicographically least edge tuple over all relabelings that
    permute within degree classes is taken.  Exact for any size, intended
    for k <= 8 or so.
    """
    k = len(verts)
    deg = {v: 0 for v in verts}
    for x, y in pairs:
        deg[x] += 1
        deg[y] += 1
    by_deg = sorted(verts, key=lambda v: (deg[v], v))
    base = {v: i for i, v in enumerate(by_deg)}
    # contiguous index ranges per degree class
    classes = []
    i = 0
    while i < k:
        j = i
        while j < k and deg[by_deg[j]] == deg[by_deg[i]]:
            j += 1
        classes.append(range(i, j))
        i = j
    base_pairs = [tuple(sorted((base[x], base[y]))) for x, y in pairs]
    best = None
    for perms in product(*(permutations(c) for c in classes)):
        relab = {}
        for c, p in zip(classes, perms):
            for src, dst in zip(c, p):
                relab[src] = dst
        cand = tuple(sorted(tuple(sorted((relab[x], relab[y]))) for x, y in base_pairs))
        if best is None or cand < best:
            best = cand
    degs = tuple(sorted(deg.values()))
    return (k, degs, best)


def canonical_form(verts, pairs):
    """Canonical form of an arbitrary 2-graph: multiset of component forms.

    Isolated vertices contribute the trivial component form (1, (0,), ()).
    """
    forms = []
    for comp, _ in components(verts, pairs):
        keep = set(comp)
        sub = [p for p in pairs if p[0] in keep and p[1] in keep]
        forms.append(canonical_connected(comp, sub))
    return tuple(sorted(forms))


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
