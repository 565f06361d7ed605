"""Independent ground truth for the rest of the package.

Three tools live here, deliberately sharing no logic with the checker:

* a matching-based Berge degree (augmenting paths on the link's
  vertex/edge incidence structure), cross-checked everywhere against the
  closed-form |N(v)| - tree(L(v));
* an exhaustive saturation-spectrum sweep for n <= 7, as a depth-first
  search in pure Python: one Berge-degree table over the link patterns,
  built from the matching route, serves every vertex (each lists its
  triples in the same pair order).  Relabelling the other vertices
  permutes vertex 0's link within its isomorphism class and keeps edge
  counts and saturation, so the search fixes one least link code per
  class and decides the other triples on an explicit stack, and its
  counts are weighted by the class size (156 classes at n = 7).  The
  Berge degree is monotone in the link, so a triple is never added once
  it would bring a vertex to ell, and never left out once no vertex of
  it could reach ell;
* a catalog of the small link shapes together with the
  degree-deficiency bound table computed from first principles.  The
  connected shapes are grown from K2 by canonical augmentation (one
  chord or one pendant vertex at a time, kept only when its canonical
  form is new), which reaches every isomorphism class once; the
  disconnected shapes are all multisets of connected ones.
"""

from collections import Counter
from itertools import combinations
from typing import NamedTuple

from .hypercore import Hypergraph3, InternalError


# --- matching route for the Berge degree ----------------------------------

def _max_matching(pairs):
    """Maximum matching between link vertices and the pairs they lie in."""
    verts = sorted({v for p in pairs for v in p})
    inc = {v: [] for v in verts}
    for j, (x, y) in enumerate(pairs):
        inc[x].append(j)
        inc[y].append(j)
    owner = {}
    for root in verts:
        # a free pair of the root is taken at once; otherwise a depth-first
        # search for an augmenting path on an explicit stack of (vertex,
        # the pair that reached it, its untried pairs)
        for j in inc[root]:
            if j not in owner:
                owner[j] = root
                break
        else:
            seen, stack = set(), [(root, None, iter(inc[root]))]
            while stack:
                for j in stack[-1][2]:
                    if j not in seen:
                        break
                else:
                    stack.pop()
                    continue
                seen.add(j)
                if j in owner:
                    stack.append((owner[j], j, iter(inc[owner[j]])))
                    continue
                for v, via, _ in reversed(stack):
                    owner[j], j = v, via
                break
    return len(owner)


def berge_degree_matching(g: Hypergraph3, v: int) -> int:
    """Berge degree of v as a maximum incidence matching.

    Independent of the component-count formula in hypercore; the two must
    agree on every input.
    """
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex id {v!r} out of range [0, {g.vertex_count - 1}]")
    pairs = [tuple(x for x in e if x != v) for e in g.edges if v in e]
    return _max_matching(pairs)


# --- exhaustive spectrum ---------------------------------------------------

class SpectrumResult(NamedTuple):
    n: int
    ell: int
    realizable: tuple[int, ...]
    witnesses: dict
    counts: dict
    sat_observed: int
    ex_observed: int


def _link_classes(n):
    """Vertex 0's link codes up to relabelling of vertices 1..n-1.

    The first C(n-1, 2) triples in lexicographic order are the triples
    through vertex 0, so bit j of a code is the j-th pair of 1..n-1.  A
    permutation of 1..n-1 permutes the pairs and so the codes, and the
    classes are the orbits of the codes under a transposition and an
    (n-1)-cycle, which generate every permutation.  In an ascending
    scan the first code not yet seen is the least of its orbit.
    Returns (reps, sizes, of): the least code of every class,
    ascending, the number of codes in it, and of[code], the index in
    reps of code's class.
    """
    pairs = list(combinations(range(n - 1), 2))
    index = {p: j for j, p in enumerate(pairs)}
    swap = [1, 0] + list(range(2, n - 1))
    cycle = list(range(1, n - 1)) + [0]
    moves = []
    for perm in (swap, cycle):
        image = [0]
        for a, b in pairs:  # image[code] for every code, one bit at a time
            bit = 1 << index[tuple(sorted((perm[a], perm[b])))]
            image += [c | bit for c in image]
        moves.append(image)
    of = [-1] * (1 << len(pairs))
    reps, sizes = [], []
    for code in range(len(of)):
        if of[code] >= 0:
            continue
        cls = of[code] = len(reps)
        orbit = [code]
        for c in orbit:  # grows as the scan finds new images
            for image in moves:
                if of[image[c]] < 0:
                    of[image[c]] = cls
                    orbit.append(image[c])
        reps.append(code)
        sizes.append(len(orbit))
    return reps, sizes, of


def _degree_table(n, reps, of):
    """The Berge degree of one vertex of an n-vertex graph over all its
    link bit patterns, by the matching route.

    Bit j of a pattern is the j-th pair of combinations(range(n - 1), 2).
    Every vertex v of K_n^(3) lists its triples in lexicographic order
    in that pair order, once the other vertices are relabelled 0..n-2 in
    order, so this one list of length 2^C(n-1, 2) serves them all.
    Relabelling keeps the degree, so one matching per class of
    `_link_classes(n)` (reps, of) fills the table.
    """
    pairs = list(combinations(range(n - 1), 2))
    degree = [_max_matching([p for j, p in enumerate(pairs) if rep >> j & 1]) for rep in reps]
    return [degree[cls] for cls in of]


def _all_lifted(over, low, codes, mask, checks):
    """Whether every triple of checks, (bit, packed bits, field shifts),
    that mask leaves out brings one of its vertices to a code in over
    when added to the packed link codes."""
    for bit, with_bits, (a, b, c) in checks:
        if not mask & bit:
            with_t = codes | with_bits
            if not (over[with_t >> a & low] or over[with_t >> b & low]
                    or over[with_t >> c & low]):
                return False
    return True


def exhaustive_spectrum(n, ell) -> SpectrumResult:
    """Every saturated edge count on n <= 7 labeled vertices, by an exact
    depth-first search.

    Bit i of a mask is the i-th triple in lexicographic order, so the
    low k = C(n-1, 2) bits are vertex 0's link code.  Relabelling
    vertices 1..n-1 is a bijection between the graphs of two codes of
    one class (`_link_classes`) that keeps the edge count and
    saturation, so the search fixes, for each class, only its least
    code, decides the other triples in index order on an explicit
    stack, and weights each count by the class size.  All n link codes are packed into one int,
    k bits per vertex, and deciding a triple changes the codes of its
    three vertices only.  The Berge degree is monotone in the link, so
    two prunes keep the search exact: a triple is not added once one of
    its vertices would reach degree ell, and not left out when none of
    its vertices could reach ell even with every undecided triple
    through it added (at the root, the same test drops a class whose
    absent vertex-0 triples cannot all be lifted).  A leaf is saturated
    when every absent triple lifts one of its vertices to ell.
    counts[m] is the number of labeled saturated graphs with m edges.
    For every realizable m the witness is the smallest saturated mask
    among the swept ones, that is among the graphs whose vertex-0 link
    code is the least code of its class.  Deterministic; all degrees
    come from the matching route.
    """
    if n < 0 or ell < 1:
        raise ValueError(f"bad arguments n={n}, ell={ell}")
    if n > 7:
        raise ValueError(f"n={n} exceeds the exhaustive cap of 7")

    triples = list(combinations(range(n), 3))
    T = len(triples)
    pos = [[i for i, t in enumerate(triples) if v in t] for v in range(n)]
    k = len(pos[0]) if n else 0
    low = (1 << k) - 1
    reps, sizes, of = _link_classes(n)
    over = [d >= ell for d in _degree_table(n, reps, of)]
    # field shifts of each triple's vertices, and the triple's bits in
    # the packed codes; rest[i] packs every triple from i on
    shifts = [tuple(v * k for v in t) for t in triples]
    packed = [sum(1 << (v * k + pos[v].index(i)) for v in t) for i, t in enumerate(triples)]
    rest = [0] * (T + 1)
    for i in range(T - 1, k - 1, -1):
        rest[i] = rest[i + 1] | packed[i]
    checks = list(zip([1 << i for i in range(T)], packed, shifts))

    best_mask = {}
    counts = {}
    for rep, size in zip(reps, sizes):
        # rep gives each vertex v a star of deg(v) pairs at 0, and rep,
        # vertex 0's link, holds as large a star at v: by monotonicity
        # no vertex is over when vertex 0 is not
        if over[rep]:
            continue
        codes = 0
        for i in range(k):
            if rep >> i & 1:
                codes |= packed[i]
        if not _all_lifted(over, low, codes | rest[k], rep, checks[:k]):
            continue  # some absent vertex-0 triple can never be lifted
        stack = [(k, codes, rep)]
        while stack:
            i, codes, mask = stack.pop()
            if i < T:
                a, b, c = shifts[i]
                with_t = codes | packed[i]
                if not (over[with_t >> a & low] or over[with_t >> b & low]
                        or over[with_t >> c & low]):
                    stack.append((i + 1, with_t, mask | 1 << i))
                top = codes | rest[i]
                if over[top >> a & low] or over[top >> b & low] or over[top >> c & low]:
                    stack.append((i + 1, codes, mask))
            elif _all_lifted(over, low, codes, mask, checks):
                m = mask.bit_count()
                counts[m] = counts.get(m, 0) + size
                if m not in best_mask or mask < best_mask[m]:
                    best_mask[m] = mask

    witnesses = {}
    for m, least in best_mask.items():
        edges = tuple(triples[i] for i in range(T) if least >> i & 1)
        witnesses[m] = Hypergraph3(n, edges)
    realizable = tuple(sorted(counts))
    return SpectrumResult(
        n, ell, realizable, witnesses, counts, realizable[0], realizable[-1]
    )


# --- link catalog and the deficiency bound table ---------------------------

PUBLISHED_BOUNDS = (18, 15, 15, 14, 12, 12, 9, 12, 9, 12, 9)

# the catalog covers links on at most this many vertices and pairs
CATALOG_MAX_VERTICES = 8
CATALOG_MAX_EDGES = 6


class LinkClass(NamedTuple):
    vertices: int
    edge_count: int
    tree_count: int
    deficit: int
    degrees: tuple[int, ...]
    canon: tuple
    name: str | None


class CatalogReport(NamedTuple):
    classes: list
    strata: dict
    computed_bounds: tuple[int, ...]
    published_bounds: tuple[int, ...]
    discrepancies: tuple[str, ...]
    row_names: tuple[str, ...]


def _connected_classes(max_vertices, max_edges):
    """Isomorphism classes of connected graphs, >= 2 vertices, <= max_edges edges.

    Grown level by level from K2 (canonical augmentation, after Read 1978
    and McKay 1998): each new class representative on nv vertices and
    ne < max_edges edges is extended by every chord between two of its
    non-adjacent vertices and, while nv < max_vertices, by every pendant
    vertex; an extension is kept only if its canonical form is new.  This
    reaches every class: dropping non-tree edges and then leaves reduces
    any connected graph to K2 through connected graphs, each one edge
    smaller, so reversing the steps grows it from K2 by chords and
    pendants.  Extending one representative per class suffices, since
    isomorphic graphs have isomorphic extensions.  Returns
    {canonical form: (vertices, edges)}.
    """
    from . import twographs  # only the catalog needs it, not the sweep

    if max_vertices < 2 or max_edges < 1:
        return {}
    k2 = ((0, 1),)
    out = {twographs.canonical_connected([0, 1], k2): (2, 1)}
    level = [(2, k2)]
    for ne in range(2, max_edges + 1):
        grown = []
        for nv, pairs in level:
            present = set(pairs)
            steps = [p for p in combinations(range(nv), 2) if p not in present]
            if nv < max_vertices:
                steps += [(v, nv) for v in range(nv)]
            for p in steps:
                nv2 = max(nv, p[1] + 1)
                new = pairs + (p,)
                canon = twographs.canonical_connected(list(range(nv2)), new)
                if canon not in out:
                    out[canon] = (nv2, ne)
                    grown.append((nv2, new))
        level = grown
    return out


def _bound_from_structure(edge_count, degrees):
    l1 = sum(1 for d in degrees if d == 1)
    l2 = sum(1 for d in degrees if d == 2)
    l4 = sum(1 for d in degrees if d == 4)
    return 6 - edge_count + 2 * l1 + l2 + 2 * l4


def enumerate_link_catalog() -> CatalogReport:
    """All link shapes up to the catalog size, with the deficiency bound table.

    Enumerates every isomorphism class of 2-graphs without isolated
    vertices on at most CATALOG_MAX_VERTICES vertices with at most
    CATALOG_MAX_EDGES edges (connected classes first, then all disjoint
    combinations).  Classes whose deficit |V| - tree is at most 4 and
    that span at least 5 vertices are asserted to be exactly the named
    catalog, stratum by stratum, and for each named row both the
    recomputed bound 6 - |E| + 2*L1 + L2 + 2*L4 and the published value
    are reported.  Class names come from `twographs.shape_names`, so the
    4-vertex K4 and K4- classes carry theirs too.
    """
    conn = _connected_classes(CATALOG_MAX_VERTICES, CATALOG_MAX_EDGES)
    conn_list = sorted(conn.items(), key=lambda kv: (kv[1][0], kv[1][1], kv[0]))

    # depth-first in index order; children go on the stack last-first,
    # so each one's subtree is done before its next sibling is popped
    combos = []
    stack = [(0, 0, 0, ())]
    while stack:
        start, used_v, used_e, acc = stack.pop()
        if acc:
            combos.append(acc)
        for i in range(len(conn_list) - 1, start - 1, -1):
            nv, ne = conn_list[i][1]
            if used_v + nv <= CATALOG_MAX_VERTICES and used_e + ne <= CATALOG_MAX_EDGES:
                stack.append((i, used_v + nv, used_e + ne, acc + (i,)))

    from . import twographs

    shape_names = twographs.shape_names()

    # combos are non-decreasing index tuples, so each is a distinct multiset
    classes = []
    for combo in combos:
        parts = [conn_list[i] for i in combo]
        canon_multi = tuple(sorted(p[0] for p in parts))
        nv = sum(p[1][0] for p in parts)
        ne = sum(p[1][1] for p in parts)
        tree = sum(1 for p in parts if p[1][1] == p[1][0] - 1)
        degrees = []
        for p in parts:
            degrees.extend(p[0][1])
        degrees = tuple(sorted(degrees))
        name = shape_names.get(canon_multi)
        classes.append(
            LinkClass(nv, ne, tree, nv - tree, degrees, canon_multi, name)
        )

    strata = {s: [] for s in range(5, CATALOG_MAX_VERTICES + 1)}
    for c in classes:
        if c.deficit <= 4 and c.vertices >= 5:
            strata[c.vertices].append(c)

    for s, members in strata.items():
        for c in members:
            if c.name is None:
                raise InternalError(
                    f"unexpected link class in stratum |N|={s}: degrees {c.degrees}"
                )

    # the published catalog rows: the named link shapes on five or more vertices
    row_names = tuple(name for name, (k, _) in twographs.LINK_SHAPES if k >= 5)
    named = Counter(c.name for c in classes)
    for name in row_names:
        if named[name] != 1:
            raise InternalError(f"named class {name} not found exactly once")
    by_name = {c.name: c for c in classes}
    computed = tuple(
        _bound_from_structure(by_name[name].edge_count, by_name[name].degrees)
        for name in row_names
    )
    discrepancies = tuple(
        name for name, b, p in zip(row_names, computed, PUBLISHED_BOUNDS) if b != p
    )
    return CatalogReport(
        classes, strata, computed, PUBLISHED_BOUNDS, discrepancies, row_names
    )
