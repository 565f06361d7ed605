"""Fixed building blocks: cliques, lanterns, suns, and the small
saturated pieces used to hit exact edge counts.

Every constructor returns a Hypergraph3 on a fixed id layout, documented
per function, so downstream overlay and surgery code can address
individual vertices.  All of these are deterministic.
"""

from itertools import combinations

from .hypercore import Hypergraph3, make


def _stars(apexes, group):
    """Every triple of one apex and two vertices of group."""
    return [(s, p, q) for s in apexes for p, q in combinations(group, 2)]


def clique3(s: int) -> Hypergraph3:
    """Complete 3-graph on s vertices; s < 3 gives isolated vertices."""
    if s < 0:
        raise ValueError(f"negative size {s}")
    return make(s, list(combinations(range(s), 3)))


def lantern(ell: int) -> Hypergraph3:
    """The lantern: two disjoint triples joined through three dense groups.

    Ids: outer v_0..v_2 = 0..2 and u_0..u_2 = 3..5; inner group i is
    X_i = {6 + (ell-2) i + j : j < ell-2}.  Edges are {0,1,2}, {3,4,5},
    and per group all triples inside {u_i} | X_i plus every {v_i, x, x'}
    with x, x' in X_i.  Outer links are K_{ell-2} + K_2, inner links
    K_{ell-1} minus one edge; every Berge degree equals ell - 1.
    """
    if ell < 5:
        raise ValueError(f"lantern needs ell >= 5, got {ell}")
    w = ell - 2
    edges = [(0, 1, 2), (3, 4, 5)]
    for i in range(3):
        group = [6 + w * i + j for j in range(w)]
        edges += _stars((i,), group)
        edges.extend(combinations([3 + i] + group, 3))
    return make(6 + 3 * w, edges)


def sun(ell: int) -> Hypergraph3:
    """The sun: a rim cycle x_0..x_{ell-2} with ell-3 hub vertices.

    Ids: hubs w_0..w_{ell-4} = 0..ell-4, rim x_j = (ell-3) + j.  Edges
    are {w_i, x_j, x_{j+1}} for all i and j (indices on the rim mod
    ell-1), giving (ell-1)(ell-3) edges; hub links are the cycle
    C_{ell-1}, rim links K_{2, ell-3}.
    """
    if ell < 5:
        raise ValueError(f"sun needs ell >= 5, got {ell}")
    hubs, rim = ell - 3, ell - 1
    edges = []
    for i in range(hubs):
        for j in range(rim):
            edges.append((i, hubs + j, hubs + (j + 1) % rim))
    return make(hubs + rim, edges)


def broken_lantern() -> Hypergraph3:
    """The 10-vertex, 15-edge piece B, a lantern with one group torn off.

    Ids: a_1, a_2 = 0, 1; v_1, v_2 = 2, 3; x_1..x_3 = 4..6;
    y_1..y_3 = 7..9.  One copy is saturated for ell = 5 and two disjoint
    copies still are; three are not, which is why the assembler never
    uses more than two.
    """
    a = (0, 1)
    v = (2, 3)
    x = (4, 5, 6)
    y = (7, 8, 9)
    return make(10, [(a[0], v[0], v[1]), x, y] + _stars(a, x) + _stars(v, y))


def gadget_D() -> Hypergraph3:
    """The 10-vertex, 14-edge piece D: two apex stars tied by two edges.

    Ids: a, b = 0, 1; x_1..x_4 = 2..5; y_1..y_4 = 6..9.
    """
    x = (2, 3, 4, 5)
    y = (6, 7, 8, 9)
    return make(10, _stars((0,), x) + _stars((1,), y) + [(x[0], x[1], y[0]), (y[2], y[3], x[3])])


def gadget_Q() -> Hypergraph3:
    """The 20-vertex, 29-edge piece Q: a lantern with its top edge
    replaced by a 5-vertex attachment.

    Ids 0..14 follow lantern(5); a = 15, b_1, b_2 = 16, 17,
    c_1, c_2 = 18, 19.  The lantern edge {0,1,2} is removed and seven
    edges through the new vertices take its place.
    """
    base = lantern(5)
    v1, v2, v3 = 0, 1, 2
    a, b1, b2, c1, c2 = 15, 16, 17, 18, 19
    edges = [e for e in base.edges if e != (0, 1, 2)]
    edges += [
        (a, b1, v1),
        (a, b2, v2),
        (a, b1, c1),
        (a, b2, c2),
        (c1, c2, v3),
        (b1, c1, c2),
        (b2, c1, c2),
    ]
    return make(20, edges)


def gadget_R() -> Hypergraph3:
    """The 15-vertex, 21-edge piece R: two broken-lantern halves sharing
    a tail vertex z.

    Ids: x_1, x_2 = 0, 1; y_1, y_2 = 2, 3; a_1..a_3 = 4..6;
    b_1, b_2 = 7, 8; c_1..c_3 = 9..11; d_1, d_2 = 12, 13; z = 14.
    """
    xs = (0, 1)
    ys = (2, 3)
    a = (4, 5, 6)
    b1, b2 = 7, 8
    c = (9, 10, 11)
    d1, d2 = 12, 13
    z = 14
    edges = _stars(xs, a) + _stars(xs, (b1, b2)) + _stars(ys, c) + _stars(ys, (d1, d2))
    return make(15, edges + [a, c, (b1, b2, z), (d1, d2, z), (b1, b2, d1)])


def l4_sparse(n: int) -> Hypergraph3:
    """A saturated graph for ell = 4 on n >= 9 vertices with only n - 1 edges.

    The base, the cyclic configuration {i, i+1, i+3} mod q on q = n - 2
    vertices, is linear (the differences +-1, +-2, +-3 are distinct mod
    q >= 7) and 3-regular, so every base link is 3K2: d_B = 3 = ell - 1
    and NT is empty.  Splitting its first edge {x, y, z} across two new
    vertices u = n-2 and v = n-1 keeps x, y and z at 3K2; only u (2K2)
    and v (K2) are non-full.  So every absent triple holds a full vertex
    with an empty NT set, and the pair-insertion rule lifts it.
    """
    if n < 9:
        raise ValueError(f"need n >= 9 for the sparse construction, got {n}")
    q = n - 2
    base = make(q, [(i, (i + 1) % q, (i + 3) % q) for i in range(q)])
    (x, y, z), u, v = base.edges[0], q, q + 1
    return make(n, base.edges[1:] + ((x, u, v), (y, z, u)))
