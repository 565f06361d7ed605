"""Core 3-uniform hypergraph type, links, and Berge degrees.

Conventions used throughout the package:

* vertices of an n-vertex hypergraph are the integers 0..n-1, isolated
  vertices are legal;
* an edge is a strictly ascending triple (a, b, c);
* the edge collection is a tuple sorted in strictly ascending
  lexicographic order, so equal hypergraphs compare equal.

The link L(v) is the 2-graph on N(v) whose pairs {x, y} correspond to
host edges {v, x, y}.  The Berge degree of v is

    d_B(v) = |N(v)| - tree(L(v)),

where tree(.) counts connected components of the link that are trees.
It equals the size of a maximum matching between the hyperedges at v and
the neighbors of v (the matching route is implemented independently in
the oracle module and cross-checked in tests).

All values here are immutable and all functions are pure; sharing across
threads is safe.
"""

from dataclasses import dataclass
import json

from .twographs import components


class FormatError(ValueError):
    """Malformed .h3 or JSON input.  Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InternalError(RuntimeError):
    """An invariant of the program itself failed: a bug, not bad input."""


class _EdgeError(ValueError):
    """A malformed edge; pos is its index in the edge sequence."""

    def __init__(self, pos, edge, problem):
        super().__init__(f"edge {pos} = {edge!r}: {problem}")
        self.pos = pos


def _validate_edges(vertex_count, edges):
    prev = None
    for pos, e in enumerate(edges):
        if len(e) != 3:
            raise _EdgeError(pos, e, "not a triple")
        a, b, c = e
        if not (0 <= a < b < c < vertex_count):
            if a < 0 or c >= vertex_count:
                raise _EdgeError(pos, e, f"vertex out of range [0, {vertex_count - 1}]")
            raise _EdgeError(pos, e, "not strictly ascending")
        if prev is not None and not (prev < e):
            if prev == e:
                raise _EdgeError(pos, e, "duplicate edge")
            raise _EdgeError(pos, e, "edges out of lexicographic order")
        prev = e


@dataclass(frozen=True)
class Hypergraph3:
    """Simple 3-uniform hypergraph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError(f"negative vertex count {self.vertex_count}")
        _validate_edges(self.vertex_count, self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def make(vertex_count, edges) -> Hypergraph3:
    """Build a Hypergraph3 from any iterable of triples, sorting as needed."""
    canon = sorted(tuple(sorted(e)) for e in edges)
    return Hypergraph3(vertex_count, tuple(canon))


@dataclass(frozen=True)
class LinkGraph:
    """The 2-graph induced on N(center) by host edges through center."""

    center: int
    neighbors: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BergeWitness:
    """An explicit Berge star at center: distinct edges mapped to distinct leaves."""

    center: int
    assignment: tuple[tuple[tuple[int, int, int], int], ...]


def incidence_index(g: Hypergraph3) -> list[list[int]]:
    """Edge indices incident to each vertex.  Build once for whole-graph sweeps."""
    idx: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for ei, (a, b, c) in enumerate(g.edges):
        idx[a].append(ei)
        idx[b].append(ei)
        idx[c].append(ei)
    return idx


def _check_vertex(g, v):
    if not isinstance(v, int) or not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex id {v!r} out of range [0, {g.vertex_count - 1}]")


def degree(g: Hypergraph3, v: int, index=None) -> int:
    _check_vertex(g, v)
    if index is not None:
        return len(index[v])
    return sum(1 for e in g.edges if v in e)


def link(g: Hypergraph3, v: int, index=None) -> LinkGraph:
    """Link of v.  `index` may be a precomputed incidence_index(g)."""
    _check_vertex(g, v)
    if index is not None:
        es = (g.edges[i] for i in index[v])
    else:
        es = (e for e in g.edges if v in e)
    pairs = []
    nbrs = set()
    for e in es:
        p = tuple(x for x in e if x != v)
        pairs.append(p)
        nbrs.update(p)
    return LinkGraph(v, tuple(sorted(nbrs)), tuple(sorted(pairs)))


def tree_components(l: LinkGraph) -> int:
    """Number of link components C with |E(C)| = |V(C)| - 1."""
    return sum(1 for verts, ec in components(l.neighbors, l.pairs) if ec == len(verts) - 1)


def berge_degree(g: Hypergraph3, v: int, index=None) -> int:
    """d_B(v) = |N(v)| - tree(L(v))."""
    l = link(g, v, index)
    return len(l.neighbors) - tree_components(l)


def _find_cycle(verts, adj):
    """First cycle by DFS from the lowest vertex, neighbors in ascending order.

    Returns the cycle as a list of vertices in cycle order.
    """
    start = verts[0]
    parent = {start: None}
    stack = [(start, iter(adj[start]))]
    while stack:
        u, it = stack[-1]
        advanced = False
        for w in it:
            if w == parent[u]:
                continue
            if w in parent:
                # back edge u-w closes the cycle: walk u up to w
                cyc = [u]
                p = parent[u]
                while p != w:
                    cyc.append(p)
                    p = parent[p]
                cyc.append(w)
                cyc.reverse()
                return cyc
            parent[w] = u
            stack.append((w, iter(adj[w])))
            advanced = True
            break
        if not advanced:
            stack.pop()
    raise InternalError("no cycle in a non-tree component")


def berge_witness(g: Hypergraph3, v: int, index=None) -> BergeWitness:
    """Greedy maximum Berge star at v.

    Tree components are leaf-peeled (their size minus one edges), non-tree
    components are matched around a cycle first and then expanded outward,
    always taking the lowest-index choice.  The result size always equals
    berge_degree(g, v).
    """
    l = link(g, v, index)
    adj: dict[int, list[int]] = {u: [] for u in l.neighbors}
    for x, y in l.pairs:
        adj[x].append(y)
        adj[y].append(x)
    for u in adj:
        adj[u].sort()

    assignment = []

    def emit(leaf, other):
        e = tuple(sorted((v, leaf, other)))
        assignment.append((e, leaf))

    for verts, ec in components(l.neighbors, l.pairs):
        if ec == len(verts) - 1:
            # tree: peel the lowest leaf until a single vertex remains
            deg = {u: len(adj[u]) for u in verts}
            local = {u: list(adj[u]) for u in verts}
            alive = set(verts)
            while len(alive) > 1:
                leaf = min(u for u in alive if deg[u] == 1)
                other = next(w for w in local[leaf] if w in alive)
                emit(leaf, other)
                alive.remove(leaf)
                deg[other] -= 1
        else:
            cyc = _find_cycle(verts, adj)
            r = len(cyc)
            for i in range(r):
                emit(cyc[i], cyc[(i + 1) % r])
            matched = set(cyc)
            rest = [u for u in verts if u not in matched]
            while rest:
                u = min(
                    u for u in rest if any(w in matched for w in adj[u])
                )
                w = min(w for w in adj[u] if w in matched)
                emit(u, w)
                matched.add(u)
                rest.remove(u)

    if len(assignment) != len(l.neighbors) - tree_components(l):
        raise InternalError(f"witness at {v} is not a maximum Berge star")
    return BergeWitness(v, tuple(assignment))


def disjoint_union(a: Hypergraph3, b: Hypergraph3) -> Hypergraph3:
    """a with b appended, b's vertices shifted up by a.vertex_count."""
    shift = a.vertex_count
    shifted = tuple(
        (x + shift, y + shift, z + shift) for x, y, z in b.edges
    )
    return Hypergraph3(a.vertex_count + b.vertex_count, a.edges + shifted)


def add_edge(g: Hypergraph3, e) -> Hypergraph3:
    e = tuple(sorted(e))
    if e in g.edges:
        raise ValueError(f"edge {e} already present")
    return make(g.vertex_count, g.edges + (e,))


def remove_edge(g: Hypergraph3, e) -> Hypergraph3:
    e = tuple(sorted(e))
    if e not in g.edges:
        raise ValueError(f"edge {e} not present")
    return Hypergraph3(g.vertex_count, tuple(x for x in g.edges if x != e))


# --- text formats ---------------------------------------------------------

# Largest vertex count the readers accept.  Every command that takes a
# graph file does per-vertex work, so a header alone must not be able to
# ask for billions of vertices.  2^20 is far above the n = 10008 of the
# largest witnesses that the tests and the benchmark build.
MAX_VERTICES = 2**20


def _check_vertex_cap(n, line=None):
    if n > MAX_VERTICES:
        raise FormatError(f"vertex count {n} exceeds the reader limit {MAX_VERTICES}", line)


def write_h3(g: Hypergraph3) -> str:
    lines = [f"h3 {g.vertex_count} {len(g.edges)}"]
    lines.extend(f"{a} {b} {c}" for a, b, c in g.edges)
    return "\n".join(lines) + "\n"


def read_h3(text: str) -> Hypergraph3:
    """Parse the .h3 format.  Raises FormatError with a 1-based line number."""
    header = None
    edges = []
    expect = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if header is None:
            parts = s.split()
            if len(parts) != 3 or parts[0] != "h3":
                raise FormatError(f"expected header 'h3 <n> <m>', got {raw!r}", lineno)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(f"non-integer header field in {raw!r}", lineno)
            if n < 0 or m < 0:
                raise FormatError(f"negative count in header {raw!r}", lineno)
            _check_vertex_cap(n, lineno)
            header = (n, m)
            expect = m
            continue
        parts = s.split()
        if len(parts) != 3:
            raise FormatError(f"expected 3 vertex ids, got {raw!r}", lineno)
        try:
            e = tuple(int(p) for p in parts)
        except ValueError:
            raise FormatError(f"non-integer vertex id in {raw!r}", lineno)
        if len(edges) >= expect:
            raise FormatError(f"more than {expect} edge lines", lineno)
        edges.append((lineno, e))
    if header is None:
        raise FormatError("missing 'h3 <n> <m>' header")
    n, m = header
    if len(edges) != m:
        raise FormatError(f"header promises {m} edges, found {len(edges)}")
    try:
        return Hypergraph3(n, tuple(e for _, e in edges))
    except _EdgeError as exc:
        raise FormatError(str(exc), edges[exc.pos][0]) from exc


def write_json(g: Hypergraph3) -> str:
    return json.dumps({"n": g.vertex_count, "edges": [list(e) for e in g.edges]})


def _is_int(x):
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def read_json(text: str) -> Hypergraph3:
    """Parse the JSON format.  Raises FormatError on any malformed input."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals;
        # the decoder recurses once per nesting level
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise FormatError("expected object with fields 'n' and 'edges'")
    n = obj["n"]
    if not _is_int(n):
        raise FormatError(f"field 'n' must be an integer, got {n!r}")
    _check_vertex_cap(n)
    raw = obj["edges"]
    if not isinstance(raw, list):
        raise FormatError("field 'edges' must be an array")
    edges = []
    for pos, e in enumerate(raw):
        if not (isinstance(e, list) and len(e) == 3 and all(_is_int(x) for x in e)):
            raise FormatError(f"edges[{pos}] must be an array of 3 integers, got {e!r}")
        edges.append(tuple(e))
    try:
        return Hypergraph3(n, tuple(edges))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
