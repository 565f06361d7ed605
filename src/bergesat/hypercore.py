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
the oracle module and cross-checked in tests).  `LinkPass` is the
package's one answer for links, Berge degrees and NT sets; `link` and
`tree_components` compute one link and its tree count on their own, as
a sorted reference for the tests and a named hook for perfbench's
tracer.  One union-find, `component_counts`, is the package's only
component finder; `LinkPass` runs it on every link, with a shortcut for
matching and complete links.

All functions are pure, and Hypergraph3 and the named-tuple records are
immutable and safe to share across threads: Hypergraph3 refuses
assignment and compares and hashes by value.  A LinkPass is not: its
per-vertex lists (through, nontree, clique) are mutable, filled on
construction and read in place by the one caller that built it.
"""

from collections import Counter
from itertools import chain, islice
import json
import re
from typing import NamedTuple


class FormatError(ValueError):
    """Malformed .h3 or JSON input.  Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InternalError(RuntimeError):
    """An invariant of the program itself failed: a bug, not bad input."""


class SamplerBudgetError(RuntimeError):
    """Raised when max_tries is exhausted; carries the stats so far."""

    def __init__(self, message, stats):
        super().__init__(message)
        self.stats = stats


class _EdgeError(ValueError):
    """A malformed edge; pos is its index in the edge sequence."""

    def __init__(self, pos, edge, problem):
        super().__init__(f"edge {pos} = {edge!r}: {problem}")
        self.pos = pos


def _validate_edges(vertex_count, edges):
    prev = None
    for pos, e in enumerate(edges):
        if type(e) is not tuple or len(e) != 3:
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


class Hypergraph3:
    """Simple 3-uniform hypergraph on vertices 0..vertex_count-1, with the
    edges a tuple of triples; validated on construction, then immutable."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: tuple):
        if vertex_count < 0:
            raise ValueError(f"negative vertex count {vertex_count}")
        if type(edges) is not tuple:
            raise ValueError(f"edges must be a tuple of triples, got {type(edges).__name__}")
        _validate_edges(vertex_count, edges)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Hypergraph3")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return Hypergraph3, (self.vertex_count, self.edges)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"Hypergraph3(vertex_count={self.vertex_count!r}, edges={self.edges!r})"


def make(vertex_count, edges) -> Hypergraph3:
    """Build a Hypergraph3 from any iterable of triples, sorting as needed."""
    canon = sorted(tuple(sorted(e)) for e in edges)
    return Hypergraph3(vertex_count, tuple(canon))


class LinkGraph(NamedTuple):
    """The 2-graph induced on N(center) by host edges through center."""

    center: int
    neighbors: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]


def link(g: Hypergraph3, v: int) -> LinkGraph:
    """Link of v, sorted, from one scan of the edges.  No command calls
    it: `LinkPass` builds every link of a graph at once, and this is the
    tests' sorted reference and a name perfbench's tracer wraps."""
    if not isinstance(v, int) or not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex id {v!r} out of range [0, {g.vertex_count - 1}]")
    pairs = sorted(tuple(x for x in e if x != v) for e in g.edges if v in e)
    return LinkGraph(v, tuple(sorted(set(chain.from_iterable(pairs)))), tuple(pairs))


class LinkPass:
    """Every link of a 3-graph on n vertices, decomposed one vertex at a time.

    Two link shapes cover nearly every vertex of a built witness and are
    decided from |pairs| and |N(v)| alone.  Pairs that share no vertex
    (|N(v)| = 2 |pairs|, every link of a linear 3-graph) form a forest of
    K2s: d_B(v) = |pairs|, NT(v) is empty.  A complete link K_k with
    k >= 3 (every link of a clique block) is one non-tree component:
    d_B(v) = k, NT(v) = N(v).  Any other link runs `component_counts`
    over its pairs, and a component is a tree iff it has one pair fewer
    than vertices.  The fields are read in place, indexed by vertex:
    through[v] lists the given triples through v, in order (ascending
    for a Hypergraph3), and `pairs(v)` derives L(v) from them; nontree[v]
    is NT(v), a tuple for a complete link, else a frozenset; degrees[v] =
    d_B(v) = |N(v)| - trees(v), and clique[v] holds iff NT(v) is a clique
    in L(v), i.e. v's non-tree components have C(|NT(v)|, 2) pairs.
    """

    def __init__(self, n, edges):
        self.through = through = [[] for _ in range(n)]
        for e in edges:
            a, b, c = e
            through[a].append(e)
            through[b].append(e)
            through[c].append(e)
        self.nontree = [frozenset()] * n
        self.clique = [True] * n
        degrees = [len(es) for es in through]
        for v, es in enumerate(through):
            if len(es) <= 1:  # no link, or one K2: d_B = |pairs|, NT empty
                continue
            nbrs = set(chain.from_iterable(es))
            k = len(nbrs) - 1  # |N(v)|: every triple in es holds v
            if k == 2 * len(es):
                continue
            if k * (k - 1) == 2 * len(es):
                nbrs.discard(v)
                degrees[v], self.nontree[v] = k, tuple(nbrs)
                continue
            label, size, held = component_counts(self.pairs(v))
            cyclic = {r for r, s in size.items() if held[r] >= s}
            nt = frozenset(x for x, r in label.items() if r in cyclic)
            degrees[v] = k - len(size) + len(cyclic)
            self.clique[v] = sum(held[r] for r in cyclic) == len(nt) * (len(nt) - 1) // 2
            self.nontree[v] = nt
        self.degrees = tuple(degrees)

    def pairs(self, v):
        """The pairs of L(v), unsorted: each edge through v less v."""
        return [(b, c) if v == a else (a, c) if v == b else (a, b) for a, b, c in self.through[v]]


def component_counts(pairs):
    """(label, size, held) of the 2-graph given by its pairs: label maps
    each vertex to the root of its component, size and held count the
    vertices and the pairs under each root.  The package's one component
    finder, an iterative union-find with path halving, so a long path
    link cannot exhaust the recursion limit."""
    parent = {}

    def root(x):
        while x != (up := parent.setdefault(x, x)):
            parent[x] = x = parent[up]
        return x

    for x, y in pairs:
        x, y = root(x), root(y)
        parent[max(x, y)] = min(x, y)
    label = {x: root(x) for x in parent}
    return label, Counter(label.values()), Counter(label[x] for x, _ in pairs)


def tree_components(l: LinkGraph) -> int:
    """Number of link components C with |E(C)| = |V(C)| - 1."""
    _, size, held = component_counts(l.pairs)
    return sum(held[r] == s - 1 for r, s in size.items())


def disjoint_union(*parts: Hypergraph3) -> Hypergraph3:
    """The parts side by side, each shifted up by the vertex counts before
    it.  Each part's edges are sorted and the shifts ascend, so the
    concatenation is already canonical; unshifted parts lend their triples."""
    edges = []
    shift = 0
    for g in parts:
        edges.extend(((x + shift, y + shift, z + shift) for x, y, z in g.edges)
                     if shift else g.edges)
        shift += g.vertex_count
    return Hypergraph3(shift, tuple(edges))


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

# Largest --m that `build` accepts, so m alone cannot ask for billions of
# triples; far above the 25,590 edges of the largest n = 10008 witness.
MAX_EDGES = 2**22

_CHUNK = 1 << 12  # characters per split in the .h3 reader, some 700 ids
_CANONICAL = re.compile(r"(?:[0-9]+ [0-9]+ [0-9]+\n)*")  # as write_h3 writes edges


def _check_vertex_cap(n, line=None):
    if n > MAX_VERTICES:
        raise FormatError(f"vertex count {n} exceeds the reader limit {MAX_VERTICES}", line)


def write_h3(g: Hypergraph3) -> str:
    lines = [f"h3 {g.vertex_count} {len(g.edges)}"]
    lines.extend(f"{a} {b} {c}" for a, b, c in g.edges)
    return "\n".join(lines) + "\n"


def _lines(text):
    """The lines of text.split("\n"), split some _CHUNK characters at a time."""
    start = 0
    while (end := text.find("\n", start + _CHUNK)) >= 0:
        yield from text[start:end].split("\n")
        start = end + 1
    yield from text[start:].split("\n")


def read_h3(text: str) -> Hypergraph3:
    """Parse the .h3 format.  Raises FormatError with a 1-based line number.
    A chunk of lines as write_h3 writes them is read in bulk; other chunks,
    the header and every error go through the line loop."""
    m = None  # until the header is read
    edges = []
    start = lineno = 0  # lineno: the lines before text[start:]
    while start < len(text):
        # one line at a time up to the header, then whole-line chunks
        end = text.find("\n", start + (_CHUNK if m is not None else 0)) + 1 or len(text)
        chunk, start, first = text[start:end], end, lineno + 1
        lineno += (lines := chunk.count("\n"))
        if m is not None and len(edges) + lines <= m and _CANONICAL.fullmatch(chunk):
            count = len(edges)
            try:
                # one id iterator, zipped with itself: three ids per triple
                edges.extend(zip(*[map(ids.__getitem__, chunk.split())] * 3))
                continue
            except KeyError:  # an id such as 00, or one outside the table
                del edges[count:]
        for line, raw in enumerate(chunk.split("\n"), first):
            parts = raw.split()
            if not parts or parts[0][0] == "#":
                continue
            if m is None:
                if len(parts) != 3 or parts[0] != "h3":
                    raise FormatError(f"expected header 'h3 <n> <m>', got {raw!r}", line)
                try:
                    n, m = int(parts[1]), int(parts[2])
                except ValueError:
                    raise FormatError(f"non-integer header field in {raw!r}", line)
                if n < 0 or m < 0:
                    raise FormatError(f"negative count in header {raw!r}", line)
                _check_vertex_cap(n, line)
                # one shared int per vertex id, in a table no larger than the text
                ids = {str(v): v for v in range(min(n, len(text) // 2))}
                continue
            if len(parts) != 3:
                raise FormatError(f"expected 3 vertex ids, got {raw!r}", line)
            try:
                a, b, c = map(ids.get, parts)
                if a is None or b is None or c is None:
                    a, b, c = map(int, parts)
            except ValueError:
                raise FormatError(f"non-integer vertex id in {raw!r}", line)
            if len(edges) >= m:
                raise FormatError(f"more than {m} edge lines", line)
            edges.append((a, b, c))
    if m is None:
        raise FormatError("missing 'h3 <n> <m>' header")
    if len(edges) != m:
        raise FormatError(f"header promises {m} edges, found {len(edges)}")
    del ids, chunk  # freed before the edges are copied into a tuple
    try:
        return Hypergraph3(n, tuple(edges))
    except _EdgeError as exc:
        # a second scan, on this error path only: edge pos is on the
        # (pos + 2)-th line that is neither blank nor a comment
        kept = (i for i, raw in enumerate(_lines(text), 1) if raw.lstrip()[:1] not in ("", "#"))
        raise FormatError(str(exc), next(islice(kept, exc.pos + 1, None))) from exc


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
    edges, ids = [], {}  # ids: the first int read of each value, shared as in read_h3
    for pos, e in enumerate(raw):
        if not (isinstance(e, list) and len(e) == 3 and all(_is_int(x) for x in e)):
            raise FormatError(f"edges[{pos}] must be an array of 3 integers, got {e!r}")
        edges.append(tuple(map(ids.setdefault, e, e)))
    try:
        return Hypergraph3(n, tuple(edges))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
