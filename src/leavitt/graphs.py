"""Finite directed graphs and the combinatorics the algebra rests on.

A graph is a finite list of named vertices plus a finite list of named edges,
each with a source and a range vertex. Names live in one shared namespace (a
vertex and an edge may never collide), so a bare name in an expression or an
output line is always unambiguous. Declaration order is preserved everywhere
and every function iterates in it, which makes all downstream computation
deterministic.

Alongside the data type live the purely combinatorial notions the algebraic
decision procedures consume: reachability trees, bifurcations, line points
and the minimality of the left ideal a vertex generates, hereditary and
saturated vertex sets with their closure, acyclicity, Condition (L) and the
simplicity of the algebra, quotient graphs, and the hedgehog extension of a
hereditary set by its entry paths. Each whole-graph notion is one sweep, or
a few, over the vertices and edges; no routine enumerates cycles or
recomputes a tree per vertex.

Every question about where the cycles sit (acyclicity, the path counts at
the sinks, H, the line points and minimal vertex ideals, Condition (L),
simplicity, the special edges of the quotient by H, the components the
blocking-cycle search stays in) reads one search, run on the first such
query and kept on the graph. The other sweeps (tree, hereditary and
saturated checks and closure, the backward and blocking-cycle searches,
entry_paths, hedgehog_graph) check their vertex arguments once, at entry,
and then read the graph's adjacency maps: out-edges from ``Graph._out``
and in-edges from ``Graph._in_map()``, built on first use and kept, both
in declaration order. entry_paths and hedgehog_graph start from the
edges entering their set, found by one scan of the out-edges, so a set
that no edge enters builds no in-edges. Only the public lookups check a
vertex on every call.

Graphs are checked likewise, once, where their parts enter: the Graph
constructor checks that each edge is a (name, source, range) triple, every
name (a non-empty unique string) and endpoint.
parse_graph checks a text with line numbers, quotient_graph restricts a
checked graph to a hereditary saturated complement, and hedgehog_graph
counts its distinct names; each then builds through the unchecked
Graph._built, which no other code calls. The socle's membership test builds
the quotient by the kept H through the same trusted core as quotient_graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import filterfalse, islice, takewhile
from typing import Iterable, Iterator, NamedTuple


class GraphError(Exception):
    """Base class for graph construction and query failures."""


class GraphParseError(GraphError):
    """A graph description could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class UnknownVertexError(GraphError):
    """A vertex name does not occur in the graph."""


class SubsetError(GraphError):
    """A vertex subset lacks a property the operation requires."""


class CycleError(GraphError):
    """A path fails to be the kind of cycle the operation requires."""


class CyclicGraphError(GraphError):
    """An operation defined only for acyclic graphs met a cycle."""


class Edge(NamedTuple):
    name: str
    source: str
    range: str


class Path(NamedTuple):
    """A finite directed path: a source vertex plus a tuple of edge names.

    An empty edge tuple is the trivial path at its source. Build paths
    through Graph.path, Graph.trivial_path, or Graph.concat so that
    consecutive edges are checked to chain; Graph.require_path checks one
    built directly.

    A path is the immutable tuple (source, edges, range) with named
    fields, so it hashes and compares in C, as that tuple, and carries no
    per-instance dictionary; its length is its number of edges.
    """

    source: str
    edges: tuple[str, ...]
    range: str

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def is_trivial(self) -> bool:
        return not self.edges


def _iterate(items: Iterable, what: str) -> Iterator:
    """iter(items), or a GraphError when they are not iterable; an error
    raised while they are iterated is not caught."""
    try:
        return iter(items)
    except TypeError:
        raise GraphError("%s %r are not iterable" % (what, items)) from None


class Graph:
    """An immutable finite directed graph with named vertices and edges."""

    __slots__ = ("vertices", "edges", "_vindex", "_eindex", "_out", "_in", "_hash", "_cycles")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge] = ()):
        vertices = tuple(_iterate(vertices, "vertices"))
        if not vertices:
            raise GraphError("a graph needs at least one vertex")
        names: set[str] = set()
        for v in vertices:
            if not isinstance(v, str):
                raise GraphError("vertex name %r is not a string" % (v,))
            if not v:
                raise GraphError("empty vertex name")
            if v in names:
                raise GraphError("duplicate name %r" % v)
            names.add(v)
        vset = frozenset(names)
        checked = []
        for e in _iterate(edges, "edges"):
            if not isinstance(e, Edge):
                try:
                    e = Edge(*e)
                except TypeError:
                    raise GraphError(
                        "edge %r is not a (name, source, range) triple" % (e,)
                    ) from None
            if not isinstance(e.name, str):
                raise GraphError("edge name %r is not a string" % (e.name,))
            if not e.name:
                raise GraphError("empty edge name")
            if e.name in names:
                raise GraphError("duplicate name %r" % e.name)
            names.add(e.name)
            # Only a string can be a vertex; the test comes before hashing.
            if not isinstance(e.source, str) or e.source not in vset:
                raise GraphError("edge %r has unknown source %r" % (e.name, e.source))
            if not isinstance(e.range, str) or e.range not in vset:
                raise GraphError("edge %r has unknown range %r" % (e.name, e.range))
            checked.append(e)
        self._build(vertices, tuple(checked))

    @classmethod
    def _built(cls, vertices: tuple[str, ...], edges: tuple[Edge, ...]) -> Graph:
        """A graph from parts its caller has already checked as __init__
        would; only parse_graph, _quotient_graph and hedgehog_graph use it."""
        graph = cls.__new__(cls)
        graph._build(vertices, edges)
        return graph

    def _build(self, vertices: tuple[str, ...], edges: tuple[Edge, ...]) -> None:
        """Fill the slots from checked parts; the only code that does."""
        self.vertices = vertices
        self.edges = edges
        self._vindex = {v: i for i, v in enumerate(vertices)}
        self._eindex = {e.name: i for i, e in enumerate(edges)}
        out: dict[str, list[Edge]] = {v: [] for v in vertices}
        for e in edges:
            out[e.source].append(e)
        self._out = {v: tuple(es) for v, es in out.items()}
        self._in: dict[str, tuple[Edge, ...]] | None = None
        self._hash: int | None = None
        self._cycles: _Cycles | None = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and other.vertices == self.vertices
            and other.edges == self.edges
        )

    def __hash__(self) -> int:
        # Computed once, on first use: algebras and elements hash through
        # their graph.
        if self._hash is None:
            self._hash = hash((self.vertices, self.edges))
        return self._hash

    def __repr__(self) -> str:
        return "Graph(%d vertices, %d edges)" % (len(self.vertices), len(self.edges))

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def has_vertex(self, name: str) -> bool:
        return name in self._vindex

    def require_vertex(self, name: str) -> str:
        if name not in self._vindex:
            raise UnknownVertexError("unknown vertex %r" % name)
        return name

    def vertex_index(self, name: str) -> int:
        self.require_vertex(name)
        return self._vindex[name]

    def has_edge(self, name: str) -> bool:
        return name in self._eindex

    def edge(self, name: str) -> Edge:
        try:
            return self.edges[self._eindex[name]]
        except KeyError:
            raise GraphError("unknown edge %r" % name) from None

    def out_edges(self, vertex: str) -> tuple[Edge, ...]:
        try:
            return self._out[vertex]
        except KeyError:
            raise UnknownVertexError("unknown vertex %r" % vertex) from None

    def _in_map(self) -> dict[str, tuple[Edge, ...]]:
        """The in-edges of every vertex, keyed in declaration order; built
        on first use, like the hash, since the algebra, the reduction and
        the search of the cycles never follow edges backwards."""
        if self._in is None:
            inn: dict[str, list[Edge]] = {v: [] for v in self.vertices}
            for e in self.edges:
                inn[e.range].append(e)
            self._in = {v: tuple(es) for v, es in inn.items()}
        return self._in

    def in_edges(self, vertex: str) -> tuple[Edge, ...]:
        try:
            return self._in_map()[vertex]
        except KeyError:
            raise UnknownVertexError("unknown vertex %r" % vertex) from None

    def out_degree(self, vertex: str) -> int:
        return len(self.out_edges(vertex))

    def is_sink(self, vertex: str) -> bool:
        return not self.out_edges(vertex)

    def sinks(self) -> tuple[str, ...]:
        return tuple(filterfalse(self._out.__getitem__, self.vertices))

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    def trivial_path(self, vertex: str) -> Path:
        self.require_vertex(vertex)
        return Path(vertex, (), vertex)

    def _walk(self, source: str, names: tuple[str, ...]) -> str:
        """The vertex the named edges lead to from the source, checking
        that the source exists and that the edges chain."""
        self.require_vertex(source)
        edges, eindex = self.edges, self._eindex
        at = source
        try:
            for name in names:
                e = edges[eindex[name]]
                if e.source != at:
                    raise GraphError(
                        "edge %r starts at %r, expected %r" % (name, e.source, at)
                    )
                at = e.range
        except KeyError:
            raise GraphError("unknown edge %r" % (name,)) from None
        return at

    def path(self, source: str, edge_names: Iterable[str]) -> Path:
        """Build a path from its source and edge names, checking the chain."""
        names = edge_names
        if type(names) is not tuple:  # a tuple is shared, as tuple() would
            names = tuple(_iterate(names, "edge names"))
        return Path(source, names, self._walk(source, names))

    def require_path(self, path: Path) -> Path:
        """Check a path built directly: its edges chain from its source and
        end at its range. Builds nothing."""
        at = self._walk(path.source, path.edges)
        if at != path.range:
            raise GraphError(
                "path %r from %r ends at %r, not at its range %r"
                % (path.edges, path.source, at, path.range)
            )
        return path

    def concat(self, first: Path, second: Path) -> Path:
        if first.range != second.source:
            raise GraphError(
                "paths do not chain: %r ends at %r, next starts at %r"
                % (first.edges, first.range, second.source)
            )
        return Path(first.source, first.edges + second.edges, second.range)

    def extend(self, path: Path, edge: Edge) -> Path:
        """Append one edge; the caller guarantees edge.source == path.range."""
        return Path(path.source, path.edges + (edge.name,), edge.range)

    def path_vertices(self, path: Path) -> tuple[str, ...]:
        """The len(path)+1 vertices the path visits, in order."""
        out = [path.source]
        for name in path.edges:
            out.append(self.edge(name).range)
        return tuple(out)

    def path_sort_key(self, path: Path) -> tuple:
        """Shortlex: length, then source index, then edge indices."""
        return (
            len(path.edges),
            self._vindex[path.source],
            tuple(map(self._eindex.__getitem__, path.edges)),
        )

    def sorted_vertices(self, subset: Iterable[str]) -> tuple[str, ...]:
        """The given vertices in declaration order, validated; all of them
        are the declaration itself."""
        vs = _vertex_set(self, subset)
        if len(vs) == len(self.vertices):
            return self.vertices
        return tuple(sorted(vs, key=self._vindex.__getitem__))


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_]\w*\Z")
_EDGE_RE = re.compile(
    r"edge\s+([A-Za-z_]\w*)\s*:\s*([A-Za-z_]\w*)\s*->\s*([A-Za-z_]\w*)\Z"
)


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Lines are either ``vertices: name name ...`` (may repeat, lists
    accumulate), ``edge name: source -> range``, blank, or a ``#`` comment.
    Edges may be declared before the vertices line that introduces their
    endpoints; endpoint existence is checked once the whole text is read.
    """
    # The parts are read in their own frame, so the reader's tables are
    # freed before the graph builds its own.
    return Graph._built(*_graph_parts(text))


def _graph_parts(text: str) -> tuple[tuple[str, ...], tuple[Edge, ...]]:
    """The checked vertices and edges of a graph text, for parse_graph."""
    vertices: list[str] = []
    # Every name declared so far: a vertex maps to itself, so that edges
    # share its string instead of keeping the copies the regular
    # expression made of their endpoints, and an edge maps to None.
    names: dict[str, str | None] = {}
    pending: list[tuple[str, str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            body = line[len("vertices:"):].strip()
            if not body:
                raise GraphParseError("empty vertex list", lineno)
            for name in body.split():
                if not _NAME_RE.match(name):
                    raise GraphParseError("bad vertex name %r" % name, lineno)
                if name in names:
                    raise GraphParseError("duplicate name %r" % name, lineno)
                names[name] = name
                vertices.append(name)
            continue
        m = _EDGE_RE.match(line)
        if m:
            name, source, range_ = m.groups()
            if name in names:
                raise GraphParseError("duplicate name %r" % name, lineno)
            names[name] = None
            pending.append((name, names.get(source) or source, names.get(range_) or range_, lineno))
            continue
        raise GraphParseError("cannot parse %r" % line, lineno)
    if not vertices:
        raise GraphParseError("no vertices declared")
    edges = []
    for name, source, range_, lineno in pending:
        if names.get(source) is None:
            raise GraphParseError("unknown source vertex %r" % source, lineno)
        if names.get(range_) is None:
            raise GraphParseError("unknown range vertex %r" % range_, lineno)
        edges.append(Edge(name, names[source], names[range_]))
    return tuple(vertices), tuple(edges)


# ----------------------------------------------------------------------
# reachability, bifurcations, line points
# ----------------------------------------------------------------------

def tree(graph: Graph, vertices: str | Iterable[str]) -> frozenset[str]:
    """All vertices reachable from the given ones, themselves included.

    Accepts a single vertex name or any iterable of names.
    """
    seeds = _vertex_set(graph, [vertices] if isinstance(vertices, str) else vertices)
    out = graph._out
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        at = stack.pop()
        for e in out[at]:
            if e.range not in seen:
                seen.add(e.range)
                stack.append(e.range)
    return frozenset(seen)


def is_bifurcation(graph: Graph, vertex: str) -> bool:
    return graph.out_degree(vertex) >= 2


class _Cycles(NamedTuple):
    """Where the graph's cycles sit, as _cycles finds it."""

    component: dict[str, str]  # each vertex to the root of its component
    counts: dict[str, int | None]  # paths ending at each sink, None if infinite
    h: frozenset[str]
    line: frozenset[str]
    condition_L: bool
    closes: bool  # the closure of a component that no edge leaves is all
    shifted: frozenset[str]  # special edges of E/H that are not special in E


def _cycles(graph: Graph) -> _Cycles:
    """The one search for the graph's cycles, run by the first query that
    needs it and kept on the graph for every later one.

    Tarjan's search over the out-edges, from each vertex in declaration
    order, maps each vertex to the root of its strongly connected component
    and lists the vertices in the order it completes their components, each
    one contiguous with its root last. So an edge that leaves a component
    enters one completed earlier, and a vertex is on a cycle exactly when an
    out-edge stays in its component. In that order, a vertex joins H (the
    vertices that reach no cycle) when all its out-edges enter H, and is a
    line point when it is a sink or its one out-edge enters a line point;
    Condition (L) holds when every cyclic component has a vertex whose
    out-edges are not exactly one edge inside it. A vertex outside H whose
    first out-edge enters H has another special edge in the quotient E/H:
    its first out-edge that stays outside H. In reverse order, every edge
    into a vertex from another component comes before its turn, so the
    number of paths ending there is final then (None on a cycle, where it is
    infinite): it is pushed along the vertex's out-edges and dropped, unless
    the vertex is a sink. So the search holds only the counts still to push
    and keeps only the sinks'; a push that finds a count dropped stays in a
    cyclic component, where every count is None. The first component
    completed is one that no edge leaves, and its closure is every vertex
    exactly when each vertex outside it has out-edges and lies on no cycle:
    such vertices join in completion order, and no vertex of another cycle,
    or sink, ever can.
    """
    if graph._cycles is not None:
        return graph._cycles
    out = graph._out
    # Positions on the stack stand in for discovery indices: below a vertex
    # still on it, the stack keeps its vertices in discovery order.
    low: dict[str, int] = {}
    component: dict[str, str] = {}
    order: list[str] = []
    stack: list[str] = []
    for start in graph.vertices:
        if start in low:
            continue
        low[start] = len(stack)
        work = [(start, iter(out[start]), len(stack))]
        stack.append(start)
        while work:
            v, edges, at = work[-1]
            for e in edges:
                w = e.range
                if w not in low:
                    low[w] = len(stack)
                    work.append((w, iter(out[w]), len(stack)))
                    stack.append(w)
                    break
                if w not in component:
                    low[v] = min(low[v], low[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == at:
                    component.update(dict.fromkeys(stack[at:], v))
                    order += reversed(stack[at:])
                    del stack[at:]

    h: set[str] = set()
    line: set[str] = set()
    shifted: set[str] = set()
    condition_l = exitless = True
    for v in order:
        es = out[v]
        if all(e.range in h for e in es):
            h.add(v)
        elif es[0].range in h:
            shifted.add(next(e.name for e in es if e.range not in h))
        if not es or len(es) == 1 and es[0].range in line:
            line.add(v)
        exitless = exitless and len(es) == 1 and component[es[0].range] == component[v]
        if v == component[v]:
            condition_l, exitless = condition_l and not exitless, True

    counts: dict[str, int | None] = dict.fromkeys(graph.vertices, 1)
    terminal, closes = component[order[0]], True
    for v in reversed(order):
        es = out[v]
        on_cycle = any(component[e.range] == component[v] for e in es)
        if (on_cycle or not es) and component[v] != terminal:
            closes = False
        n = counts.pop(v) if es else None  # a sink keeps its count
        for e in es:
            if counts.get(e.range) is not None:
                counts[e.range] = None if on_cycle or n is None else counts[e.range] + n

    # The counts are copied: a dict keeps the table it grew to for every
    # vertex when its entries are dropped, and only the sinks' are left.
    graph._cycles = _Cycles(
        component, dict(counts), frozenset(h), frozenset(line), condition_l, closes,
        frozenset(shifted),
    )
    return graph._cycles


def _path_counts(graph: Graph) -> dict[str, int | None]:
    """Paths ending at each sink, the trivial one included, keyed by the
    sinks in declaration order; None where a cycle reaches the sink. Only
    the socle's summands read them."""
    return _cycles(graph).counts


def is_acyclic(graph: Graph) -> bool:
    """Whether the graph has no closed path: every vertex is in H."""
    return len(_cycles(graph).h) == len(graph.vertices)


def line_points(graph: Graph) -> tuple[str, ...]:
    """Vertices whose tree has no bifurcation and meets no cycle, in order."""
    return tuple(filter(_cycles(graph).line.__contains__, graph.vertices))


def vertex_ideal_minimal(graph: Graph, vertex: str) -> bool:
    """Whether the left ideal the vertex generates is minimal: the vertex
    must be a line point (its tree has no bifurcation and meets no cycle)."""
    return graph.require_vertex(vertex) in _cycles(graph).line


# ----------------------------------------------------------------------
# hereditary and saturated sets
# ----------------------------------------------------------------------

def _vertex_set(graph: Graph, subset: Iterable[str]) -> frozenset[str]:
    """The given vertices as a set, checked to lie in the graph.

    One subset test checks them all; only when it fails is an unknown
    vertex named: the one whose repr sorts first, so that the message does
    not depend on the order in which the set hashes its names. Only a
    string can be a vertex, so a name that cannot be hashed is unknown too;
    a subset that is not iterable raises GraphError, as in the constructor.
    """
    if not isinstance(subset, (set, frozenset)):
        subset = tuple(_iterate(subset, "vertices"))
    vindex = graph._vindex
    try:
        vs = frozenset(subset)
    except TypeError:
        vs = None
    if vs is None or not vs <= vindex.keys():
        unknown = [v for v in subset if not isinstance(v, str) or v not in vindex]
        raise UnknownVertexError("unknown vertex %r" % (min(unknown, key=repr),))
    return vs


def _integer(value: int, what: str) -> int:
    """The value, checked to be an int (a bool is not one)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise GraphError("%s %r is not an integer" % (what, value))
    return value


def _depth_bound(graph: Graph, depth_bound: int | None) -> int:
    """A hedgehog depth bound, vertex count + 1 when None, checked to be a
    nonnegative int."""
    if depth_bound is None:
        return len(graph.vertices) + 1
    if _integer(depth_bound, "hedgehog depth bound") < 0:
        raise GraphError("negative hedgehog depth bound %d" % depth_bound)
    return depth_bound


def is_hereditary(graph: Graph, subset: Iterable[str]) -> bool:
    """Closed under ranges: an edge out of the set cannot leave it. The
    whole vertex set is, without a look at its edges."""
    h = _vertex_set(graph, subset)
    if len(h) == len(graph.vertices):
        return True
    out = graph._out
    return all(e.range in h for v in h for e in out[v])


def is_saturated(graph: Graph, subset: Iterable[str]) -> bool:
    """Contains every non-sink all of whose edge ranges it contains."""
    h = _vertex_set(graph, subset)
    for v, es in graph._out.items():
        if v in h or not es:
            continue
        if all(e.range in h for e in es):
            return False
    return True


def hereditary_saturated_closure(graph: Graph, subset: Iterable[str]) -> frozenset[str]:
    """The least hereditary and saturated superset.

    A worklist: each vertex that joins pulls in its ranges, and a vertex
    joins once none of its out-edges leaves the set any more.
    """
    h = set(_vertex_set(graph, subset))
    out, inn = graph._out, graph._in_map()
    leaving = {v: len(es) for v, es in out.items()}
    joined = list(h)
    for v in joined:
        joining = [e.range for e in out[v]]
        for e in inn[v]:
            leaving[e.source] -= 1
            if not leaving[e.source]:
                joining.append(e.source)
        for u in joining:
            if u not in h:
                h.add(u)
                joined.append(u)
    return frozenset(h)


# ----------------------------------------------------------------------
# cycles and Condition (L)
# ----------------------------------------------------------------------

def require_cycle(graph: Graph, path: Path) -> Path:
    """Check that a path of the graph is a simple cycle: nontrivial, closed, no revisits."""
    if path.is_trivial:
        raise CycleError("the trivial path is not a cycle")
    verts = graph.path_vertices(path)
    if verts[0] != verts[-1]:
        raise CycleError("path from %r to %r is not closed" % (verts[0], verts[-1]))
    body = verts[:-1]
    if len(set(body)) != len(body):
        raise CycleError("closed path revisits a vertex before closing")
    return graph.require_path(path)


def _first_bifurcation(graph: Graph, path: Path) -> int | None:
    """The index of the first edge of the path whose source is a
    bifurcation, or None when there is none."""
    for i, name in enumerate(path.edges):
        if graph.out_degree(graph.edge(name).source) >= 2:
            return i
    return None


def cycle_has_exit(graph: Graph, cycle: Path) -> bool:
    """Whether some edge leaves a cycle vertex without being the cycle's
    own continuation. A simple cycle uses exactly one out-edge per vertex,
    so this is an out-degree check."""
    require_cycle(graph, cycle)
    return _first_bifurcation(graph, cycle) is not None


def condition_L(graph: Graph) -> bool:
    """Every simple cycle has an exit.

    A cycle without an exit is closed under out-edges, so it is a whole
    strongly connected component in which each vertex has one out-edge;
    the graph's kept search of its cycles tells whether there is one.
    """
    return _cycles(graph).condition_L


def is_simple(graph: Graph) -> bool:
    """Simplicity of the algebra: Condition (L), and no hereditary saturated
    vertex set but the empty and the full one.

    Every nonempty hereditary set holds a strongly connected component that
    no edge leaves, and the closure of a vertex of one such component meets
    no other; so the sets are trivial exactly when the closure of the first
    component the search of the cycles completes, which is one, is all. The
    search keeps that answer: every vertex outside the component has
    out-edges and lies on no cycle.
    """
    cycles = _cycles(graph)
    return cycles.condition_L and cycles.closes


# ----------------------------------------------------------------------
# quotient and hedgehog graphs
# ----------------------------------------------------------------------

def quotient_graph(graph: Graph, subset: Iterable[str]) -> Graph:
    """The graph on the vertices outside a hereditary saturated set.

    Surviving edges are those whose range survives; hereditarity guarantees
    their sources survive too. The quotient by the full vertex set would be
    empty and is rejected.
    """
    h = _vertex_set(graph, subset)
    if not is_hereditary(graph, h):
        raise SubsetError("subset is not hereditary")
    if not is_saturated(graph, h):
        raise SubsetError("subset is not saturated")
    if len(h) == len(graph.vertices):
        raise SubsetError("quotient by the whole vertex set is empty")
    return _quotient_graph(graph, h)


def _quotient_graph(graph: Graph, h: frozenset[str]) -> Graph:
    """quotient_graph by a set its caller trusts to be a proper hereditary
    saturated subset of the graph's vertices."""
    return Graph._built(
        tuple(v for v in graph.vertices if v not in h),
        tuple(e for e in graph.edges if e.range not in h),
    )


@dataclass(frozen=True)
class HedgehogGraph:
    """A hereditary set extended by one spine per path entering it.

    graph holds the assembled result: the restriction of the original graph
    to the set, plus a fresh vertex per entry path (named by its dotted edge
    list) carrying a single edge (same name with an ``@`` prefix) to the
    path's range. For the whole vertex set it is the original graph.
    complete says whether the spines are all the entry paths, which
    hedgehog_graph reads off the longest spines. It is False when a cycle
    outside the set reaches it (entry paths are then infinite in number;
    blocking_cycle is the shortlex-first simple cycle among the vertices
    outside the set that reach it) or when the depth bound cut enumeration
    short.
    """

    graph: Graph
    ideal_part: tuple[str, ...]
    entry_part: tuple[str, ...]
    complete: bool
    blocking_cycle: Path | None


# Entry paths are counted before they are built: K6 plus a sink has 97,656
# up to the default bound and builds in about a second, K8 plus a sink would
# have over 6 million.
MAX_ENTRY_PATHS = 100_000


def _entering(graph: Graph, h: frozenset[str]) -> list[Edge]:
    """The edges from outside the set into it, in shortlex order as paths:
    by source in declaration order, then in declaration order. One scan of
    the out-edges, none for the whole vertex set; no in-edges are built."""
    if len(h) == len(graph.vertices):
        return []
    out = graph._out
    return [e for u in graph.vertices if u not in h for e in out[u] if e.range in h]


def _check_entry_count(total: int, length: int) -> None:
    """Refuse more than MAX_ENTRY_PATHS entry paths up to a length."""
    if total > MAX_ENTRY_PATHS:
        raise GraphError(
            "%d entry paths up to length %d, more than the %d allowed; "
            "lower the depth bound (--depth)" % (total, length, MAX_ENTRY_PATHS)
        )


def entry_paths(graph: Graph, subset: Iterable[str], max_length: int) -> list[Path]:
    """Paths that end inside the set having stayed outside it before.

    A path e1 ... en qualifies when its range lies in the set and every
    earlier vertex (source included) lies outside. Results are sorted
    shortlex; lengths run up to max_length, an int (a bool is not one),
    so a bound below 1 gives none. Raises GraphError, before
    building the layer that would do it, when there are more than
    MAX_ENTRY_PATHS of them.

    The first layer is the edges entering the set, listed in shortlex order
    by one scan of the out-edges; a set that no edge enters has none, and
    the search ends there without building the in-edges. Each later round
    prepends the edges from outside the set, so no path longer than
    max_length is built. Each layer comes out in shortlex order without
    sorting any path: the paths of the previous layer are grouped by
    source, and e·p is emitted for the outside sources u of edges into
    those groups in declaration order, the out-edges e of u in declaration
    order, and the paths p of the group at the range of e in their own
    order. Within one layer the length is fixed and e·p starts at u, so
    shortlex compares u, then e, then p, which is the emission order when
    the previous layer was shortlex too.
    """
    h = _vertex_set(graph, subset)
    if _integer(max_length, "maximum entry path length") < 1:
        return []
    entering = _entering(graph, h)
    _check_entry_count(len(entering), 1)
    new = tuple.__new__
    layer = [new(Path, (e.source, (e.name,), e.range)) for e in entering]
    found: list[Path] = []
    out, vindex = graph._out, graph._vindex
    for length in range(2, max_length + 1):
        if not layer:
            break
        found.extend(layer)
        groups: dict[str, list[Path]] = {}
        for p in layer:
            groups.setdefault(p.source, []).append(p)
        inn = graph._in_map()
        entering = [e for v in groups for e in inn[v] if e.source not in h]
        _check_entry_count(len(found) + sum(len(groups[e.range]) for e in entering), length)
        layer = [
            new(Path, (u, (e.name,) + p.edges, p.range))
            for u in sorted({e.source for e in entering}, key=vindex.__getitem__)
            for e in out[u]
            if e.range in groups
            for p in groups[e.range]
        ]
    found.extend(layer)
    return found


def _reaching(graph: Graph, seeds: Iterable[str]) -> set[str]:
    """The seeds and every vertex that reaches one of them, by one backward
    search."""
    inn = graph._in_map()
    seen = set(seeds)
    queue = list(seen)
    for v in queue:
        fresh = {e.source for e in inn[v]} - seen
        seen |= fresh
        queue.extend(fresh)
    return seen


def _first_cycle(graph: Graph, allowed: set[str]) -> Path | None:
    """The shortlex-first simple cycle on allowed vertices, rooted at its
    least-declared vertex. Empties ``allowed``.

    A shortest closed path through an anchor is simple, and a breadth-first
    search scanning out-edges in declaration order reaches each vertex first
    along its shortlex-first shortest path. One search per anchor, over the
    allowed vertices declared after it, gives the anchor's first cycle; the
    first anchor with the shortest one wins. A cycle through the anchor,
    and every path from the anchor back to it, stays inside the anchor's
    strongly connected component (kept by _cycles), so the search does too;
    an anchor with no in-edge from itself or from a vertex of its component
    still allowed is skipped without one. Once a cycle is found, a search
    stops at the depth where it could only tie with it, which keeps the
    later searches shallow.
    """
    out, inn = graph._out, graph._in_map()
    component = _cycles(graph).component
    best = None
    for anchor in graph.vertices:
        if anchor not in allowed:
            continue
        allowed.discard(anchor)
        mine = component[anchor]
        if not any(
            e.source == anchor or e.source in allowed and component[e.source] == mine
            for e in inn[anchor]
        ):
            continue
        via: dict[str, Edge] = {}
        depth = {anchor: 0}
        queue = [anchor]
        closing = None
        for at in queue:
            if best is not None and depth[at] + 1 >= len(best):
                break
            closing = next((e for e in out[at] if e.range == anchor), None)
            if closing is not None:
                break
            for e in out[at]:
                r = e.range
                if r in allowed and component[r] == mine and r not in via:
                    via[r] = e
                    depth[r] = depth[at] + 1
                    queue.append(r)
        if closing is None:
            continue
        edges = [closing.name]
        while at != anchor:
            edges.append(via[at].name)
            at = via[at].source
        cycle = Path(anchor, tuple(reversed(edges)), anchor)
        if best is None or len(cycle) < len(best):
            best = cycle
    return best


def hedgehog_graph(
    graph: Graph, subset: Iterable[str], depth_bound: int | None = None
) -> HedgehogGraph:
    """Attach a spine vertex and edge for each path entering a hereditary set.

    The spines are the entry paths up to the depth bound (vertex count + 1
    when omitted, else a nonnegative int). The result is complete when no
    entry path is longer than the bound. Every suffix of an entry path is
    one too, so that holds exactly when no edge enters the source of a
    spine of the bound's length, or at bound 0 no edge enters the set; the
    longest spines come last, so they are read backwards until one has an
    in-edge. A blocking cycle, outside the set and reaching it, gives entry
    paths of every length. It is sought among the vertices a backward
    search from the sources of the edges into the set finds, which heredity
    keeps outside the set. More than MAX_ENTRY_PATHS spines raise
    GraphError, as in entry_paths.

    All of it starts from the edges entering the set. When the set is every
    vertex, none does: there are no spines and no search, and the hedgehog
    is the graph itself, not a copy.

    Names in a graph built directly may contain ``.`` and ``@``, so a spine
    name can collide with another name; one count of the distinct names
    finds that, and the public constructor then reports the duplicate.
    """
    ideal = graph.sorted_vertices(subset)
    h = frozenset(ideal)
    if not is_hereditary(graph, h):
        raise SubsetError("subset is not hereditary")
    depth_bound = _depth_bound(graph, depth_bound)

    entering = _entering(graph, h)
    blocking = None
    if entering:
        blocking = _first_cycle(graph, _reaching(graph, {e.source for e in entering}))
    spines = entry_paths(graph, h, depth_bound)
    # A spine's source lies outside the hereditary set, so every edge into
    # it comes from outside; the backward search has built the in-edges.
    longest = takewhile(lambda p: len(p) == depth_bound, reversed(spines))
    complete = not (any(graph._in[p.source] for p in longest) if depth_bound else entering)

    if len(ideal) == len(graph.vertices):
        assembled = graph
    else:
        vertices = list(ideal)
        edges = [e for e in graph.edges if e.source in h]
        new = tuple.__new__
        for p in spines:
            name = ".".join(p.edges)
            vertices.append(name)
            edges.append(new(Edge, ("@" + name, name, p.range)))
        if not vertices:
            raise SubsetError("hedgehog of the empty set is empty")
        distinct = len({*vertices, *(e.name for e in edges)})
        build = Graph._built if distinct == len(vertices) + len(edges) else Graph
        assembled = build(tuple(vertices), tuple(edges))
    return HedgehogGraph(
        graph=assembled,
        ideal_part=ideal,
        entry_part=assembled.vertices[len(ideal):],
        complete=complete,
        blocking_cycle=blocking,
    )


# ----------------------------------------------------------------------
# enumeration and output
# ----------------------------------------------------------------------

def _path_layers(graph: Graph, source: str) -> Iterator[list[Path]]:
    """The paths from the source, one layer per length, each built when
    asked for. A layer has one source and length, so shortlex order on it
    is lexicographic in the edges, which extending in out-edge order keeps."""
    layer = [graph.trivial_path(source)]
    out = graph._out
    while True:
        yield layer
        layer = [graph.extend(p, e) for p in layer for e in out[p.range]]


def paths_from_by_length(graph: Graph, source: str, max_length: int) -> list[list[Path]]:
    """Layered path enumeration: layer l holds all paths of length l from
    the source, in lexicographic order by edge declaration. max_length is
    an int (a bool is not one); below 0 it keeps the trivial layer only."""
    max_length = _integer(max_length, "maximum path length")
    return list(islice(_path_layers(graph, source), max(max_length, 0) + 1))


def _dot_quoted(text: str) -> str:
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_id(name: str) -> str:
    return name if _NAME_RE.match(name) else _dot_quoted(name)


def to_dot(graph: Graph) -> str:
    """Render as DOT, declaration order throughout, stable byte for byte."""
    lines = ["digraph {"]
    for v in graph.vertices:
        lines.append("  %s;" % _dot_id(v))
    for e in graph.edges:
        lines.append(
            "  %s -> %s [label=%s];"
            % (_dot_id(e.source), _dot_id(e.range), _dot_quoted(e.name))
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
