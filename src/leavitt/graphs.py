"""Finite directed graphs and the combinatorics the algebra rests on.

A graph is a finite list of named vertices plus a finite list of named edges,
each with a source and a range vertex. Names live in one shared namespace (a
vertex and an edge may never collide), so a bare name in an expression or an
output line is always unambiguous. Declaration order is preserved everywhere
and every function iterates in it, which makes all downstream computation
deterministic.

Alongside the data type live the purely combinatorial notions the algebraic
decision procedures consume: reachability trees, bifurcations, line points,
hereditary and saturated vertex sets with their closure, acyclicity and
Condition (L), quotient graphs, and the hedgehog extension of a hereditary
set by its entry paths. Each whole-graph notion is one sweep over the
vertices and edges; no routine enumerates cycles or recomputes a tree per
vertex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
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


class Graph:
    """An immutable finite directed graph with named vertices and edges."""

    __slots__ = ("vertices", "edges", "_vindex", "_eindex", "_out", "_in", "_hash")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge] = ()):
        self.vertices = tuple(vertices)
        self.edges = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        if not self.vertices:
            raise GraphError("a graph needs at least one vertex")
        names: set[str] = set()
        for v in self.vertices:
            if not v:
                raise GraphError("empty vertex name")
            if v in names:
                raise GraphError("duplicate name %r" % v)
            names.add(v)
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        self._eindex: dict[str, int] = {}
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            if not e.name:
                raise GraphError("empty edge name")
            if e.name in names:
                raise GraphError("duplicate name %r" % e.name)
            names.add(e.name)
            if e.source not in self._vindex:
                raise GraphError("edge %r has unknown source %r" % (e.name, e.source))
            if e.range not in self._vindex:
                raise GraphError("edge %r has unknown range %r" % (e.name, e.range))
            self._eindex[e.name] = i
            out[e.source].append(e)
        self._out = {v: tuple(es) for v, es in out.items()}
        # Built on first use, like the hash: the algebra and the reduction
        # never follow edges backwards.
        self._in: dict[str, tuple[Edge, ...]] | None = None
        self._hash: int | None = None

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
        self.require_vertex(vertex)
        return self._out[vertex]

    def in_edges(self, vertex: str) -> tuple[Edge, ...]:
        self.require_vertex(vertex)
        if self._in is None:
            inn: dict[str, list[Edge]] = {v: [] for v in self.vertices}
            for e in self.edges:
                inn[e.range].append(e)
            self._in = {v: tuple(es) for v, es in inn.items()}
        return self._in[vertex]

    def out_degree(self, vertex: str) -> int:
        return len(self.out_edges(vertex))

    def is_sink(self, vertex: str) -> bool:
        return not self.out_edges(vertex)

    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self._out[v])

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
        at = source
        for name in names:
            e = self.edge(name)
            if e.source != at:
                raise GraphError(
                    "edge %r starts at %r, expected %r" % (name, e.source, at)
                )
            at = e.range
        return at

    def path(self, source: str, edge_names: Iterable[str]) -> Path:
        """Build a path from its source and edge names, checking the chain."""
        names = tuple(edge_names)
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
        """The given vertices in declaration order, validated."""
        return tuple(sorted(_vertex_set(self, subset), key=self._vindex.__getitem__))


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
    vertices: list[str] = []
    pending: list[tuple[str, str, str, int]] = []
    seen: set[str] = set()
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
                if name in seen:
                    raise GraphParseError("duplicate name %r" % name, lineno)
                seen.add(name)
                vertices.append(name)
            continue
        m = _EDGE_RE.match(line)
        if m:
            name, source, range_ = m.groups()
            if name in seen:
                raise GraphParseError("duplicate name %r" % name, lineno)
            seen.add(name)
            pending.append((name, source, range_, lineno))
            continue
        raise GraphParseError("cannot parse %r" % line, lineno)
    if not vertices:
        raise GraphParseError("no vertices declared")
    # Edges share the vertex strings instead of keeping the copies the
    # regular expression made of their endpoints.
    names = {v: v for v in vertices}
    edges = []
    for name, source, range_, lineno in pending:
        if source not in names:
            raise GraphParseError("unknown source vertex %r" % source, lineno)
        if range_ not in names:
            raise GraphParseError("unknown range vertex %r" % range_, lineno)
        edges.append(Edge(name, names[source], names[range_]))
    return Graph(vertices, edges)


# ----------------------------------------------------------------------
# reachability, bifurcations, line points
# ----------------------------------------------------------------------

def tree(graph: Graph, vertices: str | Iterable[str]) -> frozenset[str]:
    """All vertices reachable from the given ones, themselves included.

    Accepts a single vertex name or any iterable of names.
    """
    seeds = _vertex_set(graph, [vertices] if isinstance(vertices, str) else vertices)
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        at = stack.pop()
        for e in graph.out_edges(at):
            if e.range not in seen:
                seen.add(e.range)
                stack.append(e.range)
    return frozenset(seen)


def is_bifurcation(graph: Graph, vertex: str) -> bool:
    return graph.out_degree(vertex) >= 2


def _path_counts(graph: Graph) -> dict[str, int | None]:
    """The number of paths ending at each vertex, the trivial one included,
    and None exactly where a cycle reaches the vertex.

    Kahn's sweep settles a vertex once all its in-neighbours are settled;
    the vertices it never settles are those that some cycle reaches.
    """
    waiting = {v: len(graph.in_edges(v)) for v in graph.vertices}
    counts: dict[str, int | None] = dict.fromkeys(graph.vertices)
    ready = [v for v in graph.vertices if not waiting[v]]
    for v in ready:
        counts[v] = 1 + sum(counts[e.source] for e in graph.in_edges(v))
        for e in graph.out_edges(v):
            waiting[e.range] -= 1
            if not waiting[e.range]:
                ready.append(e.range)
    return counts


def is_acyclic(graph: Graph) -> bool:
    """Whether the graph has no closed path: no vertex is reached by a cycle."""
    return None not in _path_counts(graph).values()


def line_points(graph: Graph) -> tuple[str, ...]:
    """Vertices whose tree contains no bifurcation and meets no cycle.

    Such a tree is a walk through vertices of out-degree one that stops at
    a sink, so one backward sweep from the sinks finds them all. Returned
    in declaration order.
    """
    found = list(graph.sinks())
    for v in found:
        found.extend(
            e.source for e in graph.in_edges(v) if graph.out_degree(e.source) == 1
        )
    keep = set(found)
    return tuple(v for v in graph.vertices if v in keep)


# ----------------------------------------------------------------------
# hereditary and saturated sets
# ----------------------------------------------------------------------

def _vertex_set(graph: Graph, subset: Iterable[str]) -> frozenset[str]:
    """The given vertices as a set, each checked to be in the graph."""
    vs = frozenset(subset)
    for v in vs:
        graph.require_vertex(v)
    return vs


def _depth_bound(graph: Graph, depth_bound: int | None) -> int:
    """A hedgehog depth bound, vertex count + 1 when None, checked to be a
    nonnegative int (a bool is not one)."""
    if depth_bound is None:
        return len(graph.vertices) + 1
    if not isinstance(depth_bound, int) or isinstance(depth_bound, bool):
        raise GraphError("hedgehog depth bound %r is not an integer" % (depth_bound,))
    if depth_bound < 0:
        raise GraphError("negative hedgehog depth bound %d" % depth_bound)
    return depth_bound


def is_hereditary(graph: Graph, subset: Iterable[str]) -> bool:
    """Closed under ranges: an edge out of the set cannot leave it."""
    h = _vertex_set(graph, subset)
    return all(e.range in h for e in graph.edges if e.source in h)


def is_saturated(graph: Graph, subset: Iterable[str]) -> bool:
    """Contains every non-sink all of whose edge ranges it contains."""
    h = _vertex_set(graph, subset)
    for v in graph.vertices:
        if v in h or graph.is_sink(v):
            continue
        if all(e.range in h for e in graph.out_edges(v)):
            return False
    return True


def hereditary_saturated_closure(graph: Graph, subset: Iterable[str]) -> frozenset[str]:
    """The least hereditary and saturated superset.

    A worklist: each vertex that joins pulls in its ranges, and a vertex
    joins once none of its out-edges leaves the set any more.
    """
    h = set(_vertex_set(graph, subset))
    leaving = {v: graph.out_degree(v) for v in graph.vertices}
    joined = list(h)
    for v in joined:
        joining = [e.range for e in graph.out_edges(v)]
        for e in graph.in_edges(v):
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
    """Check that a path is a simple cycle: nontrivial, closed, no revisits."""
    if path.is_trivial:
        raise CycleError("the trivial path is not a cycle")
    verts = graph.path_vertices(path)
    if verts[0] != verts[-1]:
        raise CycleError("path from %r to %r is not closed" % (verts[0], verts[-1]))
    body = verts[:-1]
    if len(set(body)) != len(body):
        raise CycleError("closed path revisits a vertex before closing")
    return path


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

    A cycle with no exit lives inside the set of vertices with exactly one
    out-edge, where the walk is deterministic; following those walks and
    looking for a return is linear in the graph.
    """
    step = {
        v: graph.out_edges(v)[0].range
        for v in graph.vertices
        if graph.out_degree(v) == 1
    }
    state = {v: 0 for v in step}  # 0 new, 1 on current trail, 2 finished
    for start in step:
        if state[start]:
            continue
        trail = []
        at = start
        while at in step and state[at] == 0:
            state[at] = 1
            trail.append(at)
            at = step[at]
        if at in step and state[at] == 1:
            return False
        for v in trail:
            state[v] = 2
    return True


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
    vertices = [v for v in graph.vertices if v not in h]
    if not vertices:
        raise SubsetError("quotient by the whole vertex set is empty")
    return Graph(vertices, [e for e in graph.edges if e.range not in h])


@dataclass(frozen=True)
class HedgehogGraph:
    """A hereditary set extended by one spine per path entering it.

    graph holds the assembled result: the restriction of the original graph
    to the set, plus a fresh vertex per entry path (named by its dotted edge
    list) carrying a single edge (same name with an ``@`` prefix) to the
    path's range. complete is False when a cycle outside the set reaches it
    (entry paths are then infinite in number; blocking_cycle is the
    shortlex-first simple cycle among the vertices outside the set that
    reach it) or when the depth bound cut enumeration short.
    """

    graph: Graph
    ideal_part: tuple[str, ...]
    entry_part: tuple[str, ...]
    complete: bool
    blocking_cycle: Path | None


def entry_paths(graph: Graph, subset: Iterable[str], max_length: int) -> list[Path]:
    """Paths that end inside the set having stayed outside it before.

    A path e1 ... en qualifies when its range lies in the set and every
    earlier vertex (source included) lies outside. Results are sorted
    shortlex; lengths run up to max_length. Starting from the trivial paths
    in the set, each round prepends the in-edges from outside it, so no
    path longer than max_length is built.
    """
    h = _vertex_set(graph, subset)
    layer = [Path(v, (), v) for v in h]
    found: list[Path] = []
    for _ in range(max_length):
        layer = [
            Path(e.source, (e.name,) + p.edges, p.range)
            for p in layer
            for e in graph.in_edges(p.source)
            if e.source not in h
        ]
        if not layer:
            break
        layer.sort(key=graph.path_sort_key)
        found.extend(layer)
    return found


def _reaching(graph: Graph, seeds: Iterable[str], seen: set[str]) -> set[str]:
    """One backward search: add to ``seen`` the seeds and every vertex that
    reaches one of them through unseen vertices, and return it."""
    queue = [v for v in seeds if v not in seen]
    seen.update(queue)
    for v in queue:
        fresh = {e.source for e in graph.in_edges(v)} - seen
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
    first anchor with the shortest one wins. So once a cycle is found, a
    search stops at the depth where it could only tie with it, which keeps
    the searches after the first cycle shallow.
    """
    best = None
    for anchor in graph.vertices:
        if anchor not in allowed:
            continue
        allowed.discard(anchor)
        via: dict[str, Edge] = {}
        depth = {anchor: 0}
        queue = [anchor]
        closing = None
        for at in queue:
            if best is not None and depth[at] + 1 >= len(best):
                break
            closing = next((e for e in graph.out_edges(at) if e.range == anchor), None)
            if closing is not None:
                break
            for e in graph.out_edges(at):
                if e.range in allowed and e.range not in via:
                    via[e.range] = e
                    depth[e.range] = depth[at] + 1
                    queue.append(e.range)
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
    when omitted, else a nonnegative int). As the set is hereditary, an entry path is a path ending
    at the source of an edge into it plus that edge, so the path counts at
    those sources add up to their number, finite exactly when no blocking
    cycle (found by one backward search) reaches the set. The result is
    complete when the spines reach that number.
    """
    ideal = graph.sorted_vertices(subset)
    h = frozenset(ideal)
    if not is_hereditary(graph, h):
        raise SubsetError("subset is not hereditary")
    depth_bound = _depth_bound(graph, depth_bound)

    counts = _path_counts(graph)
    blocking = _first_cycle(
        graph, {v for v in _reaching(graph, h, set()) - h if counts[v] is None}
    )
    spines = entry_paths(graph, h, depth_bound)
    complete = blocking is None and len(spines) == sum(
        counts[e.source] for e in graph.edges if e.source not in h and e.range in h
    )

    vertices = list(ideal)
    edges = [e for e in graph.edges if e.source in h]
    entry_names = []
    for p in spines:
        name = ".".join(p.edges)
        entry_names.append(name)
        vertices.append(name)
        edges.append(Edge("@" + name, name, p.range))
    if not vertices:
        raise SubsetError("hedgehog of the empty set is empty")
    return HedgehogGraph(
        graph=Graph(vertices, edges),
        ideal_part=ideal,
        entry_part=tuple(entry_names),
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
    while True:
        yield layer
        layer = [graph.extend(p, e) for p in layer for e in graph.out_edges(p.range)]


def paths_from_by_length(graph: Graph, source: str, max_length: int) -> list[list[Path]]:
    """Layered path enumeration: layer l holds all paths of length l from
    the source, in lexicographic order by edge declaration."""
    return list(islice(_path_layers(graph, source), max(max_length, 0) + 1))


def _dot_id(name: str) -> str:
    if _NAME_RE.match(name):
        return name
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(graph: Graph) -> str:
    """Render as DOT, declaration order throughout, stable byte for byte."""
    lines = ["digraph {"]
    for v in graph.vertices:
        lines.append("  %s;" % _dot_id(v))
    for e in graph.edges:
        lines.append(
            '  %s -> %s [label="%s"];'
            % (_dot_id(e.source), _dot_id(e.range), e.name.replace('"', '\\"'))
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
