"""Slow but obvious routines, kept as oracles for the library's sweeps.

Each function follows the definition it implements as directly as it can:
trees are recomputed per vertex, cycles are enumerated one by one or
searched for to full depth from every anchor, the closure is iterated to a
fixpoint, taken of the line points for the socle's generators and once per
vertex for simplicity, paths are listed from every vertex, normalization
scans its live redexes on every step, sums merge their terms in a dict and
sort them again, the defining relations are checked with every generator
built afresh at each use, reduction multiplies by every vertex to find
where an element starts, membership in a sum of left ideals multiplies
by the vertex sum, and membership in the socle builds the quotient by the
closure of the line points and normalizes the whole image there.
They are exponential or polynomial of high degree, so tests run them on
small inputs only.
"""

from __future__ import annotations

from typing import Iterable

from leavitt.algebra import (
    AlgebraError,
    Element,
    LeavittAlgebra,
    Monomial,
    RelationsReport,
    ZeroElementError,
)
from leavitt.graphs import (
    CyclicGraphError,
    Edge,
    Graph,
    HedgehogGraph,
    Path,
    SubsetError,
    _vertex_set,
    is_bifurcation,
    is_hereditary,
    paths_from_by_length,
    tree,
)
from leavitt.reduction import (
    CyclePolynomial,
    Generator,
    ReductionWitness,
    ScalarVertex,
    _common_closed_root,
    _first_bifurcation,
)
from leavitt.socle import SinkMatrices, quotient_image


def vertices_on_cycles(graph: Graph) -> frozenset[str]:
    """Vertices lying on at least one closed path."""
    on = set()
    for v in graph.vertices:
        for e in graph.out_edges(v):
            if v in tree(graph, e.range):
                on.add(v)
                break
    return frozenset(on)


def is_acyclic(graph: Graph) -> bool:
    return not vertices_on_cycles(graph)


def line_points(graph: Graph) -> tuple[str, ...]:
    """Vertices whose tree contains no bifurcation and meets no cycle.

    Returned in declaration order.
    """
    bad = set(vertices_on_cycles(graph))
    bad.update(v for v in graph.vertices if is_bifurcation(graph, v))
    return tuple(v for v in graph.vertices if not (tree(graph, v) & bad))


def hereditary_saturated_closure(graph: Graph, subset: Iterable[str]) -> frozenset[str]:
    """The least hereditary and saturated superset."""
    h = set(_vertex_set(graph, subset))
    changed = True
    while changed:
        changed = False
        for e in graph.edges:
            if e.source in h and e.range not in h:
                h.add(e.range)
                changed = True
        for v in graph.vertices:
            if v in h or graph.is_sink(v):
                continue
            if all(e.range in h for e in graph.out_edges(v)):
                h.add(v)
                changed = True
    return frozenset(h)


def socle_generators(graph: Graph) -> frozenset[str]:
    """H as the paper defines it: the closure of the line points."""
    return hereditary_saturated_closure(graph, line_points(graph))


def paths_ending_at(graph: Graph, sink: str, on_cycles: frozenset[str]) -> int | None:
    """Count the paths of any length with the given range, None for infinity.

    Infinitely many exist exactly when a cycle reaches the sink. Otherwise
    the vertices reaching it induce a finite acyclic piece and the counts
    f(v) of paths from v satisfy f(v) = sum of f(r(e)) over edges at v,
    accumulated sink-first.
    """
    reach = frozenset(v for v in graph.vertices if sink in tree(graph, v))
    if reach & on_cycles:
        return None
    f = {v: 0 for v in reach}
    f[sink] = 1
    pending = {
        v: sum(1 for e in graph.out_edges(v) if e.range in reach) for v in reach
    }
    ready = [v for v in reach if pending[v] == 0]
    while ready:
        v = ready.pop()
        for e in graph.in_edges(v):
            u = e.source
            if u not in reach:
                continue
            f[u] += f[v]
            pending[u] -= 1
            if pending[u] == 0:
                ready.append(u)
    return sum(f.values())


def simple_cycles(graph: Graph) -> tuple[Path, ...]:
    """All simple closed paths, one canonical rotation each.

    Each cycle is rooted at its least-declared vertex; parallel edges give
    distinct cycles. Results are sorted shortlex. The search from an anchor
    never descends below the anchor's index, so every cycle is produced
    exactly once.
    """
    results: list[Path] = []

    def walk(anchor: str, anchor_idx: int, at: str, used: list[str], visited: set[str]) -> None:
        for e in graph.out_edges(at):
            if graph.vertex_index(e.range) < anchor_idx:
                continue
            if e.range == anchor:
                results.append(Path(anchor, tuple(used) + (e.name,), anchor))
            elif e.range not in visited:
                visited.add(e.range)
                used.append(e.name)
                walk(anchor, anchor_idx, e.range, used, visited)
                used.pop()
                visited.remove(e.range)

    for anchor_idx, anchor in enumerate(graph.vertices):
        walk(anchor, anchor_idx, anchor, [], {anchor})
    results.sort(key=graph.path_sort_key)
    return tuple(results)


def first_cycle(graph: Graph, allowed: set[str]) -> Path | None:
    """The shortlex-first simple cycle on allowed vertices, rooted at its
    least-declared vertex, from a full breadth-first search per anchor.
    Empties ``allowed``.

    A shortest closed path through an anchor is simple, and a breadth-first
    search scanning out-edges in declaration order reaches each vertex first
    along its shortlex-first shortest path. One search per anchor, over the
    allowed vertices declared after it, gives the anchor's first cycle; the
    first anchor with the shortest one wins.
    """
    best = None
    for anchor in graph.vertices:
        if anchor not in allowed:
            continue
        allowed.discard(anchor)
        via: dict[str, Edge] = {}
        queue = [anchor]
        for at in queue:
            closing = next((e for e in graph.out_edges(at) if e.range == anchor), None)
            if closing is not None:
                break
            for e in graph.out_edges(at):
                if e.range in allowed and e.range not in via:
                    via[e.range] = e
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


def entry_paths(graph: Graph, subset: Iterable[str], max_length: int) -> list[Path]:
    """Every path from every vertex outside the set, up to max_length,
    kept when its last vertex and only that one lies in the set; sorted
    shortlex."""
    h = _vertex_set(graph, subset)
    found = [
        p
        for v in graph.vertices
        if v not in h
        for layer in paths_from_by_length(graph, v, max_length)
        for p in layer
        if p.range in h and not h.intersection(graph.path_vertices(p)[:-1])
    ]
    return sorted(found, key=graph.path_sort_key)


def hedgehog_graph(
    graph: Graph, subset: Iterable[str], depth_bound: int | None = None
) -> HedgehogGraph:
    """The hedgehog with its blocking cycle picked from every simple cycle:
    the first, shortlex, all of whose vertices lie outside the set and
    reach it; and with its completeness probed by one more layer of entry
    paths than the bound keeps."""
    h = _vertex_set(graph, subset)
    if not is_hereditary(graph, h):
        raise SubsetError("subset is not hereditary")
    if depth_bound is None:
        depth_bound = len(graph.vertices) + 1

    reaching = {
        v for v in graph.vertices if v not in h and tree(graph, v) & h
    }
    blocking = None
    for cycle in simple_cycles(graph):
        if all(v in reaching for v in graph.path_vertices(cycle)[:-1]):
            blocking = cycle
            break

    probed = entry_paths(graph, h, depth_bound + 1)
    spines = [p for p in probed if len(p) <= depth_bound]
    complete = blocking is None and len(spines) == len(probed)

    vertices = list(graph.sorted_vertices(h))
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
        ideal_part=graph.sorted_vertices(h),
        entry_part=tuple(entry_names),
        complete=complete,
        blocking_cycle=blocking,
    )


def condition_L(graph: Graph) -> bool:
    """Every simple cycle has an exit: a vertex of out-degree two or more."""
    return all(
        any(is_bifurcation(graph, v) for v in graph.path_vertices(cycle))
        for cycle in simple_cycles(graph)
    )


def is_simple(graph: Graph) -> bool:
    """Simplicity of the algebra: Condition (L) together with a trivial
    hereditary saturated lattice (every vertex generates everything)."""
    if not condition_L(graph):
        return False
    full = frozenset(graph.vertices)
    return all(
        hereditary_saturated_closure(graph, (v,)) == full
        for v in graph.vertices
    )


def minimal_cycle_at(graph: Graph, vertex: str) -> Path:
    """First return of the deterministic walk from a vertex all of whose
    reachable part has single out-edges."""
    edges: list[str] = []
    at = vertex
    for _ in range(len(graph.vertices) + 1):
        e = graph.out_edges(at)[0]
        edges.append(e.name)
        at = e.range
        if at == vertex:
            return graph.path(vertex, edges)
    raise AlgebraError("deterministic walk from %r does not return" % vertex)


def matrix_rep(x: Element) -> SinkMatrices:
    """The block-matrix image, rows found among the paths from every vertex
    that end at a sink."""
    algebra = x.algebra
    graph = algebra.graph
    if not is_acyclic(graph):
        raise CyclicGraphError("matrix representation needs an acyclic graph")
    # In an acyclic graph a path has fewer edges than the graph has vertices.
    bound = [
        p
        for v in graph.vertices
        for layer in paths_from_by_length(graph, v, len(graph.vertices) - 1)
        for p in layer
        if graph.is_sink(p.range)
    ]
    tails: dict[str, list[Path]] = {v: [] for v in graph.vertices}
    for p in bound:
        tails[p.source].append(p)
    sinks = graph.sinks()
    index: dict[str, dict[Path, int]] = {}
    for w in sinks:
        ending = sorted(
            (p for p in bound if p.range == w), key=graph.path_sort_key
        )
        index[w] = {p: i for i, p in enumerate(ending)}
    sizes = tuple(len(index[w]) for w in sinks)
    zero = algebra.field.zero()
    blocks = [
        [[zero for _ in range(n)] for _ in range(n)] for n in sizes
    ]
    at = {w: i for i, w in enumerate(sinks)}
    for m, c in x.items():
        for tau in tails[m.real.range]:
            w = tau.range
            block = blocks[at[w]]
            row = index[w][graph.concat(m.real, tau)]
            col = index[w][graph.concat(m.ghost, tau)]
            block[row][col] = block[row][col] + c
    frozen = tuple(tuple(tuple(row) for row in block) for block in blocks)
    return SinkMatrices(algebra.field, sinks, sizes, frozen)


def corner_basis(
    algebra: LeavittAlgebra, vertex: str, max_total_length: int
) -> tuple[Monomial, ...]:
    """Every pair of paths from the vertex with a common range and total
    length within the bound, kept when irreducible and sorted by the
    normal-form order."""
    layers = paths_from_by_length(algebra.graph, vertex, max_total_length)
    found = [
        Monomial(p, q)
        for real_len, reals in enumerate(layers)
        for p in reals
        for ghosts in layers[: max_total_length - real_len + 1]
        for q in ghosts
        if p.range == q.range
    ]
    return tuple(
        sorted(
            (m for m in found if not algebra._is_reducible(m)),
            key=algebra._mono_key,
        )
    )


def normal_form_steps(
    algebra: LeavittAlgebra, pairs, pick
) -> tuple[Element, int]:
    """Normalize by rewriting, each step, the live redex that
    pick(redexes, key=algebra._mono_key) returns; give the normal form and
    the number of rewrite steps.

    Rewriting goes through the library's relation (4), so with pick=min
    this takes the steps the library's heap takes, and with any other pick
    it reaches the same normal form when the rewriting is confluent.
    """
    terms: dict[Monomial, object] = {}
    redexes: set[Monomial] = set()

    def acc(m: Monomial, c) -> None:
        total = terms.get(m, algebra.field.zero()) + c
        if total:
            terms[m] = total
            if algebra._is_reducible(m):
                redexes.add(m)
        else:
            terms.pop(m, None)
            redexes.discard(m)

    for coeff, m in pairs:
        algebra._check_monomial(m)
        acc(m, algebra.field.coerce(coeff))
    steps = 0
    while redexes:
        m = pick(redexes, key=algebra._mono_key)
        redexes.discard(m)
        c = terms.pop(m)
        for sign, piece in algebra._rewrite(m):
            acc(piece, c if sign > 0 else -c)
        steps += 1
    ordered = sorted(terms.items(), key=lambda kv: algebra._mono_key(kv[0]))
    return Element(algebra, tuple(ordered)), steps


def add(x: Element, y: Element) -> Element:
    """x + y by a dict merge of the terms and a sort by the monomial key."""
    x._require_same(y)
    # Sums of normal forms are normal: merging cannot create a redex.
    merged = dict(x._terms)
    for m, c in y._terms:
        total = merged.get(m)
        total = c if total is None else total + c
        if total:
            merged[m] = total
        else:
            merged.pop(m, None)
    key = x.algebra._mono_key
    ordered = tuple(sorted(merged.items(), key=lambda kv: key(kv[0])))
    return Element(x.algebra, ordered)


def check_relations(algebra: LeavittAlgebra) -> RelationsReport:
    """The defining relations rechecked as they are written, each vertex,
    edge and ghost element built afresh at every use."""
    counts: dict[str, int] = {}
    failures: list[str] = []

    def note(label: str, ok: bool, detail: str) -> None:
        counts[label] = counts.get(label, 0) + 1
        if not ok:
            failures.append("%s: %s" % (label, detail))

    a = algebra
    g = a.graph
    for v in g.vertices:
        for w in g.vertices:
            expect = a.vertex(v) if v == w else a.zero()
            note(
                "vertex-idempotents",
                a.vertex(v) * a.vertex(w) == expect,
                "%s %s" % (v, w),
            )
    for e in g.edges:
        note(
            "source-range",
            a.vertex(e.source) * a.edge(e.name) == a.edge(e.name)
            and a.edge(e.name) * a.vertex(e.range) == a.edge(e.name),
            e.name,
        )
        note(
            "ghost-source-range",
            a.vertex(e.range) * a.ghost(e.name) == a.ghost(e.name)
            and a.ghost(e.name) * a.vertex(e.source) == a.ghost(e.name),
            e.name,
        )
        for f in g.edges:
            expect = a.vertex(e.range) if f.name == e.name else a.zero()
            note(
                "ghost-pairing",
                a.ghost(e.name) * a.edge(f.name) == expect,
                "%s %s" % (e.name, f.name),
            )
    for v in g.vertices:
        if g.is_sink(v):
            continue
        total = a.zero()
        for e in g.out_edges(v):
            total = total + a.edge(e.name) * a.ghost(e.name)
        note("vertex-expansion", total == a.vertex(v), v)
    return RelationsReport(
        counts=tuple(sorted(counts.items())),
        failures=tuple(failures),
        passed=not failures,
    )


def left_ideal_sum_membership(x: Element, vertices: Iterable[str]) -> bool:
    """Whether x lies in the sum of the left ideals A·u over the given u.

    Right multiplication by the idempotent sum of distinct vertices fixes
    exactly the elements of the sum.
    """
    algebra = x.algebra
    names = _vertex_set(algebra.graph, vertices)
    if not names:
        raise SubsetError("membership in an empty sum of left ideals")
    u = algebra.zero()
    for v in algebra.graph.sorted_vertices(names):
        u = u + algebra.vertex(v)
    return x * u == x


def in_socle(x: Element) -> bool:
    """The socle is everything on an acyclic graph, and otherwise the kernel
    of the quotient map by H: the image, normalized in a quotient algebra
    built for this call, must vanish."""
    graph = x.algebra.graph
    return is_acyclic(graph) or quotient_image(x, socle_generators(graph)).is_zero


def realify(x: Element) -> tuple[Path, Element]:
    """A path nu with x nu real (ghost-free) and nonzero, its base found by
    multiplying x by every vertex in declaration order.

    nu begins at the first declared vertex keeping the product nonzero and
    grows by the first out-edge that keeps it nonzero. While a ghost part
    remains, the vertex expansion relation guarantees such an edge exists,
    and each step shortens the longest ghost part, so the peeling ends.
    """
    if x.is_zero:
        raise ZeroElementError("cannot realify zero")
    alg = x.algebra
    g = alg.graph
    y = None
    base = None
    for v in g.vertices:
        cand = x * alg.vertex(v)
        if not cand.is_zero:
            y = cand
            base = v
            break
    edges: list[str] = []
    at = base
    while not y.is_real:
        for e in g.out_edges(at):
            cand = y * alg.edge(e.name)
            if not cand.is_zero:
                y = cand
                at = e.range
                edges.append(e.name)
                break
        else:
            raise AlgebraError("realification found no continuing edge")
    return g.path(base, edges), y


def reduce(x: Element) -> ReductionWitness:
    """A replayable reduction of a nonzero element to a corner form, which
    cuts to a common source by trying every vertex in declaration order."""
    if x.is_zero:
        raise ZeroElementError("cannot reduce zero")
    alg = x.algebra
    g = alg.graph
    left: list[Generator] = []
    right: list[Generator] = []

    nu, y = realify(x)
    if x * alg.vertex(nu.source) != x:
        right.append(Generator("vertex", nu.source))
    right.extend(Generator("edge", name) for name in nu.edges)

    # Strips only shorten supports; rotations between kills are bounded by
    # the periodicity of the rotated paths. The margin is generous.
    nterms = len(y.items())
    maxlen = max(len(m.real) for m, _ in y.items())
    limit = 64 + 8 * (nterms + 2) * (maxlen + 2)

    for _ in range(limit):
        terms = y.items()
        if len(terms) == 1:
            m, c = terms[0]
            for name in m.real.edges:
                left.append(Generator("ghost", name))
                y = alg.ghost(name) * y
            return ReductionWitness(
                tuple(left), tuple(right), ScalarVertex(c, m.real.range)
            )
        for v in g.vertices:
            cand = alg.vertex(v) * y
            if not cand.is_zero:
                if cand != y:
                    left.append(Generator("vertex", v))
                    y = cand
                break
        terms = y.items()
        if len(terms) == 1:
            continue
        paths = [m.real for m, _ in terms]
        shortest = min(paths, key=g.path_sort_key)
        if not shortest.is_trivial:
            # Strip the canonically first shortest path. Its own term turns
            # into a vertex term, longer paths lose it as a prefix or die;
            # being shortest, it never manufactures a ghost part.
            for name in shortest.edges:
                left.append(Generator("ghost", name))
                y = alg.ghost(name) * y
            continue
        base = shortest.source
        closed = [p for p in paths if not p.is_trivial]
        root = _common_closed_root(closed)
        if root is None:
            # Conjugate by the first edge of the canonically first closed
            # path: aligned paths rotate, the rest die. Misalignment must
            # surface within bounded rounds, else a common root existed.
            first = min(closed, key=g.path_sort_key).edges[0]
            left.append(Generator("ghost", first))
            right.append(Generator("edge", first))
            y = alg.ghost(first) * y * alg.edge(first)
            continue
        exit_pos = _first_bifurcation(g, root)
        if exit_pos is None:
            # No exit anywhere on the root: it is a power of the cycle that
            # first returns to the base vertex, and y is a polynomial in it
            # whose terms come shortest first, so exponents ascend.
            cmin = g.path(base, root.edges[: g.path_vertices(root).index(base, 1)])
            coeffs = tuple((len(m.real) // len(cmin), c) for m, c in y.items())
            return ReductionWitness(
                tuple(left), tuple(right), CyclePolynomial(base, cmin, coeffs)
            )
        # Conjugate up to the first bifurcation of the root, then escape
        # along a different edge there: every root power dies against it
        # and only the scalar vertex term survives.
        for name in root.edges[:exit_pos]:
            left.append(Generator("ghost", name))
            right.append(Generator("edge", name))
            y = alg.ghost(name) * y * alg.edge(name)
        avoid = root.edges[exit_pos]
        branch_vertex = g.edge(avoid).source
        exit_edge = next(
            e.name for e in g.out_edges(branch_vertex) if e.name != avoid
        )
        left.append(Generator("ghost", exit_edge))
        right.append(Generator("edge", exit_edge))
        y = alg.ghost(exit_edge) * y * alg.edge(exit_edge)
    else:
        raise AlgebraError("reduction did not converge within its step bound")


def nondegeneracy_witness(x: Element) -> Element:
    """An element a with x a x nonzero, built as u (1 R) (1 L) u from the
    unit 1 of the whole algebra and the local unit u of x.

    Writing the reduction as L x R = w with w a scalar vertex or a cycle
    polynomial, w squares to something nonzero, so L (x R L x) R is nonzero
    and a = R L works; cutting by the local unit of x changes nothing in
    x a x and keeps a small.
    """
    witness = reduce(x)
    alg = x.algebra
    right_prod = alg.one()
    for gen in witness.right:
        right_prod = right_prod * gen.element(alg)
    left_prod = alg.one()
    for gen in reversed(witness.left):
        left_prod = left_prod * gen.element(alg)
    unit = x.local_unit()
    return unit * right_prod * left_prod * unit
