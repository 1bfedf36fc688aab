"""The north star's complexity targets as machine-independent gates.

Work is counted as executed bytecode instructions, which do not depend on
the machine or its load. Each operation is measured at sizes n, 2n, 4n and
8n, and the ratio of counts per doubling is gated: graph-level queries are
linear in V+E, and one element operation costs the same at any graph size.
Bytecode counts do not see work done in C, such as set copies or sorting, so
the calls that do such work on a whole vertex set are counted by name.
"""

import sys
from functools import partial
from itertools import product

import pytest

import leavitt.graphs
from leavitt import (
    Edge,
    Graph,
    LeavittAlgebra,
    condition_L,
    hereditary_saturated_closure,
    in_socle,
    is_acyclic,
    is_simple,
    line_points,
    nondegeneracy_witness,
    parse_element,
    quotient_graph,
    reduce,
    socle_generators,
    socle_structure,
    verify_witness,
    vertex_ideal_minimal,
)
from leavitt.algebra import Monomial
from leavitt.sampling import line_graph, rose

SIZES = (50, 100, 200, 400)


def opcodes(fn) -> int:
    """The number of bytecode instructions executed by calling fn, in its
    own frame and every frame it opens; the previous tracer is restored."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def calls(name: str, fn) -> int:
    """The number of calls of the leavitt.graphs function of that name made
    by calling fn, counted in every loaded module that binds the name to it,
    and restored there afterwards."""
    original = getattr(leavitt.graphs, name)
    count = 0

    def counting(*args, **kwargs):
        nonlocal count
        count += 1
        return original(*args, **kwargs)

    bound = [m for m in list(sys.modules.values()) if vars(m).get(name) is original]
    for module in bound:
        setattr(module, name, counting)
    try:
        fn()
    finally:
        for module in bound:
            setattr(module, name, original)
    return count


def _ratios(counts: list[int]) -> list[float]:
    return [b / a for a, b in zip(counts, counts[1:])]


def fed_line(n: int) -> Graph:
    """A line v0 -> ... -> v(n-1) fed by a looped vertex c (edge y: c -> v0):
    one long out-degree-one chain, a cycle with an exit, one sink."""
    vertices = ["c"] + ["v%d" % i for i in range(n)]
    edges = [Edge("l", "c", "c"), Edge("y", "c", "v0")]
    edges += [Edge("e%d" % i, "v%d" % i, "v%d" % (i + 1)) for i in range(n - 1)]
    return Graph(vertices, edges)


def ladder(n: int) -> Graph:
    """Two rails a, b of n/2 vertices with a rung a_i -> b_i each, and a
    back rung b_i -> a_i at every other step short of the end: E close to
    2V, bifurcations everywhere, cycles with exits, one sink."""
    m = n // 2
    vertices = [rail + str(i) for i in range(m) for rail in "ab"]
    edges = []
    for i in range(m):
        if i + 1 < m:
            edges.append(Edge("a%d_" % i, "a%d" % i, "a%d" % (i + 1)))
            edges.append(Edge("b%d_" % i, "b%d" % i, "b%d" % (i + 1)))
        edges.append(Edge("r%d" % i, "a%d" % i, "b%d" % i))
        if i % 2 == 0 and i + 2 < m:
            edges.append(Edge("s%d" % i, "b%d" % i, "a%d" % i))
    return Graph(vertices, edges)


def ring_with_exit(n: int) -> Graph:
    """A ring v0 -> ... -> v(n-1) -> v0 with an exit x: v0 -> s to a sink."""
    vertices = ["v%d" % i for i in range(n)] + ["s"]
    edges = [Edge("e%d" % i, "v%d" % i, "v%d" % ((i + 1) % n)) for i in range(n)]
    return Graph(vertices, edges + [Edge("x", "v0", "s")])


def _between_loops(n: int, feeds: list[Edge]) -> Graph:
    """A chain v0 -> ... -> v(n-1), declared first, into a looped d with an
    edge to the sink s, fed by a looped c through the given edges."""
    vertices = ["v%d" % i for i in range(n)] + ["c", "d", "s"]
    edges = [Edge("lc", "c", "c")] + feeds
    edges += [Edge("e%d" % i, "v%d" % i, "v%d" % (i + 1)) for i in range(n - 1)]
    edges += [Edge("z", "v%d" % (n - 1), "d"), Edge("ld", "d", "d"), Edge("x", "d", "s")]
    return Graph(vertices, edges)


def chain_between_loops(n: int) -> Graph:
    """c feeds the chain at v0 only."""
    return _between_loops(n, [Edge("y", "c", "v0")])


def hub(n: int) -> Graph:
    """c feeds every vertex of the chain."""
    return _between_loops(n, [Edge("h%d" % i, "c", "v%d" % i) for i in range(n)])


# Each entry takes a graph and returns the query on it with its arguments.
GRAPH_QUERIES = {
    "line_points": lambda g: partial(line_points, g),
    "hereditary_saturated_closure": lambda g: partial(
        hereditary_saturated_closure, g, g.sinks()
    ),
    "socle_generators": lambda g: partial(socle_generators, g),
    "condition_L": lambda g: partial(condition_L, g),
    "is_simple": lambda g: partial(is_simple, g),
    "is_acyclic": lambda g: partial(is_acyclic, g),
    "quotient_graph": lambda g: partial(quotient_graph, g, socle_generators(g)),
    "socle_structure(g, 0)": lambda g: partial(socle_structure, g, 0),
}


# The last three hold long stretches on no cycle, or on one long cycle,
# that the hedgehog's search for a blocking cycle must not search again
# from every vertex.
FAMILIES = [fed_line, ladder, ring_with_exit, chain_between_loops, hub]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", list(GRAPH_QUERIES))
def test_graph_queries_are_linear(family, name):
    """Each query runs on a fresh graph. The graph and the query's other
    arguments are built before the count starts, so the count holds the
    query and the derived data it fills on first use, not the graph's
    construction."""
    counts = [opcodes(GRAPH_QUERIES[name](family(n))) for n in SIZES]
    assert max(_ratios(counts)) <= 2.2, counts


ELEMENT_OPERATIONS = {
    "*": lambda x, z, w: x * z,
    "+": lambda x, z, w: x + z,
    "reduce": lambda x, z, w: reduce(x),
    "verify_witness": lambda x, z, w: verify_witness(x, w),
    "nondegeneracy_witness": lambda x, z, w: nondegeneracy_witness(x),
    "in_socle": lambda x, z, w: in_socle(x),
}


@pytest.mark.parametrize("name", [
    "*", "+", "reduce", "verify_witness", "nondegeneracy_witness",
    pytest.param("in_socle", marks=pytest.mark.xfail(
        strict=True,
        reason="a first in_socle call on a graph runs the graph's one search "
        "of its cycles, linear in the graph, for H and the quotient's special "
        "edges; later calls only read it "
        "(test_second_in_socle_calls_are_flat)",
    )),
])
def test_element_operations_do_not_depend_on_graph_size(name):
    """Fixed elements at the looped vertex of a line that grows behind it."""
    counts = []
    for n in SIZES:
        algebra = LeavittAlgebra(fed_line(n))
        x = parse_element(algebra, "l y + c")
        z = parse_element(algebra, "l^* + 2 y y^*")
        w = reduce(x)
        counts.append(opcodes(lambda: ELEMENT_OPERATIONS[name](x, z, w)))
    assert max(_ratios(counts)) <= 1.05, counts


@pytest.mark.parametrize("name", list(ELEMENT_OPERATIONS))
def test_element_operations_check_no_vertex_sets(name):
    """Checking a vertex set against the graph is C-level work linear in the
    set, which the opcode count does not see; these operations, on the same
    elements at the largest size, make none."""
    algebra = LeavittAlgebra(fed_line(SIZES[-1]))
    x = parse_element(algebra, "l y + c")
    z = parse_element(algebra, "l^* + 2 y y^*")
    w = reduce(x)
    assert calls("_vertex_set", lambda: ELEMENT_OPERATIONS[name](x, z, w)) == 0


def test_in_socle_on_an_acyclic_graph_reads_the_kept_counts():
    """Once the graph keeps its path counts, which the first call fills,
    in_socle on an acyclic graph neither computes H nor depends on the
    graph's size."""
    counts = []
    for n in SIZES:
        x = parse_element(LeavittAlgebra(line_graph(n)), "e1 e2 e2^* + 2 v1")
        assert in_socle(x)
        assert calls("hereditary_saturated_closure", lambda: in_socle(x)) == 0
        counts.append(opcodes(lambda: in_socle(x)))
    assert max(_ratios(counts)) <= 1.05, counts


def with_corner(g: Graph) -> Graph:
    """The graph with a disjoint copy of v -> s, v -> u, u -> u declared
    after it: H holds s, and the special edge of v in the quotient by H
    is f, not e."""
    vertices = g.vertices + ("cv", "cs", "cu")
    corner = (Edge("ce", "cv", "cs"), Edge("cf", "cv", "cu"), Edge("cg", "cu", "cu"))
    return Graph(vertices, g.edges + corner)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("text, member, quotient", [
    ("ce + cu + cf cg + cg^*", False, False),
    ("ce ce^*", True, True),
])
def test_second_in_socle_calls_are_flat(family, text, member, quotient):
    """Once the first call has filled the graph's kept search, and for an
    element that needs it the quotient algebra kept on the algebra, a
    second in_socle call on the same algebra costs the same at any graph
    size, whether it reads the element's terms alone (the first element)
    or normalizes them in the quotient (ce ce*, whose normal form
    cv - cf cf* ends outside H)."""
    counts = []
    for n in SIZES:
        algebra = LeavittAlgebra(with_corner(family(n)))
        x = parse_element(algebra, text)
        assert in_socle(x) is member
        assert (algebra._socle_quotient is not None) is quotient
        assert calls("_vertex_set", lambda: in_socle(x)) == 0
        counts.append(opcodes(lambda: in_socle(x)))
    assert max(_ratios(counts)) <= 1.05, counts


# Queries that read the graph's kept search of its cycles once it is filled.
CYCLE_QUERIES = {
    **{name: GRAPH_QUERIES[name]
       for name in ("condition_L", "is_acyclic", "is_simple", "socle_generators")},
    "vertex_ideal_minimal": lambda g: partial(vertex_ideal_minimal, g, g.vertices[0]),
}


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", list(CYCLE_QUERIES))
def test_second_calls_are_flat(family, name):
    """The first cycle query on a graph runs the search and keeps it; a
    second call of each of these only reads it, at any graph size."""
    counts = []
    for n in SIZES:
        query = CYCLE_QUERIES[name](family(n))
        query()
        counts.append(opcodes(query))
    assert max(_ratios(counts)) <= 1.05, counts


@pytest.mark.parametrize("family", FAMILIES + [rose], ids=lambda f: f.__name__)
def test_cycle_queries_search_nothing_again(family):
    """is_simple and H are read from the search: neither closes a set or
    searches backward (a rose has no sink to close from), and a first
    is_simple call leaves the in-edges unbuilt."""
    g = family(SIZES[0])
    assert calls("_reaching", partial(is_simple, g)) == 0
    assert g._in is None
    g = family(SIZES[0])
    assert calls("hereditary_saturated_closure", partial(is_simple, g)) == 0
    assert calls("hereditary_saturated_closure", partial(socle_generators, g)) == 0


def cuntz_sum(k: int) -> tuple[LeavittAlgebra, list]:
    """The sum of w w^* over the 2^k words w of length k on rose(2), as
    trusted (coefficient, monomial) pairs; it normalizes to v in 2^k - 1
    rewrite steps."""
    g = rose(2)
    paths = [g.path("v", w) for w in product(("r1", "r2"), repeat=k)]
    return LeavittAlgebra(g), [(1, Monomial(p, p)) for p in paths]


def test_normalization_costs_the_same_per_rewrite_step():
    """Opcodes per rewrite step grow by a constant factor at most per
    doubling of the steps (31 to 255). The heap that orders the redexes
    runs in C, so its log factor is not counted here."""
    per_step = []
    for k in (5, 6, 7, 8):
        algebra, pairs = cuntz_sum(k)
        result = []
        count = opcodes(lambda: result.append(algebra.normal_form_steps(pairs)))
        (x, steps), = result
        assert str(x) == "1*v" and steps == 2 ** k - 1
        per_step.append(count / steps)
    assert max(_ratios(per_step)) <= 1.1, per_step


def complete_plus_sink(n: int) -> Graph:
    """K_n without loops (every vertex on many cycles, so the entry paths
    into the sink are infinite in number) plus an edge k0 -> s to a sink."""
    names = ["k%d" % i for i in range(n)]
    edges = [Edge("%s_%s" % (u, v), u, v) for u in names for v in names if u != v]
    return Graph(names + ["s"], edges + [Edge("out", "k0", "s")])


def test_no_socle_query_is_exponential():
    """socle_structure at depth 0 on K_n plus a sink, whose entry paths grow
    exponentially with the depth: opcodes per (V+E) do not grow."""
    per_size = []
    for n in (4, 8, 16, 32):
        g = complete_plus_sink(n)
        count = opcodes(partial(socle_structure, g, 0))
        per_size.append(count / (len(g.vertices) + len(g.edges)))
    assert max(_ratios(per_size)) <= 1.1, per_size


def test_opcodes_restores_the_previous_tracer():
    def outer(frame, event, arg):
        return None

    before = sys.gettrace()
    sys.settrace(outer)
    try:
        assert opcodes(lambda: sum(range(10))) > 0
        assert sys.gettrace() is outer
    finally:
        sys.settrace(before)
