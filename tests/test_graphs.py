import random
import re

import pytest

from leavitt import (
    CycleError,
    Edge,
    Graph,
    GraphError,
    GraphParseError,
    Path,
    SubsetError,
    UnknownVertexError,
    condition_L,
    cycle_has_exit,
    entry_paths,
    hedgehog_graph,
    hereditary_saturated_closure,
    is_acyclic,
    is_bifurcation,
    is_hereditary,
    is_saturated,
    line_points,
    parse_graph,
    paths_from_by_length,
    quotient_graph,
    require_cycle,
    socle_structure,
    to_dot,
    tree,
    vertex_ideal_minimal,
)
import leavitt.graphs as graphs_module
from leavitt.graphs import _path_counts
from leavitt.sampling import random_graph

from conftest import FIXTURE_TEXTS
import oracles
from oracles import simple_cycles, vertices_on_cycles


# ----------------------------------------------------------------------
# parsing and construction
# ----------------------------------------------------------------------

def test_parse_keeps_declaration_order(graphs):
    g = graphs["W"]
    assert g.vertices == ("v", "z", "w")
    assert [e.name for e in g.edges] == ["e", "f"]
    assert g.edge("e") == Edge("e", "z", "v")


def test_parse_accepts_comments_blanks_and_accumulating_vertices():
    g = parse_graph(
        "# a loop with an exit\n"
        "vertices: u\n"
        "\n"
        "edge c: u -> u  # the loop\n"
        "vertices: v\n"
        "edge e: u -> v\n"
    )
    assert g.vertices == ("u", "v")
    assert [e.name for e in g.edges] == ["c", "e"]


def test_parse_allows_edges_before_their_endpoints():
    g = parse_graph("edge e: a -> b\nvertices: a b\n")
    assert g.edge("e").range == "b"


@pytest.mark.parametrize(
    "text, line",
    [
        ("vertices:\n", 1),
        ("vertices: a\nnonsense\n", 2),
        ("vertices: a a\n", 1),
        ("vertices: a\nedge a: a -> a\n", 2),
        ("vertices: a\nedge e: a -> b\n", 2),
        ("vertices: a\nedge e: c -> a\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphParseError) as info:
        parse_graph(text)
    assert str(info.value).startswith("line %d:" % line)


def test_parse_requires_vertices():
    with pytest.raises(GraphParseError):
        parse_graph("# empty\n")


def test_graph_constructor_validation():
    with pytest.raises(GraphError):
        Graph([])
    with pytest.raises(GraphError):
        Graph(["a", "a"])
    with pytest.raises(GraphError):
        Graph(["a"], [Edge("a", "a", "a")])
    with pytest.raises(GraphError):
        Graph(["a"], [Edge("e", "a", "b")])
    with pytest.raises(GraphError):
        Graph([""])


def _message(build, error=GraphError) -> str:
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    return str(info.value)


def test_constructor_messages_and_first_fault(graphs):
    """The full message of every fault of Graph, parse_graph and
    quotient_graph, and which of several faults each reports first: Graph
    checks all vertices, then each edge in turn (name, then source, then
    range), a name's type before anything else about it; parse_graph
    checks each line as read, then the endpoints."""
    cases = {
        # Graph's twelve faults.
        "vertices 5 are not iterable": lambda: Graph(5),
        "edges 5 are not iterable": lambda: Graph(["a"], 5),
        "a graph needs at least one vertex": lambda: Graph([]),
        "vertex name 0 is not a string": lambda: Graph([0]),
        "edge name 1 is not a string": lambda: Graph(["a"], [Edge(1, "a", "a")]),
        "empty vertex name": lambda: Graph(["a", ""]),
        "duplicate name 'a'": lambda: Graph(["a", "a"]),
        "empty edge name": lambda: Graph(["a"], [Edge("", "a", "a")]),
        "edge 'e' has unknown source 'zz'": lambda: Graph(["a"], [Edge("e", "zz", "a")]),
        "edge 'e' has unknown range 'b'": lambda: Graph(["a"], [("e", "a", "b")]),
        "edge ('e', 'a') is not a (name, source, range) triple":
            lambda: Graph(["a"], [("e", "a")]),
        "edge 'e' has unknown source ['a']": lambda: Graph(["a"], [Edge("e", ["a"], "a")]),
    }
    for message, build in cases.items():
        assert _message(build) == message
    first_faults = [
        (lambda: Graph(["a"], [Edge("e", "zz", "a"), Edge("a", "a", "a")]),
         "edge 'e' has unknown source 'zz'"),
        (lambda: Graph(["", "a", "a"]), "empty vertex name"),
        (lambda: Graph(["a", "a", ""]), "duplicate name 'a'"),
        (lambda: Graph(["a", "a"], [Edge("", "zz", "zz")]), "duplicate name 'a'"),
        (lambda: Graph(["a"], [Edge("a", "zz", "yy")]), "duplicate name 'a'"),
        (lambda: Graph(["a"], [Edge("e", "zz", "yy")]), "edge 'e' has unknown source 'zz'"),
        (lambda: Graph(["a"], [Edge("e", "a", "yy"), Edge("", "a", "a")]),
         "edge 'e' has unknown range 'yy'"),
        (lambda: Graph(["a"], [Edge("e", "a", "a"), Edge("e", "zz", "a")]),
         "duplicate name 'e'"),
        (lambda: Graph(["", 0]), "empty vertex name"),
        (lambda: Graph(["a", "a", None]), "duplicate name 'a'"),
        (lambda: Graph(["a", ("a",)]), "vertex name ('a',) is not a string"),
        (lambda: Graph(["a"], [Edge("e", "zz", "a"), Edge(["f"], "a", "a")]),
         "edge 'e' has unknown source 'zz'"),
        (lambda: Graph(["a"], [Edge(None, "zz", "a")]), "edge name None is not a string"),
        (lambda: Graph(["a", "b"], [Edge("e", "a", 0)]), "edge 'e' has unknown range 0"),
        (lambda: Graph(["a"], [Edge("e", "a", {"a"})]), "edge 'e' has unknown range {'a'}"),
        (lambda: Graph(["a", "a"], [("e",)]), "duplicate name 'a'"),
        (lambda: Graph(["a"], [Edge("e", "zz", "a"), ("f", "a")]),
         "edge 'e' has unknown source 'zz'"),
        (lambda: Graph(["a"], [5]), "edge 5 is not a (name, source, range) triple"),
        (lambda: Graph(["a", "a"], 5), "duplicate name 'a'"),
        # Once a bare TypeError from the spine name's join.
        (lambda: hedgehog_graph(Graph(["a", "b"], [Edge(1, "a", "b")]), {"b"}),
         "edge name 1 is not a string"),
    ]
    for build, message in first_faults:
        assert _message(build) == message
    # An error raised while the vertices are iterated is not called theirs.
    assert _message(lambda: Graph(len(v) for v in [5]), TypeError) == (
        "object of type 'int' has no len()"
    )

    parse_cases = {
        "vertices:\n": "line 1: empty vertex list",
        "vertices: a\nnonsense\n": "line 2: cannot parse 'nonsense'",
        "vertices: a 1b\n": "line 1: bad vertex name '1b'",
        "vertices: a a\n": "line 1: duplicate name 'a'",
        "vertices: a\nedge a: a -> a\n": "line 2: duplicate name 'a'",
        "edge e: a -> a\nvertices: a\nvertices: e\n": "line 3: duplicate name 'e'",
        "vertices: a\nedge e: a -> b\n": "line 2: unknown range vertex 'b'",
        "vertices: a\nedge e: c -> a\n": "line 2: unknown source vertex 'c'",
        "vertices: a\nedge e: c -> d\n": "line 2: unknown source vertex 'c'",
        "edge e: c -> a\nvertices: a\nedge f: a -> b\n": "line 1: unknown source vertex 'c'",
        "vertices: a\nedge e: a -> b\nnonsense\n": "line 3: cannot parse 'nonsense'",
        "# empty\n": "no vertices declared",
        "edge e: a -> a\n": "no vertices declared",
    }
    for text, message in parse_cases.items():
        assert _message(lambda: parse_graph(text), GraphParseError) == message

    W, R2 = graphs["W"], graphs["R2"]
    quotient_cases = [
        (W, {"z"}, "subset is not hereditary"),
        (W, {"z", "v"}, "subset is not hereditary"),
        (W, {"v", "w"}, "subset is not saturated"),
        (R2, {"v"}, "quotient by the whole vertex set is empty"),
    ]
    for g, h, message in quotient_cases:
        assert _message(lambda: quotient_graph(g, h), SubsetError) == message
    assert _message(lambda: quotient_graph(W, {"zz"}), UnknownVertexError) == (
        "unknown vertex 'zz'"
    )


def test_graph_equality_and_queries(graphs):
    g = graphs["W"]
    assert g == parse_graph(FIXTURE_TEXTS["W"])
    assert g != graphs["T"]
    assert g.out_degree("z") == 2
    assert g.is_sink("v") and g.is_sink("w") and not g.is_sink("z")
    assert g.sinks() == ("v", "w")
    assert g.in_edges("v") == (Edge("e", "z", "v"),)
    with pytest.raises(UnknownVertexError):
        g.require_vertex("zz")


def _graph_text(g: Graph, rng) -> str:
    """The graph in the file format, its edge lines before, after or around
    the vertex line."""
    lines = ["edge %s: %s -> %s" % e for e in g.edges]
    lines.insert(rng.randint(0, len(lines)), "vertices: " + " ".join(g.vertices))
    return "\n".join(lines) + "\n"


def _footprint_graphs():
    rng = random.Random(37)
    for _ in range(60):
        g = random_graph(rng)
        yield g, parse_graph(_graph_text(g, rng))


def test_parsed_edges_share_the_vertex_strings():
    for g, parsed in _footprint_graphs():
        assert parsed == g
        ids = {id(v) for v in parsed.vertices}
        for e in parsed.edges:
            assert id(e.source) in ids and id(e.range) in ids


def test_graph_keeps_the_edges_it_is_given():
    rng = random.Random(41)
    for _ in range(20):
        g = random_graph(rng)
        edges = list(g.edges)
        again = Graph(g.vertices, edges)
        assert all(a is b for a, b in zip(again.edges, edges))
    plain = Graph(["a", "b"], [("e", "a", "b")])
    assert plain.edges == (Edge("e", "a", "b"),)
    assert type(plain.edges[0]) is Edge


def test_sorted_vertices_follow_declaration_order():
    rng = random.Random(43)
    for g, _ in _footprint_graphs():
        subset = [v for v in g.vertices if rng.random() < 0.5]
        rng.shuffle(subset)
        expected = tuple(v for v in g.vertices if v in subset)
        assert g.sorted_vertices(subset + subset[:1]) == expected
    with pytest.raises(UnknownVertexError):
        g.sorted_vertices(["zz"])


def _eager_in_edges(g: Graph) -> dict:
    return {v: tuple(e for e in g.edges if e.range == v) for v in g.vertices}


def test_out_degree_one_walks_build_no_in_edges():
    for _, parsed in _footprint_graphs():
        line_points(parsed)
        condition_L(parsed)
        for v in parsed.vertices:
            vertex_ideal_minimal(parsed, v)
        assert parsed._in is None


def test_lazy_in_edges_match_an_eager_rebuild():
    for g, parsed in _footprint_graphs():
        # First query on a fresh graph.
        assert g._in is None
        assert {v: g.in_edges(v) for v in g.vertices} == _eager_in_edges(g)
        # After queries that walk forwards only, and after the closure,
        # which builds the in-edges itself.
        parsed.sinks()
        tree(parsed, parsed.vertices[0])
        line_points(parsed)
        assert parsed._in is None
        hereditary_saturated_closure(parsed, parsed.vertices[:1])
        assert {v: parsed.in_edges(v) for v in parsed.vertices} == _eager_in_edges(
            parsed
        )
    with pytest.raises(UnknownVertexError):
        g.in_edges("zz")


def test_path_construction_and_validation(graphs):
    g = graphs["L3"]
    p = g.path("v1", ["a", "b"])
    assert (p.source, p.edges, p.range) == ("v1", ("a", "b"), "v3")
    assert len(p) == 2
    assert g.trivial_path("v2").is_trivial
    with pytest.raises(GraphError):
        g.path("v1", ["b"])
    with pytest.raises(GraphError):
        g.path("v1", ["a", "a"])
    q = g.concat(g.path("v1", ["a"]), g.path("v2", ["b"]))
    assert q == p
    with pytest.raises(GraphError):
        g.concat(p, p)


def test_path_vertices_and_sort_key(graphs):
    g = graphs["L3"]
    p = g.path("v1", ["a", "b"])
    assert g.path_vertices(p) == ("v1", "v2", "v3")
    trivial = g.trivial_path("v3")
    assert g.path_sort_key(trivial) < g.path_sort_key(p)


# ----------------------------------------------------------------------
# reachability and line points
# ----------------------------------------------------------------------

def test_tree_single_and_set_valued(graphs):
    W = graphs["W"]
    assert tree(W, "z") == {"v", "z", "w"}
    assert tree(W, "v") == {"v"}
    assert tree(W, ["v", "w"]) == {"v", "w"}
    assert tree(W, []) == frozenset()
    assert tree(graphs["LS"], "u") == {"u", "v"}
    with pytest.raises(UnknownVertexError):
        tree(W, "nope")


def test_bifurcations(graphs):
    assert is_bifurcation(graphs["W"], "z")
    assert not is_bifurcation(graphs["W"], "v")
    assert is_bifurcation(graphs["R2"], "v")
    assert not is_bifurcation(graphs["L3"], "v1")


def test_line_points(graphs):
    assert line_points(graphs["L3"]) == ("v1", "v2", "v3")
    assert line_points(graphs["W"]) == ("v", "w")
    assert line_points(graphs["T"]) == ()
    assert line_points(graphs["R2"]) == ()
    assert line_points(graphs["LS"]) == ("v",)


def test_cycle_detection(graphs):
    assert vertices_on_cycles(graphs["L3"]) == frozenset()
    assert vertices_on_cycles(graphs["T"]) == {"v"}
    assert vertices_on_cycles(graphs["LS"]) == {"u"}
    assert is_acyclic(graphs["L3"]) and is_acyclic(graphs["W"])
    assert not is_acyclic(graphs["T"])
    assert not is_acyclic(graphs["R2"])


def test_is_acyclic_agrees_with_cycle_vertices():
    rng = random.Random(7)
    for _ in range(100):
        g = random_graph(rng)
        assert is_acyclic(g) == (not vertices_on_cycles(g))


# ----------------------------------------------------------------------
# hereditary and saturated sets
# ----------------------------------------------------------------------

def test_hereditary_and_saturated(graphs):
    W = graphs["W"]
    assert is_hereditary(W, {"v"})
    assert is_saturated(W, {"v"})
    assert not is_hereditary(W, {"z"})
    assert not is_saturated(W, {"v", "w"})
    assert is_hereditary(graphs["LS"], {"v"})
    assert is_saturated(graphs["LS"], {"v"})


def test_closure_examples(graphs):
    assert hereditary_saturated_closure(graphs["W"], {"v"}) == {"v"}
    assert hereditary_saturated_closure(graphs["W"], {"v", "w"}) == {"v", "z", "w"}
    assert hereditary_saturated_closure(graphs["T"], {"v"}) == {"u", "v"}
    assert hereditary_saturated_closure(graphs["LS"], {"v"}) == {"v"}
    assert hereditary_saturated_closure(graphs["LS"], set()) == frozenset()
    with pytest.raises(UnknownVertexError):
        hereditary_saturated_closure(graphs["W"], {"nope"})


def _closure_oracle(g, seed_set):
    """Intersection of every hereditary saturated superset."""
    vs = list(g.vertices)
    best = set(vs)
    for mask in range(1 << len(vs)):
        s = {v for i, v in enumerate(vs) if mask >> i & 1}
        if seed_set <= s and is_hereditary(g, s) and is_saturated(g, s):
            best &= s
    return frozenset(best)


def test_closure_matches_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, max_vertices=6, max_edges=8)
        seeds = {v for v in g.vertices if rng.random() < 0.3}
        assert hereditary_saturated_closure(g, seeds) == _closure_oracle(g, seeds)


def test_closure_is_hereditary_and_saturated_and_monotone():
    rng = random.Random(13)
    for _ in range(60):
        g = random_graph(rng, max_vertices=7, max_edges=10)
        seeds = {v for v in g.vertices if rng.random() < 0.4}
        closed = hereditary_saturated_closure(g, seeds)
        assert seeds <= closed
        assert is_hereditary(g, closed)
        assert is_saturated(g, closed)
        assert hereditary_saturated_closure(g, closed) == closed


# ----------------------------------------------------------------------
# cycles
# ----------------------------------------------------------------------

def test_simple_cycles_fixtures(graphs):
    assert simple_cycles(graphs["L3"]) == ()
    assert simple_cycles(graphs["W"]) == ()
    [cT] = simple_cycles(graphs["T"])
    assert (cT.source, cT.edges) == ("v", ("f",))
    cycles = simple_cycles(graphs["R2"])
    assert [(c.source, c.edges) for c in cycles] == [("v", ("g",)), ("v", ("h",))]
    [cLS] = simple_cycles(graphs["LS"])
    assert cLS.edges == ("c",)


def _simple_cycles_oracle(g):
    found = set()
    for v in g.vertices:
        anchor = g.vertex_index(v)
        for layer in paths_from_by_length(g, v, len(g.vertices))[1:]:
            for p in layer:
                if p.range != v:
                    continue
                sources = [g.edge(n).source for n in p.edges]
                if len(set(sources)) != len(sources):
                    continue
                if min(g.vertex_index(s) for s in sources) != anchor:
                    continue
                found.add(p)
    return tuple(sorted(found, key=g.path_sort_key))


def test_simple_cycles_match_brute_force():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, max_vertices=5, max_edges=8)
        assert simple_cycles(g) == _simple_cycles_oracle(g)


def test_require_cycle(graphs):
    T = graphs["T"]
    c = require_cycle(T, T.path("v", ["f"]))
    assert c.edges == ("f",)
    with pytest.raises(CycleError):
        require_cycle(graphs["L3"], graphs["L3"].path("v1", ["a"]))
    R2 = graphs["R2"]
    with pytest.raises(CycleError):
        require_cycle(R2, R2.path("v", ["g", "h"]))
    with pytest.raises(CycleError):
        require_cycle(T, T.trivial_path("v"))
    # Closed on the ranges alone: e starts at u, and f does not reach u.
    with pytest.raises(GraphError, match="edge 'e' starts at 'u', expected 'v'"):
        require_cycle(T, Path("v", ("e",), "v"))
    with pytest.raises(GraphError, match="not at its range 'u'"):
        require_cycle(T, Path("v", ("f",), "u"))


def test_cycle_has_exit(graphs):
    T = graphs["T"]
    assert not cycle_has_exit(T, T.path("v", ["f"]))
    LS = graphs["LS"]
    assert cycle_has_exit(LS, LS.path("u", ["c"]))
    R2 = graphs["R2"]
    assert cycle_has_exit(R2, R2.path("v", ["g"]))


def test_condition_L(graphs):
    assert condition_L(graphs["L3"])
    assert condition_L(graphs["W"])
    assert condition_L(graphs["R2"])
    assert condition_L(graphs["LS"])
    assert not condition_L(graphs["T"])


def test_condition_L_matches_cycle_scan():
    rng = random.Random(19)
    for _ in range(60):
        g = random_graph(rng, max_vertices=6, max_edges=9)
        expected = all(cycle_has_exit(g, c) for c in simple_cycles(g))
        assert condition_L(g) == expected


# ----------------------------------------------------------------------
# quotients and hedgehogs
# ----------------------------------------------------------------------

def test_quotient_graph(graphs):
    q = quotient_graph(graphs["LS"], {"v"})
    assert q.vertices == ("u",)
    assert [tuple(e) for e in q.edges] == [("c", "u", "u")]
    q2 = quotient_graph(graphs["W"], {"v"})
    assert q2.vertices == ("z", "w")
    assert [e.name for e in q2.edges] == ["f"]
    with pytest.raises(SubsetError):
        quotient_graph(graphs["W"], {"z"})
    with pytest.raises(SubsetError):
        quotient_graph(graphs["W"], {"v", "w"})
    with pytest.raises(SubsetError):
        quotient_graph(graphs["R2"], {"v"})


def test_entry_paths(graphs):
    LS = graphs["LS"]
    entries = entry_paths(LS, {"v"}, 3)
    assert [(p.source, p.edges) for p in entries] == [
        ("u", ("e",)),
        ("u", ("c", "e")),
        ("u", ("c", "c", "e")),
    ]
    assert entry_paths(graphs["T"], {"v"}, 4) == [
        graphs["T"].path("u", ["e"])
    ]
    assert entry_paths(graphs["W"], {"v", "z", "w"}, 4) == []


def test_hedgehog_whole_set_reproduces_graph(graphs):
    W = graphs["W"]
    hh = hedgehog_graph(W, {"v", "z", "w"})
    assert hh.complete
    assert hh.blocking_cycle is None
    assert hh.entry_part == ()
    assert hh.graph == W


def test_hedgehog_finite_entries(graphs):
    T = graphs["T"]
    hh = hedgehog_graph(T, {"v"})
    assert hh.complete
    assert hh.ideal_part == ("v",)
    assert hh.entry_part == ("e",)
    assert [tuple(e) for e in hh.graph.edges] == [
        ("f", "v", "v"),
        ("@e", "e", "v"),
    ]
    # Graph names may hold "." and "@", so a spine name can repeat one of
    # the graph's names, or another spine's; the hedgehog's Graph refuses.
    clashes = [
        (
            Graph(["c", "s", "@a"], [Edge("l", "c", "c"), Edge("a", "c", "s")]),
            {"s", "@a"},
            "@a",
        ),
        (
            Graph(
                ["x", "y", "s"],
                [
                    Edge("a", "x", "y"),
                    Edge("b", "y", "s"),
                    Edge("a.b", "x", "s"),
                    Edge("l", "y", "y"),
                ],
            ),
            {"s"},
            "a.b",
        ),
    ]
    for g, h, name in clashes:
        message = re.escape("duplicate name %r" % name)
        with pytest.raises(GraphError, match=message):
            hedgehog_graph(g, h, 2)
        with pytest.raises(GraphError, match=message):
            socle_structure(g, 2)


def test_hedgehog_truncates_behind_a_blocking_cycle(graphs):
    LS = graphs["LS"]
    hh = hedgehog_graph(LS, {"v"})
    assert not hh.complete
    assert hh.blocking_cycle is not None
    assert hh.blocking_cycle.edges == ("c",)
    assert hh.entry_part == ("e", "c.e", "c.c.e")
    assert is_acyclic(hh.graph)
    deeper = hedgehog_graph(LS, {"v"}, depth_bound=5)
    assert len(deeper.entry_part) == 5


def test_hedgehog_rejects_a_negative_depth():
    # The entry path b exists, so no bound below 1 yields a complete hedgehog.
    g = parse_graph(
        "vertices: x y s\nedge a: x -> y\nedge b: x -> s\nedge c: y -> y\n"
    )
    for bad in ("3", 1.5, True, False):
        with pytest.raises(GraphError):
            hedgehog_graph(g, {"s"}, depth_bound=bad)
    with pytest.raises(GraphError, match="negative hedgehog depth bound -1"):
        hedgehog_graph(g, {"s"}, depth_bound=-1)
    shallow = hedgehog_graph(g, {"s"}, depth_bound=0)
    assert not shallow.complete and shallow.entry_part == ()
    assert hedgehog_graph(g, {"s"}).entry_part == ("b",)


def test_hedgehog_rejects_bad_subsets(graphs):
    with pytest.raises(SubsetError):
        hedgehog_graph(graphs["W"], {"z"})
    with pytest.raises(SubsetError):
        hedgehog_graph(graphs["W"], set())


# ----------------------------------------------------------------------
# enumeration and output
# ----------------------------------------------------------------------

def test_paths_from_by_length(graphs):
    layers = paths_from_by_length(graphs["L3"], "v1", 3)
    assert [[p.edges for p in layer] for layer in layers] == [
        [()],
        [("a",)],
        [("a", "b")],
        [],
    ]
    layers_r2 = paths_from_by_length(graphs["R2"], "v", 2)
    assert [len(layer) for layer in layers_r2] == [1, 2, 4]


def test_to_dot_is_stable(graphs):
    expected = (
        "digraph {\n"
        "  v;\n"
        "  z;\n"
        "  w;\n"
        '  z -> v [label="e"];\n'
        '  z -> w [label="f"];\n'
        "}\n"
    )
    assert to_dot(graphs["W"]) == expected
    assert to_dot(graphs["W"]) == to_dot(graphs["W"])


def test_to_dot_quotes_awkward_names():
    g = Graph(["a", "b.c"], [Edge("x.y", "a", "b.c")])
    text = to_dot(g)
    assert '"b.c";' in text
    assert 'a -> "b.c" [label="x.y"];' in text
    # A backslash is escaped in a label as in an id, so the string ends.
    g = Graph(["v", "w"], [Edge("x" + "\\", "v", "w")])
    assert 'v -> w [label="x\\\\"];' in to_dot(g)


# ----------------------------------------------------------------------
# sweeps against the oracles
# ----------------------------------------------------------------------

def _cycles_with_a_sink(rng):
    """Up to five vertices with one to two edges each on average, plus a
    sink w fed by one or two edges, declared in shuffled order."""
    n = rng.randint(1, 5)
    vs = ["v%d" % i for i in range(1, n + 1)]
    edges = [
        Edge("e%d" % i, rng.choice(vs), rng.choice(vs))
        for i in range(1, rng.randint(n, 2 * n) + 1)
    ]
    edges += [
        Edge("s%d" % i, rng.choice(vs), "w") for i in range(1, rng.randint(1, 2) + 1)
    ]
    order = vs + ["w"]
    rng.shuffle(order)
    return Graph(order, edges)


def _oracle_graphs():
    rng = random.Random(29)
    for _ in range(300):
        yield random_graph(rng)
    for _ in range(200):
        yield _cycles_with_a_sink(rng)


def test_sweeps_match_the_oracles():
    rng = random.Random(31)
    blocked = 0
    for g in _oracle_graphs():
        assert line_points(g) == oracles.line_points(g)
        assert tuple(v for v in g.vertices if vertex_ideal_minimal(g, v)) == line_points(g)
        assert is_acyclic(g) == oracles.is_acyclic(g)
        assert condition_L(g) == oracles.condition_L(g)
        seeds = {v for v in g.vertices if rng.random() < 0.3}
        assert hereditary_saturated_closure(
            g, seeds
        ) == oracles.hereditary_saturated_closure(g, seeds)
        on = vertices_on_cycles(g)
        counts = _path_counts(g)
        for w in g.sinks():
            assert counts[w] == oracles.paths_ending_at(g, w, on)
        h = hereditary_saturated_closure(g, line_points(g))
        assert h == oracles.hereditary_saturated_closure(g, oracles.line_points(g))
        if not h:
            with pytest.raises(SubsetError):
                hedgehog_graph(g, h)
            continue
        for depth in (0, 1, 2, None):
            bound = len(g.vertices) + 1 if depth is None else depth
            assert entry_paths(g, h, bound) == oracles.entry_paths(g, h, bound)
            hh = hedgehog_graph(g, h, depth)
            assert hh == oracles.hedgehog_graph(g, h, depth)
        blocked += hh.blocking_cycle is not None
    # The cycle-heavy family must actually exercise the blocking cycle.
    assert blocked >= 100


def test_entry_paths_match_the_oracle_on_any_subset():
    """Any subset, hereditary or not, at every depth from 0 to V+2; the
    oracle's paths up to a depth are a prefix of its shortlex list."""
    rng = random.Random(47)
    for g in _oracle_graphs():
        subset = {v for v in g.vertices if rng.random() < 0.4}
        top = len(g.vertices) + 2
        every = oracles.entry_paths(g, subset, top)
        for depth in range(top + 1):
            assert entry_paths(g, subset, depth) == [p for p in every if len(p) <= depth]


def test_unknown_vertex_messages(graphs):
    g = graphs["W"]
    for query in (
        g.require_vertex,
        g.out_edges,
        g.in_edges,
        lambda v: tree(g, v),
        lambda v: tree(g, ["z", v]),
        lambda v: hereditary_saturated_closure(g, {"v", v}),
        lambda v: entry_paths(g, ["w", v], 2),
        lambda v: vertex_ideal_minimal(g, v),
    ):
        with pytest.raises(UnknownVertexError, match=r"^unknown vertex 'zz'$"):
            query("zz")


def _complete_plus_sink(n: int) -> Graph:
    """K_n without loops plus one edge into a sink s: 4^(l-1) entry paths
    of length l into {s} for n = 5."""
    names = ["k%d" % i for i in range(n)]
    edges = [Edge("%s_%s" % (u, v), u, v) for u in names for v in names if u != v]
    return Graph(names + ["s"], edges + [Edge("out", "k0", "s")])


def test_entry_paths_stop_at_the_cap(monkeypatch):
    g = _complete_plus_sink(5)
    # 1 + 4 + 16 + 64 = 85 entry paths up to length 4, 341 up to length 5.
    monkeypatch.setattr(graphs_module, "MAX_ENTRY_PATHS", 85)
    assert len(entry_paths(g, {"s"}, 4)) == 85
    assert len(hedgehog_graph(g, {"s"}, 4).entry_part) == 85
    with pytest.raises(GraphError, match=r"^341 entry paths up to length 5, more "
                       r"than the 85 allowed; lower the depth bound \(--depth\)$"):
        entry_paths(g, {"s"}, 5)
    monkeypatch.setattr(graphs_module, "MAX_ENTRY_PATHS", 84)
    with pytest.raises(GraphError, match=r"^85 entry paths up to length 4, more"):
        hedgehog_graph(g, {"s"}, 4)
    assert len(entry_paths(g, {"s"}, 3)) == 21


def test_k6_plus_a_sink_stays_under_the_cap():
    assert graphs_module.MAX_ENTRY_PATHS == 100_000
    assert len(entry_paths(_complete_plus_sink(6), {"s"}, 8)) == 97_656
