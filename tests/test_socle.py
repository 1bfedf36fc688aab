import random

import pytest

from leavitt import (
    CyclicGraphError,
    Graph,
    GraphError,
    LeavittAlgebra,
    MixedContextError,
    PrimeField,
    QQ,
    SubsetError,
    condition_L,
    entry_paths,
    in_socle,
    is_acyclic,
    is_simple,
    left_ideal_sum_membership,
    line_points,
    matrix_rep,
    parse_element,
    parse_graph,
    quotient_graph,
    quotient_image,
    socle_equals_algebra,
    socle_generators,
    socle_is_nonzero,
    socle_structure,
    vertex_ideal_minimal,
)
import leavitt.graphs
import leavitt.socle
from leavitt.sampling import (
    line_graph,
    random_element,
    random_graph,
    random_nonzero_element,
)

from conftest import FIXTURE_TEXTS
import oracles


# ----------------------------------------------------------------------
# generators and the two boolean decisions
# ----------------------------------------------------------------------

def test_socle_generators(graphs):
    assert socle_generators(graphs["W"]) == frozenset({"v", "z", "w"})
    assert socle_generators(graphs["L3"]) == frozenset({"v1", "v2", "v3"})
    assert socle_generators(graphs["LS"]) == frozenset({"v"})
    assert socle_generators(graphs["T"]) == frozenset()
    assert socle_generators(graphs["R2"]) == frozenset()


def test_socle_booleans(graphs):
    expectations = {
        "L3": (True, True),
        "W": (True, True),
        "T": (False, False),
        "R2": (False, False),
        "LS": (True, False),
    }
    for name, (nonzero, whole) in expectations.items():
        assert socle_is_nonzero(graphs[name]) is nonzero
        assert socle_equals_algebra(graphs[name]) is whole


def test_socle_decisions_take_no_line_point_sweep(graphs, monkeypatch):
    """H is closed from the sinks: with line_points refusing to run, the
    generators, both booleans and membership keep the answers of the
    closure of the line points."""
    rng = random.Random(131)
    cases = list(graphs.values()) + [
        random_graph(rng, max_vertices=6, max_edges=9) for _ in range(60)
    ]
    expected = []
    for g in cases:
        h = oracles.socle_generators(g)
        whole = len(h) == len(g.vertices)
        xs = [random_element(rng, LeavittAlgebra(g, QQ)) for _ in range(3)]
        members = [whole or quotient_image(x, h).is_zero for x in xs]
        expected.append((h, bool(oracles.line_points(g)), whole, xs, members))

    def refuse(graph):
        raise AssertionError("line_points was called")

    monkeypatch.setattr(leavitt.socle, "line_points", refuse)
    monkeypatch.setattr(leavitt.graphs, "line_points", refuse)
    for g, (h, nonzero, whole, xs, members) in zip(cases, expected):
        assert socle_generators(g) == h
        assert socle_is_nonzero(g) is nonzero
        assert socle_equals_algebra(g) is whole
        assert [in_socle(x) for x in xs] == members


# ----------------------------------------------------------------------
# quotient images and membership
# ----------------------------------------------------------------------

def test_quotient_image_kills_the_ideal(algebras):
    LS = algebras["LS"]
    u_bar = quotient_image(LS.vertex("u"), {"v"})
    assert str(u_bar) == "1*u"
    assert quotient_image(LS.edge("e"), {"v"}).is_zero
    c_bar = quotient_image(LS.edge("c"), {"v"})
    assert str(c_bar) == "1*c"
    assert c_bar.algebra.graph == quotient_graph(LS.graph, {"v"})


def test_quotient_image_empty_subset_is_identity(algebras):
    x = parse_element(algebras["W"], "e + 2*z")
    assert quotient_image(x, ()) == x


def test_quotient_image_shared_target(algebras):
    LS = algebras["LS"]
    target = LeavittAlgebra(quotient_graph(LS.graph, {"v"}), LS.field)
    a = quotient_image(LS.vertex("u"), {"v"}, target)
    b = quotient_image(LS.edge("c"), {"v"}, target)
    assert a + b == parse_element(target, "u + c")


def test_quotient_image_rejects_bad_subsets(algebras):
    with pytest.raises(SubsetError):
        quotient_image(algebras["W"].vertex("v"), {"z"})
    with pytest.raises(SubsetError):
        quotient_image(algebras["R2"].vertex("v"), {"v"})


def test_quotient_image_checks_the_subset_given_a_target():
    A = LeavittAlgebra(parse_graph("vertices: a b c\nedge x: a -> b\nedge y: b -> c\n"))
    T = LeavittAlgebra(parse_graph("vertices: a b\nedge x: a -> b\n"))
    x = A.vertex("a") + A.edge("x")
    for target in (None, T):
        with pytest.raises(SubsetError, match="not hereditary"):
            quotient_image(x, {"b"}, target)


def test_quotient_image_rejects_a_target_over_another_quotient(algebras):
    LS = algebras["LS"]
    quotient = quotient_graph(LS.graph, {"v"})
    for wrong in (LeavittAlgebra(quotient, PrimeField(3)), LS, algebras["R2"]):
        with pytest.raises(MixedContextError):
            quotient_image(LS.vertex("u"), {"v"}, wrong)


def test_in_socle_examples(algebras):
    assert in_socle(algebras["W"].ghost("e"))
    assert in_socle(algebras["W"].vertex("z"))
    assert not in_socle(algebras["LS"].vertex("u"))
    assert in_socle(algebras["LS"].vertex("v"))
    assert not in_socle(algebras["T"].edge("f"))
    assert in_socle(algebras["T"].zero())


def test_in_socle_normalizes_in_the_quotient_only_when_it_must(monkeypatch):
    """On v -> s, v -> u, u -> u, H is {s}, and e e* normalizes to v - f f*:
    no term ends in H, yet it lies in the socle, because f is v's special
    edge in the quotient. Of these elements only it, and f f*, need the
    quotient algebra; the first call builds it, the one graph built, and
    later calls build none."""
    algebra = LeavittAlgebra(parse_graph(
        "vertices: v s u\nedge e: v -> s\nedge f: v -> u\nedge g: u -> u\n"
    ))
    builds = []
    built, init = Graph._built.__func__, Graph.__init__

    def counted_built(cls, vertices, edges):
        builds.append(vertices)
        return built(cls, vertices, edges)

    def counted_init(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(Graph, "_built", classmethod(counted_built))
    monkeypatch.setattr(Graph, "__init__", counted_init)
    direct = {
        "v": False, "s": True, "u": False, "e": True, "f": False, "g": False,
        "e^*": True, "f^*": False, "g g^*": False, "f g f^*": False,
        "e e^* f": True, "u - g g^*": True, "2 s + f g": False,
    }
    for text, member in direct.items():
        y = parse_element(algebra, text)
        assert oracles.in_socle(y) is member, text
        builds.clear()
        assert in_socle(y) is member and builds == [], text
    assert algebra._socle_quotient is None
    x, y = parse_element(algebra, "e e^*"), parse_element(algebra, "f f^*")
    assert str(x) == "1*v - 1*f f^*"
    assert oracles.in_socle(x) and not oracles.in_socle(y)
    builds.clear()
    assert in_socle(x) and len(builds) == 1
    quotient = algebra._socle_quotient
    assert quotient.graph == quotient_graph(algebra.graph, {"s"})
    builds.clear()
    assert in_socle(x) and not in_socle(y)
    assert algebra._socle_quotient is quotient and builds == []


def test_membership_in_vertex_ideal_sums(algebras):
    W = algebras["W"]
    estar = W.ghost("e")
    assert not left_ideal_sum_membership(estar, {"v", "w"})
    assert left_ideal_sum_membership(estar, {"z"})
    assert left_ideal_sum_membership(W.vertex("v"), {"v"})
    assert left_ideal_sum_membership(W.zero(), {"v"})
    with pytest.raises(SubsetError):
        left_ideal_sum_membership(estar, ())
    with pytest.raises(Exception):
        left_ideal_sum_membership(estar, {"nope"})


def test_membership_matches_ghost_source_support(algebras):
    rng = random.Random(97)
    over_gf5 = [LeavittAlgebra(a.graph, PrimeField(5)) for a in algebras.values()]
    for algebra in list(algebras.values()) + over_gf5:
        vertices = algebra.graph.vertices
        for _ in range(30):
            x = random_element(rng, algebra)
            picked = {v for v in vertices if rng.random() < 0.5}
            if not picked:
                picked = {vertices[0]}
            expected = all(
                m.ghost.source in picked for m, _ in x.items()
            )
            assert left_ideal_sum_membership(x, picked) is expected
            assert oracles.left_ideal_sum_membership(x, picked) is expected


# ----------------------------------------------------------------------
# the structure report
# ----------------------------------------------------------------------

def test_structure_of_the_fixtures(graphs):
    w = socle_structure(graphs["W"])
    assert w.line_points == ("v", "w")
    assert w.closure_h == ("v", "z", "w")
    assert w.summands == (2, 2)
    assert w.socle_is_whole
    assert w.hedgehog is not None and w.hedgehog.complete

    l3 = socle_structure(graphs["L3"])
    assert l3.summands == (3,)
    assert l3.socle_is_whole

    ls = socle_structure(graphs["LS"])
    assert ls.line_points == ("v",)
    assert ls.closure_h == ("v",)
    assert ls.summands == (None,)
    assert ls.summand_texts() == ("inf",)
    assert not ls.socle_is_whole

    for name in ("T", "R2"):
        report = socle_structure(graphs[name])
        assert report.summands == ()
        assert report.hedgehog is None
        assert not report.socle_is_whole


def test_structure_hedgehog_truncation(graphs):
    ls = socle_structure(graphs["LS"])
    hh = ls.hedgehog
    assert not hh.complete
    assert hh.blocking_cycle is not None
    assert hh.blocking_cycle.edges == ("c",)
    assert hh.ideal_part == ("v",)
    assert hh.entry_part == ("e", "c.e", "c.c.e")
    assert is_acyclic(hh.graph)
    deeper = socle_structure(graphs["LS"], depth_bound=5)
    assert len(deeper.hedgehog.entry_part) == 5
    # R2 has no sink, so H is empty and no hedgehog is built; the bound is
    # checked all the same.
    for name in ("LS", "R2"):
        for bad in ("3", 1.5, True):
            with pytest.raises(GraphError):
                socle_structure(graphs[name], depth_bound=bad)
        with pytest.raises(GraphError, match="negative hedgehog depth bound -1"):
            socle_structure(graphs[name], depth_bound=-1)
    assert socle_structure(graphs["R2"], depth_bound=0).hedgehog is None


def _k5_plus_sink() -> Graph:
    """K5 without loops plus an edge into a sink s."""
    names = ["k%d" % i for i in range(5)]
    return parse_graph(
        "vertices: %s s\n" % " ".join(names)
        + "".join(
            "edge %s_%s: %s -> %s\n" % (u, v, u, v)
            for u in names for v in names if u != v
        )
        + "edge out: k0 -> s\n"
    )


def test_structure_builds_each_spine_once(monkeypatch):
    """K5 without loops plus an edge into a sink s has 4^(l-1) entry paths
    of length l: 5,461 up to the default bound 7. They are built in
    shortlex order, so none is sorted, and the sweeps read the adjacency
    maps, so no vertex is looked up edge by edge."""
    g = _k5_plus_sink()

    def count(name):
        calls = []
        method = getattr(Graph, name)

        def counted(self, *args):
            calls.append(args)
            return method(self, *args)

        monkeypatch.setattr(Graph, name, counted)
        return calls

    calls = [count(name) for name in ("path_sort_key", "in_edges", "out_edges")]
    hh = socle_structure(g).hedgehog
    assert len(hh.entry_part) == 5461
    assert not hh.complete
    assert len(entry_paths(g, {"s"}, 7)) == 5461
    assert [len(c) for c in calls] == [0, 0, 0]


def test_library_graphs_are_checked_once(monkeypatch, algebras):
    """Parsed files, quotients and hedgehogs are built from parts already
    checked, so none goes through the checks of Graph.__init__ again. The
    conftest wrapper of the unchecked build calls the constructor it saved
    before this patch, so its own calls are not counted."""
    calls = []
    init = Graph.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(Graph, "__init__", counted)
    counts = {}
    g = _k5_plus_sink()
    calls.clear()
    assert len(socle_structure(g).hedgehog.entry_part) == 5461
    counts["socle_structure(K5 + sink)"] = len(calls)
    calls.clear()
    for text in FIXTURE_TEXTS.values():
        parse_graph(text)
    counts["parse_graph"] = len(calls)
    calls.clear()
    LS = algebras["LS"]
    assert not in_socle(LS.vertex("u")) and in_socle(LS.vertex("v"))
    counts["in_socle(LS)"] = len(calls)
    assert counts == dict.fromkeys(counts, 0)
    Graph(["a"])  # the counter does see the public constructor
    assert len(calls) == 1


def test_structure_sweeps_the_path_counts_once_per_graph(monkeypatch):
    """socle_structure reads the path counts for its summands and inside
    hedgehog_graph; a graph computes them once. A sweep is a call that
    hands back counts no earlier call handed back. Likewise the one search
    of the graph's cycles, behind the counts and every other cycle query,
    runs once per graph."""
    results = []
    searches = []
    sweep = leavitt.graphs._path_counts
    search = leavitt.graphs._cycles

    def counted(graph):
        counts = sweep(graph)
        if not any(counts is seen for seen in results):
            results.append(counts)
        return counts

    def searched(graph):
        cycles = search(graph)
        if not any(cycles is seen for seen in searches):
            searches.append(cycles)
        return cycles

    for module in (leavitt.graphs, leavitt.socle):
        monkeypatch.setattr(module, "_path_counts", counted)
        monkeypatch.setattr(module, "_cycles", searched)
    for g in [parse_graph(text) for text in FIXTURE_TEXTS.values()] + [_k5_plus_sink()]:
        before = len(results)
        first = socle_structure(g)
        assert len(results) == before + 1
        assert socle_structure(g) == first
        assert len(results) == before + 1
        assert len(searches) == before + 1
        for query in (line_points, condition_L, is_simple, socle_generators):
            query(g)
        for v in g.vertices:
            vertex_ideal_minimal(g, v)
        assert len(searches) == before + 1
        # The kept counts take no part in equality or hashing.
        twin = Graph(g.vertices, g.edges)
        assert twin == g and hash(twin) == hash(g)


def test_summand_texts_mixes_finite_and_infinite(graphs):
    report = socle_structure(graphs["LS"])
    assert report.summand_texts() == ("inf",)
    w = socle_structure(graphs["W"])
    assert w.summand_texts() == ("2", "2")


# ----------------------------------------------------------------------
# matrix representation on acyclic graphs
# ----------------------------------------------------------------------

def test_matrix_rep_frozen_values(algebras):
    W = algebras["W"]
    one, zero = QQ.one(), QQ.zero()
    rz = matrix_rep(W.vertex("z"))
    assert rz.sinks == ("v", "w")
    assert rz.sizes == (2, 2)
    assert rz.blocks == (
        ((zero, zero), (zero, one)),
        ((zero, zero), (zero, one)),
    )
    re = matrix_rep(W.edge("e"))
    assert re.blocks[0] == ((zero, zero), (one, zero))
    assert re.blocks[1] == ((zero, zero), (zero, zero))
    assert matrix_rep(W.ghost("e")).blocks[0] == ((zero, one), (zero, zero))

    L3 = algebras["L3"]
    r1 = matrix_rep(L3.vertex("v1"))
    assert r1.sinks == ("v3",)
    assert r1.sizes == (3,)
    assert sum(n * n for n in r1.sizes) == 9


def test_matrix_rep_identity_and_zero(algebras):
    for name in ("L3", "W"):
        algebra = algebras[name]
        rep_one = matrix_rep(algebra.one())
        for block, n in zip(rep_one.blocks, rep_one.sizes):
            for i in range(n):
                for j in range(n):
                    expected = QQ.one() if i == j else QQ.zero()
                    assert block[i][j] == expected
        assert matrix_rep(algebra.zero()).is_zero


def test_matrix_rep_needs_an_acyclic_graph(algebras):
    for name in ("T", "R2", "LS"):
        with pytest.raises(CyclicGraphError):
            matrix_rep(algebras[name].vertex(algebras[name].graph.vertices[0]))


def test_matrix_rep_is_a_faithful_homomorphism(algebras):
    rng = random.Random(101)
    for name in ("L3", "W"):
        algebra = algebras[name]
        for _ in range(75):
            x = random_element(rng, algebra)
            y = random_element(rng, algebra)
            rx, ry = matrix_rep(x), matrix_rep(y)
            assert matrix_rep(x + y) == rx + ry
            assert matrix_rep(x * y) == rx * ry
            assert rx.is_zero == x.is_zero
        for _ in range(75):
            x = random_nonzero_element(rng, algebra)
            assert not matrix_rep(x).is_zero


def test_matrix_rep_matches_the_all_paths_oracle():
    rng = random.Random(103)
    seen = 0
    while seen < 120:
        g = random_graph(rng, max_vertices=6, max_edges=9)
        if not is_acyclic(g):
            continue
        seen += 1
        algebra = LeavittAlgebra(g, QQ)
        for x in (algebra.one(), random_element(rng, algebra)):
            assert matrix_rep(x) == oracles.matrix_rep(x)


def test_matrix_blocks_refuse_mixed_graphs(algebras):
    a = matrix_rep(algebras["W"].vertex("v"))
    b = matrix_rep(algebras["L3"].vertex("v1"))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


# ----------------------------------------------------------------------
# invariants over random graphs
# ----------------------------------------------------------------------

def test_socle_nonzero_iff_graph_has_a_sink():
    rng = random.Random(103)
    for _ in range(200):
        g = random_graph(rng)
        assert socle_is_nonzero(g) == bool(g.sinks())


def test_hedgehog_of_the_closure_is_acyclic():
    rng = random.Random(107)
    seen = 0
    while seen < 150:
        g = random_graph(rng, max_vertices=10, max_edges=15)
        if not line_points(g):
            continue
        seen += 1
        report = socle_structure(g)
        assert report.hedgehog is not None
        assert is_acyclic(report.hedgehog.graph)


def test_line_point_ideals_sit_inside_the_socle():
    rng = random.Random(109)
    seen = 0
    while seen < 60:
        g = random_graph(rng, max_vertices=6, max_edges=9)
        pl = line_points(g)
        if not pl:
            continue
        seen += 1
        algebra = LeavittAlgebra(g, QQ)
        a = random_element(rng, algebra)
        u = rng.choice(pl)
        assert in_socle(a * algebra.vertex(u))


def test_socle_is_a_two_sided_ideal(algebras):
    rng = random.Random(113)
    for algebra in algebras.values():
        pl = line_points(algebra.graph)
        if not pl:
            continue
        for _ in range(25):
            x = random_element(rng, algebra) * algebra.vertex(rng.choice(pl))
            a = random_element(rng, algebra)
            b = random_element(rng, algebra)
            assert in_socle(x)
            assert in_socle(a * x * b)


def test_the_socle_is_graded_and_self_adjoint(graphs):
    """x and its involution are both in the socle or both out, and so is
    every homogeneous component of a member, over Q and GF(5)."""
    rng = random.Random(137)
    cases = [graphs["LS"]]
    while len(cases) < 12:
        g = random_graph(rng, max_vertices=6, max_edges=9)
        if 0 < len(socle_generators(g)) < len(g.vertices):
            cases.append(g)
    inside = outside = 0
    for field in (QQ, PrimeField(5)):
        for g in cases:
            algebra = LeavittAlgebra(g, field)
            h = g.sorted_vertices(socle_generators(g))
            for _ in range(20):
                x = random_element(rng, algebra)
                if rng.random() < 0.5:
                    x = x * algebra.vertex(rng.choice(h)) * random_element(rng, algebra)
                member = in_socle(x)
                assert in_socle(x.involution()) == member
                if x.is_zero:
                    continue
                if not member:
                    outside += 1
                    continue
                inside += 1
                low, high = x.degree_range()
                for d in range(low, high + 1):
                    assert in_socle(x.homogeneous_component(d))
    assert inside >= 100 and outside >= 100


def test_structure_agrees_with_matrices_on_acyclic_graphs():
    rng = random.Random(127)
    seen = 0
    while seen < 40:
        g = random_graph(rng, max_vertices=6, max_edges=8)
        if not is_acyclic(g):
            continue
        seen += 1
        report = socle_structure(g)
        assert report.socle_is_whole
        assert report.hedgehog is not None and report.hedgehog.complete
        algebra = LeavittAlgebra(g, QQ)
        rep = matrix_rep(algebra.one())
        assert sorted(rep.sizes) == list(report.summands)


def test_structure_of_a_long_line():
    # A simple path of 1,000 edges once overflowed the recursive cycle search.
    report = socle_structure(line_graph(1000))
    assert len(report.line_points) == 1000
    assert report.summands == (1000,)
    assert report.socle_is_whole
    assert report.hedgehog.complete and report.hedgehog.blocking_cycle is None
