import random
from math import gcd

import pytest

from leavitt import (
    AlgebraError,
    CyclePolynomial,
    Edge,
    Graph,
    GraphError,
    Generator,
    LeavittAlgebra,
    PrimeField,
    QQ,
    ReductionWitness,
    ScalarVertex,
    ZeroElementError,
    is_simple,
    nondegeneracy_witness,
    outcome_element,
    parse_element,
    realify,
    reduce,
    verify_witness,
    vertex_ideal_minimal,
    witness_from_obj,
    witness_to_obj,
)
import leavitt.graphs
from leavitt.sampling import line_graph, random_graph, random_nonzero_element

import oracles


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def test_generator_text_and_resolution(graphs, algebras):
    W, AW = graphs["W"], algebras["W"]
    for text, kind in (("v", "vertex"), ("e", "edge"), ("e^*", "ghost")):
        gen = Generator.from_text(W, text)
        assert (gen.kind, gen.text()) == (kind, text)
        assert gen.element(AW) == parse_element(AW, text)
    with pytest.raises(AlgebraError):
        Generator.from_text(W, "nope")
    with pytest.raises(GraphError):
        Generator.from_text(W, "v^*")
    with pytest.raises(AlgebraError):
        Generator("twist", "e")


# ----------------------------------------------------------------------
# realify
# ----------------------------------------------------------------------

def test_realify_example(algebras):
    W = algebras["W"]
    nu, y = realify(W.ghost("e"))
    assert (nu.source, nu.edges) == ("z", ("e",))
    assert y == W.vertex("v")


def test_realify_properties(algebras):
    rng = random.Random(73)
    for algebra in algebras.values():
        for _ in range(40):
            x = random_nonzero_element(rng, algebra)
            nu, y = realify(x)
            assert not y.is_zero
            assert y.is_real
            assert y == x * algebra.path_element(nu)
    with pytest.raises(ZeroElementError):
        realify(algebras["W"].zero())


# ----------------------------------------------------------------------
# reduce on the worked examples
# ----------------------------------------------------------------------

def test_reduce_ghost_edge(algebras):
    W = algebras["W"]
    x = W.ghost("e")
    wit = reduce(x)
    assert wit.left == ()
    assert [g.text() for g in wit.right] == ["e"]
    assert wit.outcome == ScalarVertex(W.field.one(), "v")
    assert verify_witness(x, wit)


def test_reduce_vertex_needs_no_generators(algebras):
    for name, vertex in (("W", "z"), ("L3", "v1")):
        algebra = algebras[name]
        x = algebra.vertex(vertex)
        wit = reduce(x)
        assert wit.left == () and wit.right == ()
        assert wit.outcome == ScalarVertex(algebra.field.one(), vertex)
        assert verify_witness(x, wit)


def test_reduce_escapes_through_the_other_loop(algebras):
    R2 = algebras["R2"]
    x = parse_element(R2, "g + v")
    wit = reduce(x)
    assert [g.text() for g in wit.left] == ["h^*"]
    assert [g.text() for g in wit.right] == ["h"]
    assert wit.outcome == ScalarVertex(R2.field.one(), "v")
    assert verify_witness(x, wit)


def test_reduce_reaches_a_cycle_polynomial(algebras):
    T = algebras["T"]
    x = parse_element(T, "f^* + v")
    wit = reduce(x)
    assert [g.text() for g in wit.right] == ["f"]
    assert isinstance(wit.outcome, CyclePolynomial)
    assert wit.outcome.vertex == "v"
    assert wit.outcome.cycle.edges == ("f",)
    one = T.field.one()
    assert wit.outcome.coeffs == ((0, one), (1, one))
    assert verify_witness(x, wit)
    assert outcome_element(T, wit.outcome) == parse_element(T, "v + f")


def test_reduce_a_proper_power_of_an_exitless_cycle():
    g = Graph(
        ["v", "u", "w"],
        [Edge("a", "v", "u"), Edge("b", "u", "w"), Edge("c", "w", "v")],
    )
    algebra = LeavittAlgebra(g)
    x = parse_element(algebra, "v + a b c a b c")
    wit = reduce(x)
    assert isinstance(wit.outcome, CyclePolynomial)
    assert wit.outcome.cycle.edges == ("a", "b", "c")
    assert wit.outcome.coeffs == ((0, 1), (2, 1))
    assert verify_witness(x, wit)


def _exitless_cycle_with_feeders(rng):
    """A cycle of one to four edges with no exit, plus up to three vertices
    with random edges into themselves and the cycle, in shuffled order."""
    k = rng.randint(1, 4)
    cycle = ["c%d" % i for i in range(k)]
    feeders = ["f%d" % i for i in range(rng.randint(0, 3))]
    edges = [Edge("z%d" % i, cycle[i], cycle[(i + 1) % k]) for i in range(k)]
    for i, f in enumerate(feeders):
        for j in range(rng.randint(1, 2)):
            edges.append(Edge("x%d_%d" % (i, j), f, rng.choice(cycle + feeders)))
    order = cycle + feeders
    rng.shuffle(order)
    return Graph(order, edges)


def test_exitless_cycles_match_the_walk_oracle():
    rng = random.Random(83)
    outcomes = longer = powers = 0
    for _ in range(300):
        algebra = LeavittAlgebra(_exitless_cycle_with_feeders(rng))
        for _ in range(4):
            x = random_nonzero_element(rng, algebra, max_length=6)
            wit = reduce(x)
            assert verify_witness(x, wit)
            o = wit.outcome
            if isinstance(o, CyclePolynomial):
                outcomes += 1
                longer += len(o.cycle) > 1
                powers += gcd(*(e for e, _ in o.coeffs)) > 1
                assert o.cycle == oracles.minimal_cycle_at(algebra.graph, o.vertex)
    # Cycles longer than one edge, and roots that are proper powers of them.
    assert outcomes >= 120 and longer >= 40 and powers >= 40


def test_reduce_rejects_zero(algebras):
    with pytest.raises(ZeroElementError):
        reduce(algebras["W"].zero())


def test_reduce_random_elements_verify(algebras):
    rng = random.Random(79)
    for name, algebra in algebras.items():
        for _ in range(60):
            x = random_nonzero_element(rng, algebra)
            wit = reduce(x)
            assert verify_witness(x, wit)
            if name in ("L3", "W", "R2"):
                assert isinstance(wit.outcome, ScalarVertex)


# ----------------------------------------------------------------------
# outcomes and verification
# ----------------------------------------------------------------------

def test_outcome_element_validation(algebras, graphs):
    W, T, LS = algebras["W"], algebras["T"], algebras["LS"]
    one = W.field.one()
    zero = W.field.zero()
    with pytest.raises(AlgebraError):
        outcome_element(W, ScalarVertex(zero, "v"))
    with pytest.raises(Exception):
        outcome_element(W, ScalarVertex(one, "nope"))
    with pytest.raises(Exception):
        outcome_element(
            W, CyclePolynomial("z", graphs["W"].path("z", ["e"]), ((1, one),))
        )
    loop = graphs["LS"].path("u", ["c"])
    with pytest.raises(AlgebraError):
        outcome_element(LS, CyclePolynomial("u", loop, ((1, one),)))
    floop = graphs["T"].path("v", ["f"])
    with pytest.raises(AlgebraError):
        outcome_element(T, CyclePolynomial("u", floop, ((1, one),)))
    with pytest.raises(AlgebraError):
        outcome_element(T, CyclePolynomial("v", floop, ()))
    with pytest.raises(AlgebraError):
        outcome_element(T, CyclePolynomial("v", floop, ((1, one), (1, one))))
    with pytest.raises(AlgebraError):
        outcome_element(T, CyclePolynomial("v", floop, ((1, zero),)))
    with pytest.raises(AlgebraError):
        outcome_element(T, object())


def test_outcome_element_ghost_powers(algebras):
    T = algebras["T"]
    one = T.field.one()
    floop = T.graph.path("v", ["f"])
    poly = CyclePolynomial("v", floop, ((-2, one), (0, one)))
    assert outcome_element(T, poly) == parse_element(T, "v + (f f)^*")


def test_verify_rejects_tampered_witnesses(algebras):
    W = algebras["W"]
    x = W.ghost("e")
    wit = reduce(x)
    one = W.field.one()
    two = one + one
    assert not verify_witness(x, ReductionWitness(wit.left, wit.right, ScalarVertex(two, "v")))
    assert not verify_witness(x, ReductionWitness(wit.left, wit.right, ScalarVertex(one, "w")))
    assert not verify_witness(x, ReductionWitness(wit.left, (), wit.outcome))
    assert not verify_witness(
        x,
        ReductionWitness(
            wit.left, wit.right, ScalarVertex(W.field.zero(), "v")
        ),
    )
    assert not verify_witness(x, ReductionWitness((Generator("ghost", "f"),), wit.right, wit.outcome))
    # Scalars the algebra's field cannot take: a string, and one of GF(7).
    assert not verify_witness(x, ReductionWitness((), (), ScalarVertex("1", "v")))
    assert not verify_witness(
        x, ReductionWitness((), (), ScalarVertex(PrimeField(7).one(), "v"))
    )
    # Forged exponents: a cycle power past every replayed term fails before
    # the outcome is built, with no overflow and no power of that length.
    T = algebras["T"]
    f = T.edge("f")
    for coeffs in ([[10**19, "1"]], [[10**7, "1"], [-10**7, "1"]]):
        outcome = {"kind": "cycle-polynomial", "vertex": "v", "cycle": ["f"], "coeffs": coeffs}
        assert not verify_witness(f, witness_from_obj(T, {"outcome": outcome}))


# ----------------------------------------------------------------------
# witness serialization
# ----------------------------------------------------------------------

def test_witness_round_trip(graphs):
    rng = random.Random(83)
    drawn = random.Random(89)
    algebras = [LeavittAlgebra(g, field) for field in (QQ, PrimeField(5))
                for g in graphs.values()]
    algebras += [LeavittAlgebra(random_graph(drawn), PrimeField(p))
                 for p in (5, 7) for _ in range(15)]
    for algebra in algebras:
        for _ in range(20):
            x = random_nonzero_element(rng, algebra)
            wit = reduce(x)
            obj = witness_to_obj(wit, algebra)
            back = witness_from_obj(algebra, obj)
            assert back == wit
            assert verify_witness(x, back)


def test_witness_from_obj_rejects_garbage(algebras):
    W = algebras["W"]
    with pytest.raises(AlgebraError):
        witness_from_obj(W, {})
    with pytest.raises(AlgebraError):
        witness_from_obj(W, {"outcome": {"kind": "mystery"}})
    with pytest.raises(AlgebraError):
        witness_from_obj(
            W,
            {"left": ["nope"], "outcome": {"kind": "scalar-vertex", "coeff": "1", "vertex": "v"}},
        )
    with pytest.raises(AlgebraError):
        witness_from_obj(
            W,
            {"outcome": {"kind": "scalar-vertex", "coeff": "x", "vertex": "v"}},
        )
    # Wrong shapes: not an object, and generator or cycle names that are
    # not lists of strings (a string would read as one-letter names).
    scalar = {"kind": "scalar-vertex", "coeff": "1", "vertex": "v"}
    for obj in (
        [],
        "e",
        {"left": [1], "outcome": scalar},
        {"left": "e", "outcome": scalar},
        {"right": "e", "outcome": scalar},
        {"right": [None], "outcome": scalar},
    ):
        with pytest.raises(AlgebraError):
            witness_from_obj(W, obj)
    T = algebras["T"]
    cycle = {"kind": "cycle-polynomial", "vertex": "v", "coeffs": [[1, "1"]]}
    assert witness_from_obj(T, {"outcome": dict(cycle, cycle=["f"])}).outcome.cycle
    for names in ("f", [1], None):
        with pytest.raises(AlgebraError):
            witness_from_obj(T, {"outcome": dict(cycle, cycle=names)})
    # Numbers of another JSON type than witness_to_obj writes: exponents
    # are integers and coefficients strings, over Q and GF(p) alike.
    cycle = dict(cycle, cycle=["f"])
    for algebra in (T, LeavittAlgebra(T.graph, PrimeField(5))):
        one = algebra.field.one()
        assert witness_from_obj(algebra, {"outcome": scalar}).outcome.coeff == one
        assert witness_from_obj(algebra, {"outcome": cycle}).outcome.coeffs == ((1, one),)
        for wrong in (1.5, True, 1):
            with pytest.raises(AlgebraError, match="malformed witness object"):
                witness_from_obj(algebra, {"outcome": dict(scalar, coeff=wrong)})
            with pytest.raises(AlgebraError, match="malformed witness object"):
                witness_from_obj(algebra, {"outcome": dict(cycle, coeffs=[[1, wrong]])})
        for wrong in (1.5, "2", True, None):
            with pytest.raises(AlgebraError, match="malformed witness object"):
                witness_from_obj(algebra, {"outcome": dict(cycle, coeffs=[[wrong, "1"]])})


# ----------------------------------------------------------------------
# nondegeneracy
# ----------------------------------------------------------------------

def test_nondegeneracy_examples(algebras):
    W = algebras["W"]
    z = W.vertex("z")
    assert nondegeneracy_witness(z) == z
    e = W.edge("e")
    assert nondegeneracy_witness(e) == W.ghost("e")
    assert nondegeneracy_witness(W.ghost("e")) == e


def test_nondegeneracy_random(algebras):
    rng = random.Random(89)
    for algebra in algebras.values():
        for _ in range(40):
            x = random_nonzero_element(rng, algebra)
            a = nondegeneracy_witness(x)
            assert not (x * a * x).is_zero


def _shuffled_line(rng):
    """A line of one to twelve vertices declared in shuffled order."""
    line = line_graph(rng.randint(1, 12))
    order = list(line.vertices)
    rng.shuffle(order)
    return Graph(order, line.edges)


def test_reduction_matches_the_scanning_oracle():
    rng = random.Random(101)
    families = (random_graph, _exitless_cycle_with_feeders, _shuffled_line)
    fields = (QQ, PrimeField(5))
    cuts = cycles = 0
    for i in range(300):
        g = families[i % 3](rng)
        for field in fields:
            algebra = LeavittAlgebra(g, field)
            for _ in range(2):
                x = random_nonzero_element(rng, algebra, max_length=4)
                wit = reduce(x)
                assert witness_to_obj(wit, algebra) == witness_to_obj(
                    oracles.reduce(x), algebra
                )
                assert nondegeneracy_witness(x) == oracles.nondegeneracy_witness(x)
                cuts += any(gen.kind == "vertex" for gen in wit.left)
                cycles += isinstance(wit.outcome, CyclePolynomial)
    # Both the cut step and the exitless cycle outcome are exercised.
    assert cuts >= 100 and cycles >= 30


def test_reduction_trusts_the_paths_it_builds(monkeypatch):
    """realify, reduce and the local unit read their vertices off the
    element's own terms and build their paths edge by edge, so they neither
    check a vertex set against the graph nor walk a path through it."""
    rng = random.Random(103)
    families = (random_graph, _exitless_cycle_with_feeders, _shuffled_line)
    elements = [
        random_nonzero_element(rng, LeavittAlgebra(families[i % 3](rng)), max_length=4)
        for i in range(150)
    ]

    def refused(*args):
        raise AssertionError("a vertex set checked or a path walked")

    monkeypatch.setattr(Graph, "path", refused)
    monkeypatch.setattr(Graph, "sorted_vertices", refused)
    outcomes = set()
    for x in elements:
        realify(x)
        outcomes.add(type(reduce(x).outcome))
        nondegeneracy_witness(x)
    assert outcomes == {ScalarVertex, CyclePolynomial}


def test_certificates_cost_the_same_at_any_graph_size(monkeypatch):
    calls = []
    vertex, one = LeavittAlgebra.vertex, LeavittAlgebra.one

    def counted(self, name):
        calls.append(name)
        return vertex(self, name)

    def uncalled(self):
        raise AssertionError("one() built during a certificate")

    monkeypatch.setattr(LeavittAlgebra, "vertex", counted)
    monkeypatch.setattr(LeavittAlgebra, "one", uncalled)
    counts = []
    for n in (10, 10_000):
        g = line_graph(n)
        algebra = LeavittAlgebra(g)
        v, e = "v%d" % (n - 1), ["e%d" % i for i in (n - 3, n - 2, n - 1)]
        calls.clear()
        for text in (
            "%s^* + %s" % (e[2], e[1]),
            "3*%s - %s^*" % (v, e[2]),
            "%s %s^* + 2*%s" % (e[1], e[1], e[2]),
            "%s %s %s^*" % (e[1], e[2], e[2]),
        ):
            x = parse_element(algebra, text)
            assert verify_witness(x, reduce(x))
            assert not (x * nondegeneracy_witness(x) * x).is_zero
        counts.append(len(calls))
        # No backward edge lookup either: the in-edges were never built.
        assert g._in is None
    assert counts[0] == counts[1] > 0


# ----------------------------------------------------------------------
# graph-level decisions
# ----------------------------------------------------------------------

def test_is_simple(graphs):
    assert is_simple(graphs["R2"])
    assert is_simple(graphs["L3"])
    assert not is_simple(graphs["W"])
    assert not is_simple(graphs["T"])
    assert not is_simple(graphs["LS"])


def _sinkless(rng):
    """Up to six vertices, each with one to three out-edges, shuffled."""
    vs = ["v%d" % i for i in range(1, rng.randint(1, 6) + 1)]
    edges = [
        Edge("e%d_%d" % (i, j), v, rng.choice(vs))
        for i, v in enumerate(vs)
        for j in range(rng.randint(1, 3))
    ]
    rng.shuffle(vs)
    return Graph(vs, edges)


def _several_sinks(rng):
    """A random graph plus two or three sinks fed by random vertices."""
    g = random_graph(rng, max_vertices=5, max_edges=8)
    sinks = ["w%d" % i for i in range(rng.randint(2, 3))]
    feeds = [
        Edge("s%d" % i, rng.choice(g.vertices), w)
        for i, w in enumerate(sinks)
    ]
    return Graph(g.vertices + tuple(sinks), g.edges + tuple(feeds))


def _one_sink(rng):
    """Vertices with one or two out-edges each, one of them into the sink."""
    vs = ["v%d" % i for i in range(1, rng.randint(1, 6) + 1)]
    edges = [
        Edge("e%d_%d" % (i, j), v, rng.choice(vs + ["w"]))
        for i, v in enumerate(vs)
        for j in range(rng.randint(1, 2))
    ]
    order = vs + ["w"]
    rng.shuffle(order)
    return Graph(order, edges)


def test_is_simple_matches_the_per_vertex_oracle():
    rng = random.Random(89)
    families = (random_graph, _sinkless, _several_sinks, _one_sink)
    simple = 0
    for i in range(2400):
        g = families[i % 4](rng)
        answer = is_simple(g)
        assert answer == oracles.is_simple(g)
        simple += answer
    assert simple >= 300


def test_is_simple_takes_one_closure(monkeypatch):
    rng = random.Random(97)
    line = line_graph(200)
    order = list(line.vertices)
    rng.shuffle(order)
    g = Graph(order, line.edges)
    calls = []
    closure = leavitt.graphs.hereditary_saturated_closure

    def counted(*args):
        calls.append(args)
        return closure(*args)

    monkeypatch.setattr(leavitt.graphs, "hereditary_saturated_closure", counted)
    assert is_simple(g)
    assert len(calls) <= 1


def test_vertex_ideal_minimal(graphs):
    assert vertex_ideal_minimal(graphs["W"], "v")
    assert vertex_ideal_minimal(graphs["W"], "w")
    assert not vertex_ideal_minimal(graphs["W"], "z")
    assert not vertex_ideal_minimal(graphs["T"], "u")
    assert not vertex_ideal_minimal(graphs["T"], "v")
    assert vertex_ideal_minimal(graphs["LS"], "v")
    assert not vertex_ideal_minimal(graphs["LS"], "u")
    assert all(vertex_ideal_minimal(graphs["L3"], v) for v in graphs["L3"].vertices)
