import random
import re
from fractions import Fraction

import pytest

from leavitt import (
    AlgebraError,
    Graph,
    GraphError,
    LeavittAlgebra,
    MixedContextError,
    Monomial,
    Path,
    PrimeField,
    QQ,
    UnknownVertexError,
    ZeroElementError,
    parse_element,
    paths_from_by_length,
    special_edges,
)
from leavitt.sampling import (
    line_graph,
    random_element,
    random_graph,
    random_nonzero_element,
    random_raw_terms,
    rose,
)

import oracles


def test_special_edges(graphs):
    assert special_edges(graphs["W"]) == {"z": "e"}
    assert special_edges(graphs["T"]) == {"u": "e", "v": "f"}
    assert special_edges(graphs["R2"]) == {"v": "g"}
    assert special_edges(graphs["L3"]) == {"v1": "a", "v2": "b"}


def test_monomial_requires_matching_ranges(graphs):
    g = graphs["L3"]
    with pytest.raises(AlgebraError):
        Monomial(g.path("v1", ["a"]), g.trivial_path("v1"))
    m = Monomial(g.path("v1", ["a"]), g.path("v1", ["a"]))
    assert m.degree == 0
    assert not m.is_vertex
    assert Monomial(g.trivial_path("v2"), g.trivial_path("v2")).is_vertex


def test_vertex_expansion_is_the_only_rewrite(algebras):
    W = algebras["W"]
    assert W.edge("e") * W.ghost("e") == parse_element(W, "z - f f^*")
    T = algebras["T"]
    assert T.edge("f") * T.ghost("f") == T.vertex("v")
    R2 = algebras["R2"]
    assert R2.edge("g") * R2.ghost("g") == parse_element(R2, "v - h h^*")
    assert R2.edge("h") * R2.ghost("h") == parse_element(R2, "h h^*")


def test_ghost_pairing(algebras):
    W = algebras["W"]
    assert W.ghost("e") * W.edge("e") == W.vertex("v")
    assert W.ghost("e") * W.edge("f") == W.zero()
    assert W.ghost("f") * W.edge("e") == W.zero()


def test_relations_reports(algebras):
    for name in ("L3", "W", "T", "R2", "LS"):
        report = algebras[name].check_relations()
        assert report.passed, report.failures
        assert report.failures == ()
        assert report.total == sum(n for _, n in report.counts)
    counts = dict(algebras["W"].check_relations().counts)
    assert counts["vertex-idempotents"] == 9
    assert counts["vertex-expansion"] == 1


def test_relations_match_the_per_use_oracle(graphs):
    """check_relations builds each generator once, the oracle at every use:
    the same counts and the same failure lines, in the same order, on
    random graphs over Q and GF(5), and on algebras whose relation (4)
    drops its last piece, so that vertex expansions fail."""

    class Dropping(LeavittAlgebra):
        def _rewrite(self, m):
            return super()._rewrite(m)[:-1]

    rng = random.Random(22)
    for field in (QQ, PrimeField(5)):
        for _ in range(40):
            graph = random_graph(rng, 5, 8)
            for algebra in (LeavittAlgebra(graph, field), Dropping(graph, field)):
                assert algebra.check_relations() == oracles.check_relations(algebra)
    broken = Dropping(graphs["W"]).check_relations()
    assert broken.failures == ("vertex-expansion: z",) and not broken.passed
    assert broken.counts == LeavittAlgebra(graphs["W"]).check_relations().counts


def test_relations_over_prime_field(graphs):
    for p in (2, 3, 7):
        algebra = LeavittAlgebra(graphs["W"], PrimeField(p))
        assert algebra.check_relations().passed


def test_rendering(algebras):
    W = algebras["W"]
    assert str(W.zero()) == "0"
    assert str(W.vertex("z")) == "1*z"
    assert str(W.edge("e") * W.ghost("e")) == "1*z - 1*f f^*"
    assert str(-W.vertex("v")) == "-1*v"
    assert str(parse_element(W, "1/2*v")) == "1/2*v"
    x = W.ghost("e")
    assert str(x) == "1*e^*"


def test_str_reparses_to_the_same_element(algebras):
    rng = random.Random(23)
    for name, algebra in algebras.items():
        for _ in range(25):
            x = random_element(rng, algebra)
            assert parse_element(algebra, str(x)) == x


def test_one_is_a_unit(algebras):
    rng = random.Random(29)
    for algebra in algebras.values():
        one = algebra.one()
        for _ in range(10):
            x = random_element(rng, algebra)
            assert one * x == x
            assert x * one == x


def test_additive_structure(algebras):
    rng = random.Random(31)
    W = algebras["W"]
    for _ in range(25):
        x = random_element(rng, W)
        y = random_element(rng, W)
        assert (x + y) - y == x
        assert x - x == W.zero()
        assert -(-x) == x
        assert 0 * x == W.zero()
        assert 2 * x == x + x
        assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    # Sums agree term for term with the dict-merge oracle, over Q and GF(5).
    for graph in (algebra.graph for algebra in algebras.values()):
        for field in (QQ, PrimeField(5)):
            algebra = LeavittAlgebra(graph, field)
            for _ in range(10):
                x = random_element(rng, algebra)
                y = random_element(rng, algebra)
                assert (x + y).items() == oracles.add(x, y).items()
                assert (x - x).items() == oracles.add(x, -x).items() == ()


def test_multiplication_is_associative_and_distributive(algebras):
    rng = random.Random(37)
    for name in ("W", "T", "R2"):
        algebra = algebras[name]
        for _ in range(15):
            x = random_element(rng, algebra, max_terms=3, max_length=2)
            y = random_element(rng, algebra, max_terms=3, max_length=2)
            z = random_element(rng, algebra, max_terms=3, max_length=2)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z


def test_mixed_algebras_are_rejected(algebras, graphs):
    W, T = algebras["W"], algebras["T"]
    with pytest.raises(MixedContextError):
        W.vertex("v") + T.vertex("v")
    with pytest.raises(MixedContextError):
        W.vertex("v") * T.vertex("v")
    gf = LeavittAlgebra(graphs["W"], PrimeField(3))
    with pytest.raises(MixedContextError):
        gf.vertex("v") + W.vertex("v")
    # An equal but distinct graph hashes equal, and its algebra mixes.
    g2 = Graph(W.graph.vertices, W.graph.edges)
    assert g2 is not W.graph and g2 == W.graph and hash(g2) == hash(W.graph)
    W2 = LeavittAlgebra(g2)
    assert hash(W2) == hash(W) and hash(W2.edge("e")) == hash(W.edge("e"))
    assert W.edge("e") + W2.ghost("e") == W.edge("e") + W.ghost("e")
    assert W.edge("e") * W2.ghost("e") == parse_element(W, "z - f f^*")
    with pytest.raises(MixedContextError):
        LeavittAlgebra(g2, PrimeField(3)).vertex("v") * W.vertex("v")


def test_grading(algebras):
    rng = random.Random(41)
    W = algebras["W"]
    assert W.edge("e").degree() == 1
    assert W.ghost("e").degree() == -1
    assert W.vertex("v").degree() == 0
    with pytest.raises(ZeroElementError):
        W.zero().degree()
    for algebra in algebras.values():
        for _ in range(15):
            x = random_nonzero_element(rng, algebra)
            lo, hi = x.degree_range()
            pieces = [x.homogeneous_component(d) for d in range(lo, hi + 1)]
            total = algebra.zero()
            for piece in pieces:
                total = total + piece
            assert total == x


def test_homogeneous_products_add_degrees(algebras):
    rng = random.Random(43)
    for name in ("T", "R2", "LS"):
        algebra = algebras[name]
        for _ in range(40):
            x = random_nonzero_element(rng, algebra)
            y = random_nonzero_element(rng, algebra)
            xm = x.homogeneous_component(x.degree_range()[0])
            yn = y.homogeneous_component(y.degree_range()[0])
            if xm.is_zero or yn.is_zero:
                continue
            prod = xm * yn
            if prod.is_zero:
                continue
            m = xm.degree_range()[0]
            n = yn.degree_range()[0]
            assert prod.degree_range() == (m + n, m + n)


def test_involution(algebras):
    rng = random.Random(47)
    W = algebras["W"]
    assert W.edge("e").involution() == W.ghost("e")
    assert W.vertex("v").involution() == W.vertex("v")
    for algebra in algebras.values():
        for _ in range(15):
            x = random_element(rng, algebra)
            y = random_element(rng, algebra)
            assert x.involution().involution() == x
            assert (x * y).involution() == y.involution() * x.involution()


def test_involution_flips_the_grading(algebras):
    rng = random.Random(53)
    T = algebras["T"]
    for _ in range(25):
        x = random_nonzero_element(rng, T)
        lo, hi = x.degree_range()
        for d in range(lo, hi + 1):
            comp = x.homogeneous_component(d)
            star = x.involution().homogeneous_component(-d)
            assert comp.involution() == star


def test_local_units(algebras):
    rng = random.Random(59)
    for algebra in algebras.values():
        assert algebra.zero().local_unit() == algebra.zero()
        for _ in range(15):
            x = random_element(rng, algebra)
            u = x.local_unit()
            assert u * x == x
            assert x * u == x
    W = algebras["W"]
    assert W.ghost("e").local_unit() == W.vertex("v") + W.vertex("z")


def test_corner_basis_examples(algebras):
    R2 = algebras["R2"]
    assert [m.text() for m in R2.corner_basis("v", 1)] == [
        "v", "g", "h", "g^*", "h^*",
    ]
    T = algebras["T"]
    assert [m.text() for m in T.corner_basis("v", 2)] == [
        "v", "f", "f^*", "f f", "f^* f^*",
    ]
    assert [m.text() for m in T.corner_basis("v", 4)] == [
        "v", "f", "f^*", "f f", "f^* f^*",
        "f f f", "f^* f^* f^*", "f f f f", "f^* f^* f^* f^*",
    ]
    W = algebras["W"]
    assert [m.text() for m in W.corner_basis("z", 2)] == ["z", "f f^*"]
    assert [m.text() for m in W.corner_basis("v", 3)] == ["v"]


def test_corner_basis_matches_the_sorted_oracle(algebras):
    rng = random.Random(107)
    samples = list(algebras.values()) + [
        LeavittAlgebra(random_graph(rng, max_vertices=5, max_edges=8))
        for _ in range(60)
    ]
    for algebra in samples:
        for v in algebra.graph.vertices:
            assert algebra.corner_basis(v, 4) == oracles.corner_basis(algebra, v, 4)


def test_corner_enumeration_is_lazy(algebras):
    from itertools import islice

    R2 = algebras["R2"]
    first_three = list(islice(R2.iter_corner_monomials("v", 10 ** 6), 3))
    assert [m.text() for m in first_three] == ["v", "g", "h"]


def test_mono_mul(algebras):
    W = algebras["W"]
    g = W.graph
    e_mono = Monomial(g.path("z", ["e"]), g.trivial_path("v"))
    estar_mono = Monomial(g.trivial_path("v"), g.path("z", ["e"]))
    assert W.mono_mul(estar_mono, e_mono) == W.vertex("v")
    assert W.mono_mul(e_mono, estar_mono) == parse_element(W, "z - f f^*")
    fstar_mono = Monomial(g.trivial_path("w"), g.path("z", ["f"]))
    assert W.mono_mul(fstar_mono, e_mono) == W.zero()


def test_normal_form_strategies_agree(algebras):
    rng = random.Random(61)
    for algebra in algebras.values():
        for _ in range(40):
            pairs = random_raw_terms(rng, algebra)
            nf = algebra.normal_form(pairs)
            nf_max, _ = oracles.normal_form_steps(algebra, pairs, max)
            picker = random.Random(rng.randrange(1 << 30))

            def pick(monos, key):
                return picker.choice(sorted(monos, key=key))

            nf_rand, _ = oracles.normal_form_steps(algebra, pairs, pick)
            assert nf == nf_max == nf_rand


def _cuntz_sum(algebra, k):
    """The raw sum of w w* over the words w of length k on a rose."""
    g = algebra.graph
    words = [()]
    for _ in range(k):
        words = [w + (e.name,) for w in words for e in g.edges]
    return [(1, Monomial(g.path("v", w), g.path("v", w))) for w in words]


def _longest(monos, key):
    """Any redex of the greatest total length: within one length the order
    does not change the step count."""
    return max(monos, key=lambda m: len(m.real) + len(m.ghost))


def test_longest_redex_first_matches_the_oracle(algebras):
    algebra = LeavittAlgebra(rose(3))
    x, steps = algebra.normal_form_steps(_cuntz_sum(algebra, 8))
    assert (str(x), steps) == ("1*v", 3280)
    assert algebra.normal_form_steps(_cuntz_sum(algebra, 5)) == (x, 121)
    # The raw sums of test_normal_form_strategies_agree, drawn in its order.
    rng = random.Random(61)
    samples = []
    for algebra in algebras.values():
        for _ in range(40):
            samples.append((algebra, random_raw_terms(rng, algebra)))
            rng.randrange(1 << 30)
    for petals, k in ((2, 6), (3, 5), (4, 4)):
        algebra = LeavittAlgebra(rose(petals))
        samples.append((algebra, _cuntz_sum(algebra, k)))
    for algebra, pairs in samples:
        assert algebra.normal_form_steps(pairs) == (
            oracles.normal_form_steps(algebra, pairs, _longest)
        )


def test_each_redex_is_rewritten_once(algebras, monkeypatch):
    R2 = algebras["R2"]
    g = R2.graph
    gg, gp = g.path("v", ["g", "g"]), g.path("v", ["g"])
    rewritten = []
    rewrite = LeavittAlgebra._rewrite

    def counted(self, m):
        rewritten.append(m)
        return rewrite(self, m)

    monkeypatch.setattr(LeavittAlgebra, "_rewrite", counted)
    # g g (g g)^* leaves g g^*, which the input holds already: one rewrite
    # takes both, with coefficient 2.
    x, steps = R2.normal_form_steps(((1, Monomial(gg, gg)), (1, Monomial(gp, gp))))
    assert (str(x), steps) == ("2*v - 2*h h^* - 1*g h h^* g^*", 2)
    assert rewritten == [Monomial(gg, gg), Monomial(gp, gp)]


def test_one_monomial_sorts_by_each_graphs_order():
    # The same names declared in two orders: each algebra sorts a shared
    # monomial object by its own graph, however often it moved between them.
    first = LeavittAlgebra(Graph(["u", "v", "w"], [("a", "u", "v"), ("b", "u", "w")]))
    second = LeavittAlgebra(Graph(["u", "w", "v"], [("b", "u", "w"), ("a", "u", "v")]))
    g = first.graph
    v, w = (Monomial(g.trivial_path(x), g.trivial_path(x)) for x in "vw")
    a, b = g.path("u", ["a"]), g.path("u", ["b"])
    aa, bb = Monomial(a, a), Monomial(b, b)
    pairs = ((1, v), (1, w), (1, aa))
    x = first.normal_form(pairs)
    assert [m for m, _ in x.items()] == [
        Monomial(g.trivial_path("u"), g.trivial_path("u")), v, w, bb
    ]
    assert [c for _, c in x.items()] == [1, 1, 1, -1]
    y = second.normal_form(pairs)
    assert [m for m, _ in y.items()] == [w, v, aa]
    assert first.normal_form(pairs) == x
    assert second.normal_form(pairs) == y


def test_equal_redexes_that_cancel_and_return():
    algebra = LeavittAlgebra(rose(2))
    g = algebra.graph

    def redex():
        return Monomial(g.path("v", ["r2", "r1"]), g.path("v", ["r2", "r1"]))

    m, m2, m3 = redex(), redex(), redex()
    assert m == m2 == m3 and m is not m2 and m2 is not m3
    once = algebra.normal_form_steps(((1, m),))
    assert once[1] > 0
    assert algebra.normal_form_steps(((1, m), (-1, m2), (1, m3))) == once


def test_replaced_monomial_with_split_ranges_is_rejected(algebras):
    L3 = algebras["L3"]
    g = L3.graph
    m = Monomial(g.path("v1", ["a"]), g.path("v1", ["a"]))
    split = m._replace(ghost=g.trivial_path("v1"))
    assert type(split) is Monomial
    with pytest.raises(AlgebraError):
        L3.element(((1, split),))


def test_element_operations_compare_no_graphs(monkeypatch):
    calls = []
    compare = Graph.__eq__

    def counted(self, other):
        calls.append(1)
        return compare(self, other)

    monkeypatch.setattr(Graph, "__eq__", counted)
    g = line_graph(10 ** 4)
    A = LeavittAlgebra(g)
    x, y = A.edge("e1") + A.vertex("v9999"), A.ghost("e1")
    calls.clear()
    assert x + y != x * y
    assert x * y == A.path_element(g.path("v1", ["e1"])) * y
    assert calls == []
    # The counter sees the comparison an equal but distinct algebra needs.
    other = LeavittAlgebra(g)
    assert x + other.ghost("e1") == x + y
    assert calls


def test_checked_normalization_builds_no_paths(monkeypatch):
    calls = []
    build = Graph.path

    def counted(self, source, edge_names):
        calls.append(1)
        return build(self, source, edge_names)

    monkeypatch.setattr(Graph, "path", counted)
    algebra = LeavittAlgebra(rose(3))
    pairs = _cuntz_sum(algebra, 4)
    calls.clear()
    x, steps = algebra.normal_form_steps(pairs)
    assert (str(x), steps) == ("1*v", 40)
    assert calls == []
    # The check still runs: r4 is no edge of rose(3), and e2 leaves v2.
    r4 = Path("v", ("r4",), "v")
    with pytest.raises(GraphError):
        algebra.normal_form_steps(pairs + [(1, Monomial(r4, r4))])
    line = LeavittAlgebra(line_graph(3))
    jump = Monomial(Path("v1", ("e2",), "v3"), line.graph.trivial_path("v3"))
    with pytest.raises(GraphError):
        line.normal_form_steps(((1, jump),))
    assert calls == []


def test_normal_form_step_bound(algebras):
    rng = random.Random(67)
    for algebra in algebras.values():
        for _ in range(40):
            pairs = random_raw_terms(rng, algebra)
            # Each rewrite peels one edge off both paths, once per redex.
            bound = sum(min(len(m.real), len(m.ghost)) for _, m in pairs)
            _, steps = algebra.normal_form_steps(pairs)
            assert steps <= bound


def test_normal_form_is_idempotent(algebras):
    rng = random.Random(71)
    for algebra in algebras.values():
        for _ in range(25):
            x = random_element(rng, algebra)
            again, steps = algebra.normal_form_steps(
                tuple((c, m) for m, c in x.items())
            )
            assert again == x
            assert steps == 0


def test_element_construction_validates_paths(algebras):
    W = algebras["W"]
    T = algebras["T"]
    bad = Monomial(T.graph.path("u", ["e"]), T.graph.path("u", ["e"]))
    with pytest.raises(Exception):
        W.element(((1, bad),))
    # Edges that do not chain: b leaves v2, not v1, though the ranges agree.
    L3 = algebras["L3"]
    real, ghost = Path("v1", ("b",), "v3"), L3.graph.trivial_path("v3")
    with pytest.raises(GraphError):
        L3.normal_form(((1, Monomial(real, ghost)),))
    with pytest.raises(GraphError):
        L3.element(((1, Monomial(ghost, real)),))
    with pytest.raises(GraphError):
        L3.monomial(real, ghost)
    # Edges that chain but stop short of the stated range: a ends at v2.
    short = Monomial(Path("v1", ("a",), "v3"), L3.graph.trivial_path("v3"))
    with pytest.raises(GraphError):
        L3.element(((1, short),))
    # The builders check the trivial path at the range first, then the path.
    for build in (L3.path_element, L3.path_star_element):
        with pytest.raises(GraphError, match="edge 'b' starts at 'v2', expected 'v1'"):
            build(real)
        message = "path ('a',) from 'v1' ends at 'v2', not at its range 'v3'"
        with pytest.raises(GraphError, match=re.escape(message)):
            build(short.real)
        with pytest.raises(UnknownVertexError, match="unknown vertex 'zz'"):
            build(Path("v1", ("a",), "zz"))
    for build in (L3.edge, L3.ghost):
        with pytest.raises(GraphError, match="unknown edge 'zz'"):
            build("zz")


def test_generators_are_their_own_normal_forms(graphs):
    rng = random.Random(79)
    samples = [random_graph(rng, max_vertices=5, max_edges=8) for _ in range(20)]
    for g in list(graphs.values()) + samples:
        for field in (QQ, PrimeField(5)):
            A = LeavittAlgebra(g, field)
            for e in g.edges:
                t, p = g.trivial_path(e.range), g.path(e.source, (e.name,))
                x, y = A.edge(e.name), A.ghost(e.name)
                assert x == A.normal_form(((1, Monomial(p, t)),))
                assert y == A.normal_form(((1, Monomial(t, p)),))
                assert type(x.items()[0][0]) is type(y.items()[0][0]) is Monomial
            for v in g.vertices:
                for layer in paths_from_by_length(g, v, 3):
                    for p in layer:
                        t = g.trivial_path(p.range)
                        assert A.path_element(p) == A.monomial(p, t)
                        assert A.path_star_element(p) == A.monomial(t, p)


def test_generators_are_built_without_normalizing(algebras, monkeypatch):
    calls = []
    normalize = LeavittAlgebra._normalize

    def counted(self, *args, **kwargs):
        calls.append(1)
        return normalize(self, *args, **kwargs)

    monkeypatch.setattr(LeavittAlgebra, "_normalize", counted)
    for A in algebras.values():
        g = A.graph
        built = [A.one()] + [A.vertex(v) for v in g.vertices]
        built += [A.edge(e.name) for e in g.edges]
        built += [A.ghost(e.name) for e in g.edges]
        for v in g.vertices:
            for layer in paths_from_by_length(g, v, 2):
                for p in layer:
                    built += [A.path_element(p), A.path_star_element(p)]
        built += [x.local_unit() for x in built]
    assert calls == []
    # Sums of generators are still normalized.
    W = algebras["W"]
    W.edge("e") + W.ghost("e")
    assert calls == [1]


def test_step_limit_guard(graphs):
    algebra = LeavittAlgebra(graphs["R2"])
    g = algebra.graph
    deep = g.path("v", ["g"] * 6)
    with pytest.raises(AlgebraError):
        algebra.normal_form(
            ((1, Monomial(deep, deep)),),
            max_steps=2,
        )


def test_prime_field_normal_forms(graphs):
    algebra = LeavittAlgebra(graphs["W"], PrimeField(2))
    e = algebra.edge("e")
    assert e + e == algebra.zero()
    # A GF(p) scalar scales from either side, as ints and fractions do.
    F = PrimeField(7)
    x = parse_element(LeavittAlgebra(graphs["LS"], F), "2 u + 3 c e e^* - c^*")
    three = F.from_int(3)
    assert three * x == x * three == 3 * x
    assert e * e.involution() == parse_element(algebra, "z + f f^*")
