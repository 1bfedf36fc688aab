"""Property tests: the library's routines against the oracles on graphs that
hypothesis draws, paths and monomials as values, round trips of elements
through their text and the involution, and the command line contract on
inputs it draws and mutates. Runs are derandomized and keep no example
database, so every run checks the same inputs."""

import copy
import dataclasses
import pickle
import random
from dataclasses import make_dataclass
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from leavitt import (
    QQ,
    Edge,
    GFElement,
    Graph,
    LeavittAlgebra,
    Monomial,
    Path,
    PrimeField,
    entry_paths,
    hedgehog_graph,
    in_socle,
    is_simple,
    matrix_rep,
    parse_element,
    paths_from_by_length,
    quotient_graph,
    socle_equals_algebra,
    socle_generators,
    socle_is_nonzero,
    socle_structure,
    tree,
)
from leavitt.graphs import _first_cycle
from leavitt.sampling import random_element, random_nonzero_element, random_raw_terms

import oracles
from golden.make import graph_text, run


@st.composite
def graphs(draw, max_vertices=6, max_edges=10):
    """One to max_vertices vertices in any declaration order and up to
    max_edges edges, loops and parallel edges included."""
    names = ["v%d" % i for i in range(draw(st.integers(1, max_vertices)))]
    ends = draw(
        st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=max_edges)
    )
    edges = [Edge("e%d" % i, s, r) for i, (s, r) in enumerate(ends)]
    return Graph(draw(st.permutations(names)), edges)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(graphs())
def test_is_simple_matches_the_per_vertex_oracle(g):
    assert is_simple(g) == oracles.is_simple(g)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(graphs(max_vertices=8))
def test_socle_generators_close_the_sinks(g):
    """H, the closure of the sinks, is the closure of the line points and is
    the set of vertices that reach no cycle."""
    on_cycles = oracles.vertices_on_cycles(g)
    no_cycle = frozenset(v for v in g.vertices if not tree(g, v) & on_cycles)
    assert socle_generators(g) == oracles.socle_generators(g) == no_cycle
    assert socle_equals_algebra(g) == oracles.is_acyclic(g)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_first_cycle_matches_the_full_search(data):
    g = data.draw(graphs())
    allowed = data.draw(st.sets(st.sampled_from(g.vertices)))
    assert _first_cycle(g, set(allowed)) == oracles.first_cycle(g, set(allowed))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_entry_paths_come_out_shortlex(data):
    g = data.draw(graphs())
    subset = data.draw(st.sets(st.sampled_from(g.vertices)))
    paths = entry_paths(g, subset, data.draw(st.integers(0, len(g.vertices) + 2)))
    assert paths == sorted(paths, key=g.path_sort_key)


# ----------------------------------------------------------------------
# the socle's structure
# ----------------------------------------------------------------------

@st.composite
def _cyclic_graphs_with_a_sink(draw):
    """A drawn graph on up to seven vertices plus a loop at one of them and
    an edge from one of them into a new sink s, in any declaration order:
    the graph has a cycle, and H holds s."""
    g = draw(graphs(max_vertices=7))
    loop, feed = draw(st.sampled_from(g.vertices)), draw(st.sampled_from(g.vertices))
    edges = g.edges + (Edge("loop", loop, loop), Edge("feed", feed, "s"))
    return Graph(draw(st.permutations(g.vertices + ("s",))), edges)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_cyclic_graphs_with_a_sink())
def test_the_socle_series_stops_at_once(g):
    """The quotient of a graph with a cycle by H, the closure of its line
    points, has no sink and so no line point: its socle is zero, and the
    series of socles stops after one step."""
    q = quotient_graph(g, socle_generators(g))
    assert not socle_is_nonzero(q)
    assert oracles.line_points(q) == ()


@st.composite
def _acyclic_graphs(draw, max_vertices=8):
    """One to max_vertices vertices in any declaration order and up to ten
    edges, parallel ones included, each from a lower-numbered vertex to a
    higher one."""
    n = draw(st.integers(1, max_vertices))
    names = ["v%d" % i for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    ends = [(min(i, j), max(i, j)) for i, j in pairs if i != j]
    edges = [Edge("e%d" % k, names[i], names[j]) for k, (i, j) in enumerate(ends)]
    return Graph(draw(st.permutations(names)), edges)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_acyclic_graphs())
def test_acyclic_socle_summands_count_the_normal_forms(g):
    """On an acyclic graph the socle is the whole algebra, the sum of the
    matrix algebras M_n(w)(K) over the sinks w, so the squares of the
    summand sizes add up to its dimension: the number of normal-form
    monomials p q*, pairs of paths with a common range that do not both end
    in the same special edge (the first out-edge of its source), counted
    here pair by pair."""
    ending: dict[str, list[tuple[str, ...]]] = {}
    for v in g.vertices:
        for layer in paths_from_by_length(g, v, len(g.vertices)):
            for p in layer:
                ending.setdefault(p.range, []).append(p.edges)
    special = {g.out_edges(v)[0].name for v in g.vertices if not g.is_sink(v)}
    normal = sum(
        1
        for paths in ending.values()
        for p in paths
        for q in paths
        if not (p and q and p[-1] == q[-1] and p[-1] in special)
    )
    report = socle_structure(g)
    assert report.socle_is_whole and report.hedgehog.graph is g
    assert sum(n * n for n in report.summands) == normal


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_acyclic_graphs(max_vertices=6), st.randoms(use_true_random=False))
def test_matrix_rep_is_an_isomorphism_on_acyclic_graphs(g, rng):
    """Local matriciality (Abrams, Aranda Pino and Siles Molina,
    Finite-dimensional Leavitt path algebras, JPAA 2007): on an acyclic
    graph the block-matrix map is an isomorphism onto the sum of the
    M_n(w)(K) over the sinks w, so it is additive and multiplicative and
    nonzero on nonzero elements. Its blocks are sized by an enumeration of
    the paths into each sink, independent of the search's kept counts,
    which the summands read."""
    algebra = LeavittAlgebra(g)
    x, y = random_element(rng, algebra), random_element(rng, algebra)
    rx, ry = matrix_rep(x), matrix_rep(y)
    assert matrix_rep(x + y) == rx + ry
    assert matrix_rep(x * y) == rx * ry
    assert rx.is_zero == x.is_zero
    assert not matrix_rep(random_nonzero_element(rng, algebra)).is_zero
    assert tuple(sorted(rx.sizes)) == socle_structure(g).summands


# ----------------------------------------------------------------------
# the hedgehog as an embedding into L(E)
# ----------------------------------------------------------------------

@st.composite
def _hedgehogs(draw):
    """The algebra of a drawn graph on at most four vertices and six edges
    plus a sink s fed from some of them, and the hedgehog of a hereditary
    set in it (the socle's generators, or the tree of a vertex) at a depth
    bound from 0 to 3 or the default, with at most 30 vertices."""
    g = draw(graphs(max_vertices=4, max_edges=6))
    fed = draw(st.lists(st.sampled_from(g.vertices), min_size=1, max_size=2))
    g = Graph(
        draw(st.permutations(g.vertices + ("s",))),
        list(g.edges) + [Edge("d%d" % i, v, "s") for i, v in enumerate(fed)],
    )
    if draw(st.booleans()):
        h = socle_generators(g)
    else:
        h = tree(g, draw(st.sampled_from(g.vertices)))
    hh = hedgehog_graph(g, h, draw(st.sampled_from((0, 1, 2, 3, None))))
    assume(len(hh.graph.vertices) <= 30)
    return LeavittAlgebra(g), hh


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_hedgehogs())
def test_the_hedgehog_embeds_onto_the_ideal_of_its_set(drawn):
    """The images of the hedgehog's generators in L(E) satisfy its
    relations, no vertex goes to zero, and a complete hedgehog reaches
    every small normal-form monomial ending in the set (see
    oracles.hedgehog_failures)."""
    algebra, hh = drawn
    assert oracles.hedgehog_failures(hh, algebra) == []


def _spined():
    """a -> b -> s and a -> s, with s -> t: the set {s, t} has the entry
    paths f, g and e g, and its hedgehog is complete."""
    g = Graph(["a", "b", "s", "t"], [
        Edge("e", "a", "b"), Edge("f", "a", "s"), Edge("g", "b", "s"), Edge("h", "s", "t"),
    ])
    hh = hedgehog_graph(g, {"s", "t"})
    assert hh.complete and hh.entry_part == ("f", "g", "e.g")
    algebra = LeavittAlgebra(g)
    assert oracles.hedgehog_failures(hh, algebra) == []
    return algebra, hh


def test_the_embedding_check_sees_a_spine_edge_with_the_wrong_range():
    algebra, hh = _spined()
    F = hh.graph
    edges = [e._replace(range="t") if e.name == "@g" else e for e in F.edges]
    bent = dataclasses.replace(hh, graph=Graph(F.vertices, edges))
    failures = oracles.hedgehog_failures(bent, algebra)
    assert "source-range: @g" in failures and "ghost-pairing: @g @g" in failures


def test_the_embedding_check_sees_a_dropped_spine():
    """Without the spine of e g the map is still a homomorphism, nonzero on
    every vertex, but e g is no image any more."""
    algebra, hh = _spined()
    F = hh.graph
    dropped = dataclasses.replace(
        hh,
        graph=Graph([v for v in F.vertices if v != "e.g"],
                    [e for e in F.edges if e.source != "e.g"]),
        entry_part=("f", "g"),
    )
    failures = oracles.hedgehog_failures(dropped, algebra)
    assert "no preimage: e g" in failures
    assert all(f.startswith("no preimage: ") for f in failures)


# ----------------------------------------------------------------------
# paths and monomials as values
# ----------------------------------------------------------------------

@st.composite
def _paths(draw, g: Graph, end: str | None = None) -> Path:
    """A path of at most four edges: forward from a drawn vertex, or, given
    ``end``, backward into it."""
    start = at = draw(st.sampled_from(g.vertices)) if end is None else end
    names = []
    for _ in range(draw(st.integers(0, 4))):
        steps = g.out_edges(at) if end is None else g.in_edges(at)
        if not steps:
            break
        e = draw(st.sampled_from(steps))
        names.append(e.name)
        at = e.range if end is None else e.source
    return g.path(start, names) if end is None else g.path(at, names[::-1])


@st.composite
def _monomials(draw, g: Graph) -> Monomial:
    real = draw(_paths(g))
    return Monomial(real, draw(_paths(g, real.range)))


# Dataclass models of Path and Monomial, whose repr is the one kept.
_DataPath = make_dataclass("Path", ["source", "edges", "range"], frozen=True)
_DataMonomial = make_dataclass("Monomial", ["real", "ghost"], frozen=True)


def _fields(p: Path) -> tuple:
    return (p.source, p.edges, p.range)


def _twin_path(p: Path) -> Path:
    return Path(p.source, tuple(list(p.edges)), p.range)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.data())
def test_paths_and_monomials_are_values(data):
    g = data.draw(graphs())
    a, b = data.draw(_paths(g)), data.draw(_paths(g))
    m, n = data.draw(_monomials(g)), data.draw(_monomials(g))
    assert (a == b) == (_fields(a) == _fields(b))
    assert (m == n) == (
        (_fields(m.real), _fields(m.ghost)) == (_fields(n.real), _fields(n.ghost))
    )
    if a == b:
        assert hash(a) == hash(b)
    if m == n:
        assert hash(m) == hash(n)

    twin = Monomial(_twin_path(m.real), _twin_path(m.ghost))
    assert twin is not m and twin == m and hash(twin) == hash(m)
    assert _twin_path(a) == a and hash(_twin_path(a)) == hash(a)
    table = {m: "m", n: "n"}
    assert table[twin] == table[m]
    # Both are tuples: hashing and equality are tuple's own, in C.
    assert Monomial.__hash__ is tuple.__hash__ and Monomial.__eq__ is tuple.__eq__
    assert not hasattr(m, "__dict__") and not hasattr(a, "__dict__")
    assert m == (m.real, m.ghost) and a == _fields(a)

    assert repr(a) == repr(_DataPath(*_fields(a)))
    assert repr(m) == repr(
        _DataMonomial(_DataPath(*_fields(m.real)), _DataPath(*_fields(m.ghost)))
    )

    for value, names in (
        (a, ("source", "edges", "range", "other")),
        (m, ("real", "ghost", "_hash", "_key", "_key_graph", "other")),
    ):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        copies = [copy.copy(value), copy.deepcopy(value)] + [
            pickle.loads(pickle.dumps(value, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for c in copies:
            assert type(c) is type(value) and c == value
            assert hash(c) == hash(value) and repr(c) == repr(value)


@st.composite
def _normal_sums(draw):
    """The normal form, a sum of normal-form monomials, of a combination of
    monomials with coefficients from -2 to 2, in the algebra over Q or
    GF(5) of a drawn graph of at most 7 vertices plus a sink w. Some
    vertices get an edge into w, declared before their others, so that
    their special edge in the quotient by H is another one. About half the
    monomials are p f (q f)* at one edge f: at a first edge into H their
    normal form is in the socle although no term of it ends in H, and at a
    later edge it is a normal form in L(E) that may not be one in that
    quotient."""
    field = draw(st.sampled_from((QQ, PrimeField(5))))
    g = draw(graphs(max_vertices=7))
    fed = draw(st.lists(st.sampled_from(g.vertices), unique=True))
    g = Graph(
        g.vertices + ("w",),
        [Edge("d%d" % i, v, "w") for i, v in enumerate(fed)] + list(g.edges),
    )
    algebra = LeavittAlgebra(g, field)
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        if g.edges and draw(st.booleans()):
            f = draw(st.sampled_from(g.edges))
            real, ghost = (
                g.concat(draw(_paths(g, f.source)), g.path(f.source, (f.name,)))
                for _ in range(2)
            )
        else:
            real = draw(_paths(g))
            ghost = draw(_paths(g, real.range))
        pairs.append((draw(st.integers(-2, 2)), Monomial(real, ghost)))
    return algebra.element(pairs)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_normal_sums())
def test_in_socle_matches_the_quotient_oracle(x):
    assert in_socle(x) == oracles.in_socle(x)


@st.composite
def _element_pairs(draw):
    """Two random elements of the algebra of a drawn graph over Q or GF(5)."""
    field = draw(st.sampled_from((QQ, PrimeField(5))))
    algebra = LeavittAlgebra(draw(graphs(max_vertices=5)), field)
    rng = draw(st.randoms(use_true_random=False))
    return random_element(rng, algebra), random_element(rng, algebra)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_element_pairs())
def test_text_and_involution_round_trip(pair):
    x, y = pair
    assert parse_element(x.algebra, str(x)) == x
    assert (x * y).involution() == y.involution() * x.involution()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_element_pairs())
def test_coefficients_are_exact_scalars(pair):
    """Over Q every coefficient that items() hands back is an int or a
    Fraction, never a float or a bool; over GF(p) it is a nonzero GF(p)
    scalar of that p."""
    x, y = pair
    field = x.algebra.field
    results = [x, y, x + y, x - y, x * y, x.involution(), parse_element(x.algebra, str(x))]
    if field == QQ:
        half = x * Fraction(1, 2)
        results += [half, half + half, (y * Fraction(3, 2)) * 2, x * True]
    for z in results:
        for _, c in z.items():
            if field == QQ:
                assert type(c) in (int, Fraction)
            else:
                assert type(c) is GFElement and c.p == field.p and c


@st.composite
def _raw_rational_terms(draw):
    """Raw (coefficient, monomial) pairs over Q on a drawn graph, half of
    them pushed into the redex shape, then the projection p p* of each
    real path p among them; and a seed for a scrambled pick."""
    algebra = LeavittAlgebra(draw(graphs(max_vertices=5)))
    rng = draw(st.randoms(use_true_random=False))
    pairs = random_raw_terms(rng, algebra)
    pairs += [(c, Monomial(m.real, m.real)) for c, m in pairs]
    return algebra, pairs, rng.randrange(1 << 30)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_raw_rational_terms(), st.data())
def test_mixed_scalars_and_twin_paths_normalize_alike(drawn, data):
    """Over Q the same raw terms with each coefficient given as 3,
    Fraction(3) or Fraction(6, 2) reach the normal form of the all-Fraction
    input, with equal ==, hash and str, in the same steps, and so does a
    scrambled pick of the redexes (confluence). A projection p p* whose
    ghost is an equal path but another object takes the same steps."""
    algebra, pairs, seed = drawn
    spellings = (int, Fraction, lambda c: Fraction(2 * c, 2))
    fractions = [(Fraction(c), m) for c, m in pairs]
    mixed = [(data.draw(st.sampled_from(spellings))(int(c)), m) for c, m in pairs]
    twins = [
        (c, Monomial(m.real, _twin_path(m.ghost)) if m.real == m.ghost else m)
        for c, m in pairs
    ]
    x, steps = algebra.normal_form_steps(fractions)
    y, mixed_steps = algebra.normal_form_steps(mixed)
    z, twin_steps = algebra.normal_form_steps(twins)
    picker = random.Random(seed)
    scrambled, _ = oracles.normal_form_steps(
        algebra, mixed, lambda monos, key: picker.choice(sorted(monos, key=key))
    )
    assert mixed_steps == twin_steps == steps
    for w in (y, z, scrambled):
        assert w == x and hash(w) == hash(x) and str(w) == str(x)


# ----------------------------------------------------------------------
# the command line contract
# ----------------------------------------------------------------------

@st.composite
def _mutated(draw, text: str, alphabet) -> str:
    """The text, or bytes, with a few items replaced, inserted or deleted."""
    chars = list(text)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "insert" or at == len(chars):
            chars.insert(at, draw(alphabet))
        elif op == "replace":
            chars[at] = draw(alphabet)
        else:
            del chars[at]
    return bytes(chars) if isinstance(text, bytes) else "".join(chars)


@st.composite
def _expressions(draw, names: list[str]) -> str:
    """A valid expression over the graph's names, or one mutated, or one
    with a scalar near or past Python's 4,300-digit conversion limit."""
    name = st.sampled_from(names)
    factor = st.one_of(
        st.builds("{}{}".format, name, st.sampled_from(("", "^*"))),
        st.builds("({} + {})^*".format, name, name),
    )
    term = st.builds(
        "{}{}".format,
        st.sampled_from(("", "2 ", "-1*", "1/3 ", "0 ")),
        st.lists(factor, min_size=1, max_size=3).map(" ".join),
    )
    valid = st.lists(term, min_size=1, max_size=3).map(" + ".join)
    kind = draw(st.sampled_from(("valid", "mutated", "digits")))
    if kind == "valid":
        return draw(valid)
    if kind == "mutated":
        return draw(_mutated(draw(valid), st.sampled_from("()*^/+-−09 ve\x00é")))
    # Either side of the limit, and a product of two that crosses it.
    digits = "9" * draw(st.sampled_from((2200, 4301, 4300, 5000, 1)))
    template = draw(st.sampled_from(("({n} {v})({n} {v})", "{n}", "1/{n}", "{n}/7 {v}")))
    return template.format(n=digits, v=names[0])


@st.composite
def _cli_runs(draw):
    """A graph file's bytes and the argument list run on it, GRAPH
    standing for the file."""
    g = draw(graphs(max_vertices=5))
    names = list(g.vertices) + [e.name for e in g.edges]
    data = graph_text(g).encode("utf-8")
    if draw(st.integers(0, 2)) == 0:
        syntax = st.sampled_from(b" :->#_\nv0")
        data = draw(_mutated(data, st.one_of(syntax, st.integers(0, 255))))
    command = draw(st.sampled_from(
        ("eval", "member", "reduce", "nondegen", "socle", "structure", "closure",
         "minimal", "simple", "linepoints", "dot")
    ))
    fmt = draw(st.sampled_from(("text", "json")))
    if command in ("eval", "member", "reduce", "nondegen"):
        argv = ["--expr=" + draw(_expressions(names)),
                "--field", draw(st.sampled_from(("q", "gf:5")))]
    elif command == "structure":
        argv = ["--depth", "2"]
        fmt = draw(st.sampled_from(("text", "json", "dot")))
    elif command == "closure":
        argv = ["--set=" + ",".join(draw(st.lists(st.sampled_from(names + ["x"]),
                                                  max_size=3)))]
    elif command == "minimal":
        argv = ["--vertex=" + draw(st.sampled_from(names + ["x"]))]
    else:
        argv = []
    if command != "dot":
        argv += ["--format", fmt]
    return data, [command, "GRAPH", *argv]


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g.graph"


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_cli_runs())
def test_cli_answers_or_fails_cleanly(graph_file, cli_run):
    data, argv = cli_run
    graph_file.write_bytes(data)
    code, out, err = run([str(graph_file) if a == "GRAPH" else a for a in argv])
    assert code in (0, 1, 2)
    if code != 0:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
