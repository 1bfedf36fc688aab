"""Property tests: the library's routines against the oracles on graphs that
hypothesis draws, and the command line contract on inputs it draws and
mutates. Runs are derandomized and keep no example database, so every run
checks the same inputs."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from leavitt import Edge, Graph, is_simple

import oracles
from golden.make import graph_text, run


@st.composite
def graphs(draw, max_vertices=6):
    """One to max_vertices vertices in any declaration order and up to ten
    edges, loops and parallel edges included."""
    names = ["v%d" % i for i in range(draw(st.integers(1, max_vertices)))]
    ends = draw(
        st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=10)
    )
    edges = [Edge("e%d" % i, s, r) for i, (s, r) in enumerate(ends)]
    return Graph(draw(st.permutations(names)), edges)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(graphs())
def test_is_simple_matches_the_per_vertex_oracle(g):
    assert is_simple(g) == oracles.is_simple(g)


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
