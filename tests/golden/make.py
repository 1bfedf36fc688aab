"""Write the golden corpus: recorded outputs of the command line front end.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make.py

Every line of corpus.jsonl is one JSON object. A graph line, {"name",
"graph"}, holds a graph file's text; each run line after it, {"name",
"argv", "exit", "stdout", "stderr"}, is one in-process run of
leavitt.cli.main on that graph, with "GRAPH" in argv standing for the file.
tests/test_golden.py replays every run and compares all three outputs.

The inputs are the five test fixtures and 40 seeded random graphs. Each
graph gets `simple`, `minimal` at its first and last vertex, and `eval`,
`reduce`, `nondegen` and `member` on one seeded element, text and JSON,
over Q and GF(5); the fixtures get two fixed expressions instead,
`check`, and four runs that end in an error. After those, each graph gets
`socle`, `linepoints` and `closure` of one seeded vertex set, text and
JSON, and `structure` as text, JSON and DOT at `--depth 0`, `--depth 2` and
the default depth, where no corpus graph's hedgehog has more than 230 spines,
and last `dot`; the fixtures also get `check --seed 7`, text and JSON. The
corpus ends with the command line surface, on the fixture W: `--help` at
the top level and for each command, and the usage errors that argparse
reports (exit 2). argparse wraps its usage text to the COLUMNS environment
variable, so run() pins it to 80 for the duration of each run.
Regenerate only when an output is meant to change, and record which lines
changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus.jsonl")

sys.path.insert(0, os.path.dirname(HERE))
from conftest import FIXTURE_TEXTS  # noqa: E402

from leavitt import LeavittAlgebra, parse_graph  # noqa: E402
from leavitt.cli import main  # noqa: E402
from leavitt.sampling import random_graph, random_nonzero_element  # noqa: E402

SEED = 2012
RANDOM_GRAPHS = 40
FIELDS = ("q", "gf:5")
FORMATS = ("text", "json")
FIXED_EXPRS = {
    "L3": ("a b b^* a^*", "v1 + 2 a^*"),
    "W": ("e e^* + f f^*", "1/2*z - e^*"),
    "T": ("f f f^* + u", "e f f^* e^*"),
    "R2": ("g g^* + h h^*", "g h^* - 3 h g^*"),
    "LS": ("c e e^* c^*", "c^* - 2 u"),
}
# Domain errors (exit 1) and syntax errors (exit 2), run on the fixtures.
ERROR_RUNS = (
    ["reduce", "GRAPH", "--expr=0"],
    ["nondegen", "GRAPH", "--expr=0"],
    ["eval", "GRAPH", "--expr=nosuch"],
    ["member", "GRAPH", "--expr=(1 +"],
)
COMMANDS = ("linepoints", "closure", "socle", "structure", "reduce", "nondegen",
            "simple", "minimal", "member", "eval", "dot", "check")
SURFACE_GRAPH = "W"
# Usage errors, which argparse reports before any graph is read.
USAGE_RUNS = (
    [],
    ["nosuch", "GRAPH"],
    ["eval", "GRAPH"],
    ["socle", "GRAPH", "--format", "dot"],
    ["structure", "GRAPH", "--depth", "-1"],
    ["socle", "GRAPH", "--depth", "2"],
    ["eval", "GRAPH", "--expr", "v", "--field", "gf:6"],
    ["check", "GRAPH", "--seed", "x"],
)


def graph_text(graph) -> str:
    lines = ["vertices: " + " ".join(graph.vertices)]
    lines.extend("edge %s: %s -> %s" % e for e in graph.edges)
    return "\n".join(lines) + "\n"


def run(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI run with stdout and stderr captured, and usage
    text wrapped to 80 columns whatever the terminal's width."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def commands(text: str, exprs, check: bool, vertex_set: str):
    """The argument lists run on one graph, GRAPH standing for its file."""
    graph = parse_graph(text)
    for fmt in FORMATS:
        yield ["simple", "GRAPH", "--format", fmt]
        for v in dict.fromkeys((graph.vertices[0], graph.vertices[-1])):
            yield ["minimal", "GRAPH", "--vertex", v, "--format", fmt]
        for field in FIELDS:
            for expr in exprs:
                for cmd in ("eval", "reduce", "nondegen", "member"):
                    yield [cmd, "GRAPH", "--expr=" + expr, "--field", field,
                           "--format", fmt]
            if check:
                yield ["check", "GRAPH", "--field", field, "--format", fmt]
                for argv in ERROR_RUNS:
                    yield argv + ["--field", field, "--format", fmt]
    for fmt in FORMATS:
        yield ["socle", "GRAPH", "--format", fmt]
        yield ["linepoints", "GRAPH", "--format", fmt]
        yield ["closure", "GRAPH", "--set", vertex_set, "--format", fmt]
    for depth in (["--depth", "0"], ["--depth", "2"], []):
        for fmt in FORMATS + ("dot",):
            yield ["structure", "GRAPH", *depth, "--format", fmt]
    yield ["dot", "GRAPH"]
    if check:
        for fmt in FORMATS:
            yield ["check", "GRAPH", "--seed", "7", "--format", fmt]


def surface():
    """The help texts and usage errors, GRAPH standing for a fixture."""
    yield ["--help"]
    for command in COMMANDS:
        yield [command, "--help"]
    yield from USAGE_RUNS


def inputs():
    """(name, graph text, expressions, run check) for every corpus graph."""
    for name, text in FIXTURE_TEXTS.items():
        yield name, text, FIXED_EXPRS[name], True
    rng = random.Random(SEED)
    for i in range(RANDOM_GRAPHS):
        graph = random_graph(rng, max_vertices=7, max_edges=10)
        algebra = LeavittAlgebra(graph)
        x = random_nonzero_element(rng, algebra, max_terms=3, max_length=2)
        exprs = (str(x),)
        yield "g%02d" % i, graph_text(graph), exprs, False


def record(name: str, path: str, argv: list[str]) -> dict:
    code, out, err = run([path if a == "GRAPH" else a for a in argv])
    return {"name": name, "argv": argv, "exit": code, "stdout": out, "stderr": err}


def records(directory: str):
    # A stream of its own, so that drawing the sets moves none of the
    # graphs and elements that inputs() draws.
    sets = random.Random(SEED + 1)
    for name, text, exprs, check in inputs():
        path = os.path.join(directory, name + ".graph")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        yield {"name": name, "graph": text}
        vertices = parse_graph(text).vertices
        picked = sets.sample(vertices, sets.randint(1, min(2, len(vertices))))
        for argv in commands(text, exprs, check, ",".join(picked)):
            yield record(name, path, argv)
    path = os.path.join(directory, SURFACE_GRAPH + ".graph")
    for argv in surface():
        yield record(SURFACE_GRAPH, path, argv)


def write_corpus() -> None:
    with tempfile.TemporaryDirectory() as directory:
        lines = [json.dumps(r, sort_keys=True) for r in records(directory)]
    with open(CORPUS, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print("wrote %d lines to %s" % (len(lines), CORPUS))


if __name__ == "__main__":
    write_corpus()
