"""Batch command line front end.

One subcommand per decision procedure, operating on a graph file and, where
relevant, an element expression. Output is deterministic text by default;
`--format json` emits a versioned object, and the graph-shaped results also
speak DOT. Exit status: 0 for a computed answer (including a false one), 1
for a domain error in the input, 2 for usage or syntax errors.

Handlers compute and return; they never print. `main` loads the graph,
calls the handler and prints its whole answer only after it has been
computed, so a run that exits 1 or 2 writes nothing to stdout. The one
exception is `check`, which prints its report and then exits 1 when a
recheck failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import NamedTuple

from .algebra import AlgebraError, Element, LeavittAlgebra
from .expr import ExprParseError, parse_element
from .fields import QQ, FieldError, field_from_selector
from .graphs import (
    Graph,
    GraphError,
    GraphParseError,
    SubsetError,
    hereditary_saturated_closure,
    is_simple,
    line_points,
    parse_graph,
    to_dot,
    vertex_ideal_minimal,
)
from .reduction import (
    ScalarVertex,
    nondegeneracy_witness,
    outcome_element,
    reduce as reduce_element,
    verify_witness,
    witness_to_obj,
)
from .sampling import random_nonzero_element
from .socle import SocleReport, in_socle, socle_structure


def _load_graph(path: str) -> Graph:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = exc.start
        raise GraphParseError(
            "graph file is not UTF-8: byte %d is 0x%02x" % (bad, data[bad])
        ) from None
    return parse_graph(text)


def _depth_bound(text: str) -> int:
    """A hedgehog depth bound: a nonnegative integer."""
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if depth < 0:
        raise argparse.ArgumentTypeError("negative depth bound %d" % depth)
    return depth


def _field(text: str):
    """A coefficient field from its selector, with the reason when it is
    refused (argparse reports only the name of a failing type otherwise)."""
    try:
        return field_from_selector(text)
    except FieldError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class Answer(NamedTuple):
    """A command's answer: the JSON object (without "schema"), the text
    lines, and the exit status."""

    obj: dict
    lines: list[str]
    status: int = 0


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _words(label: str, words) -> str:
    return (label + ": " + " ".join(words)).rstrip()


def _decision(value: bool) -> Answer:
    return Answer({"answer": value}, [_bool_text(value)])


def _names(label: str, names) -> Answer:
    names = list(names)
    return Answer({label: names}, [" ".join(names)])


def _element(graph: Graph, args) -> Element:
    """The element that --expr names, over --field."""
    return parse_element(LeavittAlgebra(graph, args.field), args.expr)


def _report(report: SocleReport) -> Answer:
    """The socle report that socle and structure share."""
    return Answer(
        {
            "line_points": list(report.line_points),
            "closure_h": list(report.closure_h),
            "summands": ["inf" if n is None else n for n in report.summands],
            "socle_is_whole": report.socle_is_whole,
        },
        [
            _words("line points", report.line_points),
            _words("closure", report.closure_h),
            _words("summands", report.summand_texts()),
            "socle is whole: " + _bool_text(report.socle_is_whole),
        ],
    )


# ----------------------------------------------------------------------
# subcommand handlers: each takes the graph and the parsed arguments and
# returns an Answer, or DOT text
# ----------------------------------------------------------------------

def _cmd_linepoints(graph: Graph, args) -> Answer:
    return _names("line_points", line_points(graph))


def _cmd_closure(graph: Graph, args) -> Answer:
    seeds = [s.strip() for s in args.set.split(",") if s.strip()]
    closure = hereditary_saturated_closure(graph, seeds)
    return _names("closure", graph.sorted_vertices(closure))


def _cmd_socle(graph: Graph, args) -> Answer:
    # Nothing in the answer reads the hedgehog, so it gets no spines.
    return _report(socle_structure(graph, 0))


def _cmd_structure(graph: Graph, args) -> Answer | str:
    report = socle_structure(graph, args.depth)
    hh = report.hedgehog
    if args.format == "dot":
        if hh is None:
            raise SubsetError("the socle is zero; there is no hedgehog graph")
        return to_dot(hh.graph)
    answer = _report(report)
    if hh is None:
        answer.obj["hedgehog"] = None
        answer.lines.append("hedgehog: none")
        return answer
    cycle = None if hh.blocking_cycle is None else list(hh.blocking_cycle.edges)
    answer.obj["hedgehog"] = {
        "complete": hh.complete,
        "blocking_cycle": cycle,
        "ideal_part": list(hh.ideal_part),
        "entry_part": list(hh.entry_part),
        "vertices": list(hh.graph.vertices),
        "edges": [[e.name, e.source, e.range] for e in hh.graph.edges],
    }
    answer.lines.append("hedgehog complete: " + _bool_text(hh.complete))
    if cycle is not None:
        answer.lines.append(_words("hedgehog blocking cycle", cycle))
    answer.lines.append(_words("hedgehog ideal part", hh.ideal_part))
    answer.lines.append(_words("hedgehog entry part", hh.entry_part))
    return answer


def _cmd_reduce(graph: Graph, args) -> Answer:
    x = _element(graph, args)
    witness = reduce_element(x)
    verified = verify_witness(x, witness)
    kind = (
        "scalar-vertex"
        if isinstance(witness.outcome, ScalarVertex)
        else "cycle-polynomial"
    )
    return Answer(
        {"witness": witness_to_obj(witness, x.algebra), "verified": verified},
        [
            _words("left", (g.text() for g in witness.left)),
            _words("right", (g.text() for g in witness.right)),
            "outcome kind: " + kind,
            "outcome: %s" % outcome_element(x.algebra, witness.outcome),
            "verified: " + _bool_text(verified),
        ],
    )


def _cmd_nondegen(graph: Graph, args) -> Answer:
    x = _element(graph, args)
    a = nondegeneracy_witness(x)
    nonzero = not (x * a * x).is_zero
    return Answer(
        {"witness": str(a), "product_is_nonzero": nonzero},
        ["witness: %s" % a, "product is nonzero: " + _bool_text(nonzero)],
    )


def _cmd_simple(graph: Graph, args) -> Answer:
    return _decision(is_simple(graph))


def _cmd_minimal(graph: Graph, args) -> Answer:
    return _decision(vertex_ideal_minimal(graph, args.vertex))


def _cmd_member(graph: Graph, args) -> Answer:
    return _decision(in_socle(_element(graph, args)))


def _cmd_eval(graph: Graph, args) -> Answer:
    value = str(_element(graph, args))
    return Answer({"value": value}, [value])


def _cmd_dot(graph: Graph, args) -> str:
    return to_dot(graph)


def _cmd_check(graph: Graph, args) -> Answer:
    algebra = LeavittAlgebra(graph, args.field)
    report = algebra.check_relations()
    rng = random.Random(args.seed)
    trials = 25
    failures = list(report.failures)
    for i in range(trials):
        x = random_nonzero_element(rng, algebra)
        if not verify_witness(x, reduce_element(x)):
            failures.append("reduction trial %d: witness rejected" % i)
    passed = report.passed and len(failures) == len(report.failures)
    return Answer(
        {
            "relations": {label: n for label, n in report.counts},
            "reduction_trials": trials,
            "failures": failures,
            "passed": passed,
        },
        ["%s: %d" % (label, n) for label, n in report.counts]
        + ["reduction trials: %d" % trials]
        + ["failure: %s" % failure for failure in failures]
        + ["passed: " + _bool_text(passed)],
        0 if passed else 1,
    )


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------

# argparse specs of the options that follow the graph file.
_OPTIONS = {
    "--expr": {"required": True, "help": "element expression"},
    "--vertex": {"required": True, "help": "vertex name"},
    "--set": {"required": True, "help": "comma-separated vertex names (may be empty)"},
    "--field": {"type": _field, "default": QQ,
                "help": "coefficient field: q or gf:p with p prime (default q)"},
    "--seed": {"type": int, "default": 0, "help": "seed for the random trials"},
    "--depth": {"type": _depth_bound, "default": None,
                "help": "hedgehog depth bound (default: vertex count + 1)"},
}
_TEXT_JSON = ("text", "json")
_ELEMENT = ("--expr", "--field")

# (name, help text, handler, options, --format choices), in --help order.
_COMMANDS = (
    ("linepoints", "list the line points", _cmd_linepoints, (), _TEXT_JSON),
    ("closure", "hereditary saturated closure of a vertex set", _cmd_closure,
     ("--set",), _TEXT_JSON),
    ("socle", "socle report: generators and matricial summands", _cmd_socle,
     (), _TEXT_JSON),
    ("structure", "full socle report including the hedgehog graph",
     _cmd_structure, ("--depth",), ("text", "json", "dot")),
    ("reduce", "reduce an element to a corner form with a replayable witness",
     _cmd_reduce, _ELEMENT, _TEXT_JSON),
    ("nondegen", "produce a with x a x nonzero", _cmd_nondegen, _ELEMENT, _TEXT_JSON),
    ("simple", "decide simplicity of the algebra", _cmd_simple, (), _TEXT_JSON),
    ("minimal", "decide minimality of the left ideal of a vertex", _cmd_minimal,
     ("--vertex",), _TEXT_JSON),
    ("member", "decide socle membership of an element", _cmd_member,
     _ELEMENT, _TEXT_JSON),
    ("eval", "normal form of an expression", _cmd_eval, _ELEMENT, _TEXT_JSON),
    ("dot", "emit the graph in DOT", _cmd_dot, (), ()),
    ("check", "recheck the defining relations and spot-check reductions",
     _cmd_check, ("--field", "--seed"), _TEXT_JSON),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leavitt",
        description=(
            "Exact decision procedures for Leavitt path algebras of finite "
            "directed graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text, handler, options, formats in _COMMANDS:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("graph", help="path to a graph file")
        for flag in options:
            p.add_argument(flag, **_OPTIONS[flag])
        if formats:
            p.add_argument(
                "--format",
                choices=formats,
                default="text",
                help="output format (default text)",
            )
        p.set_defaults(handler=handler)
    return parser


_parser = functools.cache(build_parser)  # argparse reads COLUMNS per message


def main(argv=None) -> int:
    """Run one command: parse the arguments, load the graph, compute the
    answer, and only then print it by --format. Returns the exit status."""
    try:
        args = _parser().parse_args(argv)
        answer = args.handler(_load_graph(args.graph), args)
        if isinstance(answer, str):
            print(answer, end="")
            return 0
        if args.format == "json":
            payload = {"schema": 1, **answer.obj}
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print("\n".join(answer.lines))
        return answer.status
    except SystemExit as ex:
        # argparse: 0 after --help, 2 for a usage error.
        return ex.code if isinstance(ex.code, int) else 2
    except (GraphParseError, ExprParseError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2
    except (GraphError, AlgebraError, FieldError, OSError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
