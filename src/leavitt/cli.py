"""Batch command line front end.

One subcommand per decision procedure, operating on a graph file and, where
relevant, an element expression. Output is deterministic text by default;
`--format json` emits a versioned object, and the graph-shaped results also
speak DOT. Exit status: 0 for a computed answer (including a false one), 1
for a domain error in the input, 2 for usage or syntax errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .algebra import AlgebraError, LeavittAlgebra
from .expr import ExprParseError, parse_element
from .fields import QQ, FieldError, field_from_selector
from .graphs import (
    Graph,
    GraphError,
    GraphParseError,
    SubsetError,
    hereditary_saturated_closure,
    line_points,
    parse_graph,
    to_dot,
)
from .reduction import (
    ScalarVertex,
    is_simple,
    nondegeneracy_witness,
    outcome_element,
    reduce as reduce_element,
    verify_witness,
    vertex_ideal_minimal,
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


def _print_json(obj: dict) -> None:
    payload = {"schema": 1}
    payload.update(obj)
    print(json.dumps(payload, indent=2, sort_keys=True))


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _answer(args, value: bool) -> int:
    if args.format == "json":
        _print_json({"answer": value})
    else:
        print(_bool_text(value))
    return 0


def _names(args, label: str, names) -> int:
    names = list(names)
    if args.format == "json":
        _print_json({label: names})
    else:
        print(" ".join(names))
    return 0


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def _cmd_linepoints(args) -> int:
    graph = _load_graph(args.graph)
    return _names(args, "line_points", line_points(graph))


def _cmd_closure(args) -> int:
    graph = _load_graph(args.graph)
    seeds = [s.strip() for s in args.set.split(",") if s.strip()]
    closure = hereditary_saturated_closure(graph, seeds)
    return _names(args, "closure", graph.sorted_vertices(closure))


def _report_lines(report: SocleReport) -> list[str]:
    return [
        ("line points: " + " ".join(report.line_points)).rstrip(),
        ("closure: " + " ".join(report.closure_h)).rstrip(),
        ("summands: " + " ".join(report.summand_texts())).rstrip(),
        "socle is whole: " + _bool_text(report.socle_is_whole),
    ]


def _report_obj(report: SocleReport) -> dict:
    return {
        "line_points": list(report.line_points),
        "closure_h": list(report.closure_h),
        "summands": [
            "inf" if n is None else n for n in report.summands
        ],
        "socle_is_whole": report.socle_is_whole,
    }


def _cmd_socle(args) -> int:
    graph = _load_graph(args.graph)
    # Nothing printed here reads the hedgehog, so it gets no spines.
    report = socle_structure(graph, 0)
    if args.format == "json":
        _print_json(_report_obj(report))
    else:
        for line in _report_lines(report):
            print(line)
    return 0


def _cmd_structure(args) -> int:
    graph = _load_graph(args.graph)
    report = socle_structure(graph, args.depth)
    hh = report.hedgehog
    if args.format == "dot":
        if hh is None:
            raise SubsetError("the socle is zero; there is no hedgehog graph")
        print(to_dot(hh.graph), end="")
        return 0
    if args.format == "json":
        obj = _report_obj(report)
        if hh is None:
            obj["hedgehog"] = None
        else:
            obj["hedgehog"] = {
                "complete": hh.complete,
                "blocking_cycle": (
                    None if hh.blocking_cycle is None
                    else list(hh.blocking_cycle.edges)
                ),
                "ideal_part": list(hh.ideal_part),
                "entry_part": list(hh.entry_part),
                "vertices": list(hh.graph.vertices),
                "edges": [[e.name, e.source, e.range] for e in hh.graph.edges],
            }
        _print_json(obj)
        return 0
    lines = _report_lines(report)
    if hh is None:
        lines.append("hedgehog: none")
    else:
        lines.append("hedgehog complete: " + _bool_text(hh.complete))
        if hh.blocking_cycle is not None:
            lines.append(
                "hedgehog blocking cycle: " + " ".join(hh.blocking_cycle.edges)
            )
        lines.append(
            ("hedgehog ideal part: " + " ".join(hh.ideal_part)).rstrip()
        )
        lines.append(
            ("hedgehog entry part: " + " ".join(hh.entry_part)).rstrip()
        )
    for line in lines:
        print(line)
    return 0


def _cmd_reduce(args) -> int:
    graph = _load_graph(args.graph)
    algebra = LeavittAlgebra(graph, args.field)
    x = parse_element(algebra, args.expr)
    witness = reduce_element(x)
    verified = verify_witness(x, witness)
    if args.format == "json":
        obj = {"witness": witness_to_obj(witness, algebra), "verified": verified}
        _print_json(obj)
        return 0
    kind = (
        "scalar-vertex"
        if isinstance(witness.outcome, ScalarVertex)
        else "cycle-polynomial"
    )
    outcome = str(outcome_element(algebra, witness.outcome))
    print(("left: " + " ".join(g.text() for g in witness.left)).rstrip())
    print(("right: " + " ".join(g.text() for g in witness.right)).rstrip())
    print("outcome kind: " + kind)
    print("outcome: " + outcome)
    print("verified: " + _bool_text(verified))
    return 0


def _cmd_nondegen(args) -> int:
    graph = _load_graph(args.graph)
    algebra = LeavittAlgebra(graph, args.field)
    x = parse_element(algebra, args.expr)
    a = nondegeneracy_witness(x)
    nonzero = not (x * a * x).is_zero
    if args.format == "json":
        _print_json({"witness": str(a), "product_is_nonzero": nonzero})
        return 0
    print("witness: %s" % a)
    print("product is nonzero: " + _bool_text(nonzero))
    return 0


def _cmd_simple(args) -> int:
    graph = _load_graph(args.graph)
    return _answer(args, is_simple(graph))


def _cmd_minimal(args) -> int:
    graph = _load_graph(args.graph)
    return _answer(args, vertex_ideal_minimal(graph, args.vertex))


def _cmd_member(args) -> int:
    graph = _load_graph(args.graph)
    algebra = LeavittAlgebra(graph, args.field)
    x = parse_element(algebra, args.expr)
    return _answer(args, in_socle(x))


def _cmd_eval(args) -> int:
    graph = _load_graph(args.graph)
    algebra = LeavittAlgebra(graph, args.field)
    x = parse_element(algebra, args.expr)
    if args.format == "json":
        _print_json({"value": str(x)})
    else:
        print(x)
    return 0


def _cmd_dot(args) -> int:
    graph = _load_graph(args.graph)
    print(to_dot(graph), end="")
    return 0


def _cmd_check(args) -> int:
    graph = _load_graph(args.graph)
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
    if args.format == "json":
        _print_json(
            {
                "relations": {label: n for label, n in report.counts},
                "reduction_trials": trials,
                "failures": failures,
                "passed": passed,
            }
        )
    else:
        for label, n in report.counts:
            print("%s: %d" % (label, n))
        print("reduction trials: %d" % trials)
        for failure in failures:
            print("failure: %s" % failure)
        print("passed: " + _bool_text(passed))
    return 0 if passed else 1


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leavitt",
        description=(
            "Exact decision procedures for Leavitt path algebras of finite "
            "directed graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(
        name: str,
        help_text: str,
        handler,
        formats: tuple[str, ...] = ("text", "json"),
        expr: bool = False,
        vertex: bool = False,
        vertex_set: bool = False,
        field: bool = False,
        seed: bool = False,
        depth: bool = False,
    ) -> None:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("graph", help="path to a graph file")
        if expr:
            p.add_argument("--expr", required=True, help="element expression")
        if vertex:
            p.add_argument("--vertex", required=True, help="vertex name")
        if vertex_set:
            p.add_argument(
                "--set",
                required=True,
                help="comma-separated vertex names (may be empty)",
            )
        if field:
            p.add_argument(
                "--field",
                type=field_from_selector,
                default=QQ,
                help="coefficient field: q or gf:p with p prime (default q)",
            )
        if seed:
            p.add_argument(
                "--seed", type=int, default=0, help="seed for the random trials"
            )
        if depth:
            p.add_argument(
                "--depth",
                type=_depth_bound,
                default=None,
                help="hedgehog depth bound (default: vertex count + 1)",
            )
        if formats:
            p.add_argument(
                "--format",
                choices=formats,
                default="text",
                help="output format (default text)",
            )
        p.set_defaults(handler=handler)

    add("linepoints", "list the line points", _cmd_linepoints)
    add(
        "closure",
        "hereditary saturated closure of a vertex set",
        _cmd_closure,
        vertex_set=True,
    )
    add("socle", "socle report: generators and matricial summands", _cmd_socle)
    add(
        "structure",
        "full socle report including the hedgehog graph",
        _cmd_structure,
        formats=("text", "json", "dot"),
        depth=True,
    )
    add(
        "reduce",
        "reduce an element to a corner form with a replayable witness",
        _cmd_reduce,
        expr=True,
        field=True,
    )
    add(
        "nondegen",
        "produce a with x a x nonzero",
        _cmd_nondegen,
        expr=True,
        field=True,
    )
    add("simple", "decide simplicity of the algebra", _cmd_simple)
    add(
        "minimal",
        "decide minimality of the left ideal of a vertex",
        _cmd_minimal,
        vertex=True,
    )
    add(
        "member",
        "decide socle membership of an element",
        _cmd_member,
        expr=True,
        field=True,
    )
    add("eval", "normal form of an expression", _cmd_eval, expr=True, field=True)
    add("dot", "emit the graph in DOT", _cmd_dot, formats=())
    add(
        "check",
        "recheck the defining relations and spot-check reductions",
        _cmd_check,
        field=True,
        seed=True,
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        code = ex.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (GraphParseError, ExprParseError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2
    except (GraphError, AlgebraError, FieldError, OSError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
