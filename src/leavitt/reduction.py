"""Constructive reduction of nonzero elements to canonical corner forms.

Given a nonzero element x, reduce(x) produces a certificate: two sequences
of generators (vertices, edges, ghost edges) such that multiplying x by the
right sequence on the right and the left sequence on the left, in order,
yields either a nonzero scalar multiple of a vertex or a polynomial in a
cycle without exits. Every step is an explicit multiplication, so the
certificate can be replayed and checked by verify_witness without trusting
the search.

The search itself: peel ghost parts by right multiplication until the
element is a combination of plain paths, cut to a common source vertex,
strip the canonically first shortest path (which leaves a vertex term), and
then analyze the remaining closed paths. If all of them are powers of one
closed root, either the root has no exit (cycle polynomial outcome) or
conjugating up to the root's first bifurcation and escaping along the other
edge leaves a scalar vertex. If they are not powers of a common root,
conjugation by the first edge of the first closed path rotates the aligned
paths and kills at least one misaligned one within a bounded number of
rounds, since paths that rotate forever in alignment would share a root.

On top of the reduction sits the nondegeneracy certificate: an element a
with x a x nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .algebra import AlgebraError, Element, LeavittAlgebra, ZeroElementError
from .fields import FieldError
from .graphs import Graph, GraphError, Path, _first_bifurcation, require_cycle


@dataclass(frozen=True)
class Generator:
    """One multiplier in a certificate: a vertex, an edge, or a ghost edge."""

    kind: str
    name: str

    def __post_init__(self) -> None:
        if self.kind not in ("vertex", "edge", "ghost"):
            raise AlgebraError("unknown generator kind %r" % self.kind)

    def text(self) -> str:
        if self.kind == "ghost":
            return self.name + "^*"
        return self.name

    def element(self, algebra: LeavittAlgebra) -> Element:
        if self.kind == "vertex":
            return algebra.vertex(self.name)
        if self.kind == "edge":
            return algebra.edge(self.name)
        return algebra.ghost(self.name)

    @staticmethod
    def from_text(graph: Graph, text: str) -> "Generator":
        if text.endswith("^*"):
            name = text[:-2]
            graph.edge(name)
            return Generator("ghost", name)
        if graph.has_vertex(text):
            return Generator("vertex", text)
        if graph.has_edge(text):
            return Generator("edge", text)
        raise AlgebraError("unknown generator %r" % text)


@dataclass(frozen=True)
class ScalarVertex:
    """Outcome form k v with k a nonzero scalar and v a vertex."""

    coeff: object
    vertex: str


@dataclass(frozen=True)
class CyclePolynomial:
    """Outcome form: a polynomial in a cycle without exits, based at its
    source vertex. coeffs pairs exponents with nonzero scalars; exponent 0
    stands for the vertex, negative exponents for ghost powers."""

    vertex: str
    cycle: Path
    coeffs: tuple[tuple[int, object], ...]


@dataclass(frozen=True)
class ReductionWitness:
    """Replayable certificate: left and right generator sequences, applied
    in listed order on their side of the input, and the resulting form."""

    left: tuple[Generator, ...]
    right: tuple[Generator, ...]
    outcome: object


def realify(x: Element) -> tuple[Path, Element]:
    """A path nu with x nu real (ghost-free) and nonzero.

    nu begins at the first declared vertex v with x v nonzero: x v keeps
    the terms p q* whose ghost part q starts at v, so v is read off the
    terms. nu grows by the first out-edge that keeps the product nonzero.
    While a ghost part remains, the vertex expansion relation guarantees
    such an edge exists, and each step shortens the longest ghost part, so
    the peeling ends.
    """
    if x.is_zero:
        raise ZeroElementError("cannot realify zero")
    alg = x.algebra
    g = alg.graph
    base = min((m.ghost.source for m, _ in x.items()), key=g._vindex.__getitem__)
    y = x * alg.vertex(base)
    edges: list[str] = []
    at = base
    while not y.is_real:
        for e in g.out_edges(at):
            cand = y * alg.edge(e.name)
            if not cand.is_zero:
                y = cand
                at = e.range
                edges.append(e.name)
                break
        else:
            raise AlgebraError("realification found no continuing edge")
    return Path(base, tuple(edges), at), y


def _common_closed_root(paths: list[Path]) -> Path | None:
    """The closed path with every given path a positive power of it.

    The paths must be nontrivial, in shortlex order, and closed at one
    base vertex. reduce hands over the real parts of a real normal form
    whose terms start at the base and share the range the right multipliers
    left them at, the base itself, since one of the terms is the trivial
    path there. The candidate is the length-gcd prefix of the first path.
    Once every path is a repetition of it, the prefix is closed as well:
    the first path is closed, and each copy of the prefix starts where the
    one before it ends.
    """
    g = gcd(*map(len, paths))
    first = paths[0]
    prefix = first.edges[:g]
    if any(p.edges != prefix * (len(p) // g) for p in paths):
        return None
    return Path(first.source, prefix, first.source)


def reduce(x: Element) -> ReductionWitness:
    """A replayable reduction of a nonzero element to a corner form."""
    if x.is_zero:
        raise ZeroElementError("cannot reduce zero")
    alg = x.algebra
    g = alg.graph
    left: list[Generator] = []
    right: list[Generator] = []

    nu, y = realify(x)
    # x v = x exactly when every ghost part of x starts at v.
    if any(m.ghost.source != nu.source for m, _ in x.items()):
        right.append(Generator("vertex", nu.source))
    right.extend(Generator("edge", name) for name in nu.edges)

    # Strips only shorten supports; rotations between kills are bounded by
    # the periodicity of the rotated paths. The margin is generous.
    nterms = len(y.items())
    maxlen = max(len(m.real) for m, _ in y.items())
    limit = 64 + 8 * (nterms + 2) * (maxlen + 2)

    for _ in range(limit):
        terms = y.items()
        if len(terms) == 1:
            m, c = terms[0]
            for name in m.real.edges:
                left.append(Generator("ghost", name))
                y = alg.ghost(name) * y
            return ReductionWitness(
                tuple(left), tuple(right), ScalarVertex(c, m.real.range)
            )
        # Cut to the first declared source: v y keeps the terms whose real
        # part starts at v.
        v = min((m.real.source for m, _ in terms), key=g._vindex.__getitem__)
        cand = alg.vertex(v) * y
        if cand != y:
            left.append(Generator("vertex", v))
            y = cand
        terms = y.items()
        if len(terms) == 1:
            continue
        # y is real, and normal-form order on real terms is shortlex on
        # their paths: the first path is the canonically first shortest one.
        paths = [m.real for m, _ in terms]
        shortest = paths[0]
        if not shortest.is_trivial:
            # Strip the canonically first shortest path. Its own term turns
            # into a vertex term, longer paths lose it as a prefix or die;
            # being shortest, it never manufactures a ghost part.
            for name in shortest.edges:
                left.append(Generator("ghost", name))
                y = alg.ghost(name) * y
            continue
        base = shortest.source
        closed = [p for p in paths if not p.is_trivial]
        root = _common_closed_root(closed)
        if root is None:
            # Conjugate by the first edge of the canonically first closed
            # path: aligned paths rotate, the rest die. Misalignment must
            # surface within bounded rounds, else a common root existed.
            first = closed[0].edges[0]
            left.append(Generator("ghost", first))
            right.append(Generator("edge", first))
            y = alg.ghost(first) * y * alg.edge(first)
            continue
        exit_pos = _first_bifurcation(g, root)
        if exit_pos is None:
            # No exit anywhere on the root: it is a power of the cycle that
            # first returns to the base vertex, and y is a polynomial in it
            # whose terms come shortest first, so exponents ascend.
            cmin = Path(base, root.edges[: g.path_vertices(root).index(base, 1)], base)
            coeffs = tuple((len(m.real) // len(cmin), c) for m, c in y.items())
            return ReductionWitness(
                tuple(left), tuple(right), CyclePolynomial(base, cmin, coeffs)
            )
        # Conjugate up to the first bifurcation of the root, then escape
        # along a different edge there: every root power dies against it
        # and only the scalar vertex term survives.
        for name in root.edges[:exit_pos]:
            left.append(Generator("ghost", name))
            right.append(Generator("edge", name))
            y = alg.ghost(name) * y * alg.edge(name)
        avoid = root.edges[exit_pos]
        branch_vertex = g.edge(avoid).source
        exit_edge = next(
            e.name for e in g.out_edges(branch_vertex) if e.name != avoid
        )
        left.append(Generator("ghost", exit_edge))
        right.append(Generator("edge", exit_edge))
        y = alg.ghost(exit_edge) * y * alg.edge(exit_edge)
    else:
        raise AlgebraError("reduction did not converge within its step bound")


def outcome_element(algebra: LeavittAlgebra, outcome) -> Element:
    """The element an outcome stands for, validated structurally.

    Raises AlgebraError or GraphError when the outcome is malformed: a zero
    scalar, a non-cycle, a cycle with an exit, a base vertex off the cycle,
    or degenerate coefficients.
    """
    g = algebra.graph
    if isinstance(outcome, ScalarVertex):
        c = algebra.field.coerce(outcome.coeff)
        if not c:
            raise AlgebraError("scalar-vertex outcome with zero coefficient")
        return algebra.vertex(outcome.vertex) * c
    if isinstance(outcome, CyclePolynomial):
        cycle = outcome.cycle
        require_cycle(g, cycle)
        if cycle.source != outcome.vertex:
            raise AlgebraError("cycle polynomial based off its vertex")
        if _first_bifurcation(g, cycle) is not None:
            raise AlgebraError("cycle polynomial over a cycle with an exit")
        if not outcome.coeffs:
            raise AlgebraError("empty cycle polynomial")
        exps = [e for e, _ in outcome.coeffs]
        if len(set(exps)) != len(exps):
            raise AlgebraError("repeated exponent in cycle polynomial")
        total = algebra.zero()
        for exp, c in outcome.coeffs:
            c = algebra.field.coerce(c)
            if not c:
                raise AlgebraError("zero coefficient in cycle polynomial")
            power = Path(cycle.source, cycle.edges * abs(exp), cycle.source)
            if exp == 0:
                piece = algebra.vertex(outcome.vertex)
            elif exp > 0:
                piece = algebra.path_element(power)
            else:
                piece = algebra.path_star_element(power)
            total = total + piece * c
        return total
    raise AlgebraError("unknown outcome %r" % (outcome,))


def verify_witness(x: Element, witness: ReductionWitness) -> bool:
    """Replay a certificate against its element, trusting nothing. Each
    power of a cycle polynomial's cycle is a term of the outcome's normal
    form, so one longer than every term of the replayed element fails the
    certificate before the outcome is built."""
    alg, outcome = x.algebra, witness.outcome
    try:
        y = x
        for gen in witness.right:
            y = y * gen.element(alg)
        for gen in witness.left:
            y = gen.element(alg) * y
        if isinstance(outcome, CyclePolynomial):
            longest = max((len(m.real) + len(m.ghost) for m, _ in y.items()), default=0)
            if any(abs(k) * len(outcome.cycle) > longest for k, _ in outcome.coeffs):
                return False
        return y == outcome_element(alg, outcome)
    except (AlgebraError, FieldError, GraphError):
        return False


def nondegeneracy_witness(x: Element) -> Element:
    """An element a with x a x nonzero.

    Writing the reduction as L x R = w with w a scalar vertex or a cycle
    polynomial, w squares to something nonzero, so L (x R L x) R is nonzero
    and a = R L works. a is cut by the local unit u of x on both sides,
    which changes nothing in x a x and keeps a small: the right generators,
    then the left ones in reverse, are multiplied onto u in turn, and u
    closes the product.
    """
    witness = reduce(x)
    alg = x.algebra
    unit = x.local_unit()
    a = unit
    for gen in witness.right:
        a = a * gen.element(alg)
    for gen in reversed(witness.left):
        a = a * gen.element(alg)
    return a * unit


def witness_to_obj(witness: ReductionWitness, algebra: LeavittAlgebra) -> dict:
    """A JSON-ready rendering of a certificate."""
    field = algebra.field
    obj: dict = {
        "left": [gen.text() for gen in witness.left],
        "right": [gen.text() for gen in witness.right],
    }
    o = witness.outcome
    if isinstance(o, ScalarVertex):
        obj["outcome"] = {
            "kind": "scalar-vertex",
            "coeff": field.render(o.coeff),
            "vertex": o.vertex,
        }
    elif isinstance(o, CyclePolynomial):
        obj["outcome"] = {
            "kind": "cycle-polynomial",
            "vertex": o.vertex,
            "cycle": list(o.cycle.edges),
            "coeffs": [[exp, field.render(c)] for exp, c in o.coeffs],
        }
    else:
        raise AlgebraError("unknown outcome %r" % (o,))
    return obj


def _names(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise AlgebraError("malformed witness object: %s is not a list of strings" % what)
    return value


def _typed(value, kind: type, what: str):
    # bool is a subclass of int, so JSON true would pass as an exponent.
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise AlgebraError(
        "malformed witness object: %s %r is a %s" % (what, value, type(value).__name__)
    )


def witness_from_obj(algebra: LeavittAlgebra, obj: dict) -> ReductionWitness:
    """Rebuild a certificate from its JSON rendering, validating its shape
    and names."""
    if not isinstance(obj, dict):
        raise AlgebraError("malformed witness object: not an object")
    g = algebra.graph

    def coeff(text):
        return algebra.field.parse(_typed(text, str, "coefficient"))

    try:
        left = tuple(Generator.from_text(g, t) for t in _names(obj.get("left", []), "left"))
        right = tuple(Generator.from_text(g, t) for t in _names(obj.get("right", []), "right"))
        oc = obj["outcome"]
        kind = oc["kind"]
        if kind == "scalar-vertex":
            outcome = ScalarVertex(coeff(oc["coeff"]), g.require_vertex(oc["vertex"]))
        elif kind == "cycle-polynomial":
            cycle = g.path(g.require_vertex(oc["vertex"]), _names(oc["cycle"], "cycle"))
            outcome = CyclePolynomial(
                oc["vertex"],
                cycle,
                tuple((_typed(e, int, "exponent"), coeff(c)) for e, c in oc["coeffs"]),
            )
        else:
            raise AlgebraError("unknown outcome kind %r" % kind)
    except (KeyError, TypeError, ValueError) as exc:
        raise AlgebraError("malformed witness object: %s" % exc) from exc
    return ReductionWitness(left, right, outcome)
