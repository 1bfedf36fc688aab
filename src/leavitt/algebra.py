"""Leavitt path algebras over an exact field, with computable normal forms.

The algebra of a graph is generated by its vertices (pairwise orthogonal
idempotents), its edges, and a ghost edge for each edge, subject to

  (1) s(e) e = e r(e) = e
  (2) r(e) e* = e* s(e) = e*
  (3) e* f = r(e) when f = e, and 0 otherwise
  (4) v = sum of e e* over the edges leaving v, for every non-sink v

Elements are kept in a canonical normal form: a scalar combination of
monomials p q* where p and q are paths with a common range and where p and q
never both end in the distinguished first out-edge of the same vertex.
Relation (4), applied at that distinguished edge, rewrites any offending
monomial into strictly smaller material, so the normal form is reached in
finitely many steps and two elements are equal in the algebra exactly when
their normal forms coincide. Confluence of the rewriting (independence from
the order redexes are picked) is exercised empirically by the test suite,
against a scanning normalizer that may pick them in any order.

Normalization rewrites the longest redexes first and each redex once, so
input terms p q* take at most the sum of min(|p|, |q|) rewrite steps,
within a budget of DEFAULT_STEP_LIMIT steps. A monomial and its paths are
tuples, so they hash and compare in C; a monomial stores nothing but its
two paths. A vertex, edge, ghost, path or ghost path has a trivial part,
so it is never a redex and is built as its own normal form; only
combinations of monomials are normalized. Input is checked once, where it
enters, in one pass over its terms: normal_form_steps walks each outside
monomial's edges through the graph, which builds no paths, and coerces its
coefficient, each distinct int once; a projection p p* walks its path once.
Errors come in term order: the first bad term raises what the per-term
checks (_term, _check_monomial, the field's coerce) raise for it. Only the
shorter piece of a rewrite can be a redex, so the other pieces take no
redex test, and a projection rewrites into projections whose two parts
are one path. Sums, products, the involution and quotient
images trust the normal forms they start from. Operations on elements of
one algebra never compare graphs, so graph size does not enter their
cost. An algebra keeps no per-graph data of its own, so building one is
O(1): the redex test reads a special edge as the first entry of its
source's out-edges in the graph.

Coefficients come from leavitt.fields, so everything here is exact: over
the rationals an int while it is integral, a Fraction once a denominator
has entered it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .fields import QQ, FieldError
from .graphs import Graph, Path, _path_layers


DEFAULT_STEP_LIMIT = 200_000


class AlgebraError(Exception):
    """Base class for algebra construction and computation failures."""


class MixedContextError(AlgebraError):
    """Two elements from different algebras met in one operation."""


class ZeroElementError(AlgebraError):
    """The zero element was passed where a nonzero one is required."""


def special_edges(graph: Graph) -> dict[str, str]:
    """The distinguished out-edge of each non-sink: the first one declared.

    Relation (4) is only ever applied at these edges during normalization,
    which is what makes the rewriting terminate.
    """
    return {v: es[0].name for v, es in graph._out.items() if es}


class _MonomialParts(NamedTuple):
    real: Path
    ghost: Path


class Monomial(_MonomialParts):
    """A product p q* of a real path and a reversed ghost path.

    The two paths must share their range vertex; that is the only shape a
    nonzero such product can have. A monomial with both parts trivial is a
    vertex.

    A monomial is the immutable tuple (real, ghost) with named fields, like
    Path, so it hashes and compares in C, as that tuple, and carries no
    per-instance dictionary.
    """

    __slots__ = ()

    def __new__(cls, real: Path, ghost: Path) -> "Monomial":
        if real.range != ghost.range:
            raise AlgebraError(
                "monomial parts must share a range, got %r and %r"
                % (real.range, ghost.range)
            )
        return tuple.__new__(cls, (real, ghost))

    @property
    def is_vertex(self) -> bool:
        return self.real.is_trivial and self.ghost.is_trivial

    @property
    def degree(self) -> int:
        return len(self.real) - len(self.ghost)

    def text(self) -> str:
        if self.is_vertex:
            return self.real.source
        bits = list(self.real.edges)
        bits.extend(name + "^*" for name in reversed(self.ghost.edges))
        return " ".join(bits)


def _term(term: tuple[object, Monomial]) -> tuple[object, Monomial]:
    """An outside term, checked to be a (coefficient, monomial) pair."""
    try:
        c, m = term
    except (TypeError, ValueError):
        m = None
    if not isinstance(m, Monomial):
        raise AlgebraError("term %r is not a (coefficient, monomial) pair" % (term,))
    return c, m


class LeavittAlgebra:
    """The Leavitt path algebra of a graph over a chosen field."""

    def __init__(self, graph: Graph, field=QQ):
        self.graph = graph
        self.field = field
        # The algebra of the quotient by the socle's H, built by the first
        # membership test that needs it (leavitt.socle.in_socle).
        self._socle_quotient: LeavittAlgebra | None = None

    def __repr__(self) -> str:
        return "LeavittAlgebra(%r, %s)" % (self.graph, self.field.name)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LeavittAlgebra)
            and other.graph == self.graph
            and other.field == self.field
        )

    def __hash__(self) -> int:
        return hash((self.graph, self.field))

    # ------------------------------------------------------------------
    # element builders
    # ------------------------------------------------------------------

    def zero(self) -> "Element":
        return Element(self, ())

    def _vertex_sum(self, vertices: Iterable[str]) -> "Element":
        """The sum of distinct vertices, trusted, in declaration order."""
        one = self.field.one()
        return Element(
            self,
            tuple((Monomial(t, t), one) for t in (Path(v, (), v) for v in vertices)),
        )

    def one(self) -> "Element":
        """The sum of all vertices: the identity of the (unital) algebra."""
        return self._vertex_sum(self.graph.vertices)

    def vertex(self, name: str) -> "Element":
        return self._vertex_sum((self.graph.require_vertex(name),))

    def _generator(self, real: Path, ghost: Path) -> "Element":
        """p q* with a trivial part, checked by the caller: never a redex."""
        return Element(self, ((tuple.__new__(Monomial, (real, ghost)), self.field.one()),))

    def edge(self, name: str) -> "Element":
        e = self.graph.edge(name)
        return self._generator(Path(e.source, (name,), e.range), Path(e.range, (), e.range))

    def ghost(self, name: str) -> "Element":
        e = self.graph.edge(name)
        return self._generator(Path(e.range, (), e.range), Path(e.source, (name,), e.range))

    def path_element(self, path: Path) -> "Element":
        t = self.graph.trivial_path(path.range)
        return self._generator(self.graph.require_path(path), t)

    def path_star_element(self, path: Path) -> "Element":
        t = self.graph.trivial_path(path.range)
        return self._generator(t, self.graph.require_path(path))

    def monomial(self, real: Path, ghost: Path) -> "Element":
        return self.element(((self.field.one(), Monomial(real, ghost)),))

    def element(self, pairs: Iterable[tuple[object, Monomial]]) -> "Element":
        """Build the normal form of a scalar combination of monomials."""
        return self.normal_form(pairs)

    def normal_form(
        self,
        pairs: Iterable[tuple[object, Monomial]],
        max_steps: int = DEFAULT_STEP_LIMIT,
    ) -> "Element":
        return self.normal_form_steps(pairs, max_steps)[0]

    def normal_form_steps(
        self,
        pairs: Iterable[tuple[object, Monomial]],
        max_steps: int = DEFAULT_STEP_LIMIT,
    ) -> tuple["Element", int]:
        # The one entry that checks, in one pass over the terms: each term's
        # shape; its monomial's shared range, its real path and, when it is
        # another path, its ghost, walked through the graph; then its
        # coefficient, each distinct int coerced once. A term that fails the
        # inline check goes through _term and _check_monomial, which raise
        # its error, so the first bad term is reported as they report it. An
        # exception raised inside the inline check (a name that cannot be
        # hashed, edges that cannot be iterated) comes from an operation
        # that they make too.
        g = self.graph
        edges, eindex, vindex = g.edges, g._eindex, g._vindex
        coerce, coerced = self.field.coerce, {}
        checked = []
        for term in pairs:
            try:
                c, m = term
            except (TypeError, ValueError):
                m = None
            ok = False
            if type(m) is Monomial:
                real, ghost = m
                if type(real) is Path is type(ghost) and real[2] == ghost[2]:
                    try:
                        for at, names, end in (real,) if ghost == real else m:
                            if at not in vindex:
                                break
                            for name in names:
                                e = edges[eindex[name]]
                                if e[1] != at:
                                    break
                                at = e[2]
                            else:
                                if at == end:
                                    continue  # the path walks to its range
                            break
                        else:
                            ok = True
                    except KeyError:  # an unknown edge
                        pass
            if not ok:
                c, m = _term(term)
                self._check_monomial(m)
            if type(c) is int:
                x = coerced.get(c)
                if x is None:
                    x = coerced[c] = coerce(c)
            else:
                x = coerce(c)
            checked.append((m, x))
        terms, steps = self._normalize(checked, max_steps)
        return Element(self, terms), steps

    # ------------------------------------------------------------------
    # normalization
    # ------------------------------------------------------------------

    def _mono_key(self, m: Monomial) -> tuple:
        """Total length, ghost length, then shortlex on p and on q.

        A total order on the monomials of one graph, so distinct monomials
        never tie.
        """
        real, ghost = m
        sort_key = self.graph.path_sort_key
        return (
            len(real.edges) + len(ghost.edges),
            len(ghost.edges),
            sort_key(real),
            sort_key(ghost),
        )

    def _check_monomial(self, m: Monomial) -> Monomial:
        real, ghost = m.real, m.ghost
        if real.range != ghost.range:
            # _make and _replace skip Monomial.__new__; let it refuse them.
            Monomial(real, ghost)
        self.graph.require_path(real)
        if ghost != real:
            # A projection p p* walks its path once.
            self.graph.require_path(ghost)
        return m

    def _is_reducible(self, m: Monomial) -> bool:
        """Both paths end in one edge, and it is the first declared
        out-edge of its source (special_edges)."""
        r, q = m.real.edges, m.ghost.edges
        if not r or not q or r[-1] != q[-1]:
            return False
        g = self.graph
        last = r[-1]
        return g._out[g.edge(last).source][0].name == last

    def _rewrite(self, m: Monomial) -> list[tuple[int, Monomial]]:
        """Apply relation (4) at the shared trailing special edge.

        p'g (q'g)* becomes p'q'* minus the sum of (p'f)(q'f)* over the other
        edges f leaving the same vertex. The first piece is shorter; the
        others end in non-special edges, so they are not reducible again at
        the tail.
        """
        real, ghost = m
        gname = real.edges[-1]
        g = self.graph
        v = g.edges[g._eindex[gname]].source
        rsrc, redges = real.source, real.edges[:-1]
        gsrc, gedges = ghost.source, ghost.edges[:-1]
        # A projection p p* rewrites into projections, each of one path.
        shared = real is ghost
        # The pieces chain by construction, so they skip the checking
        # constructors.
        new = tuple.__new__
        p = new(Path, (rsrc, redges, v))
        out = [(1, new(Monomial, (p, p if shared else new(Path, (gsrc, gedges, v)))))]
        for e in g._out[v]:
            if e.name == gname:
                continue
            tail = (e.name,)
            p = new(Path, (rsrc, redges + tail, e.range))
            q = p if shared else new(Path, (gsrc, gedges + tail, e.range))
            out.append((-1, new(Monomial, (p, q))))
        return out

    def _normalize(self, terms, max_steps=DEFAULT_STEP_LIMIT):
        """Rewrite until no redex is left; return sorted terms and steps.

        The (monomial, coefficient) terms are trusted to chain and to hold
        scalars of the field; only normal_form_steps checks. Redexes wait in
        buckets by total length and are rewritten longest first. Rewriting
        one of length L leaves one piece of length L - 2 and pieces of
        length L that end in a non-special edge, so once a length is done
        none of its redexes comes back: each is rewritten once, with its
        whole coefficient, and an entry that has since cancelled is skipped.
        The steps are at most the sum of min(|p|, |q|) over the terms p q*.

        Only the first, shorter piece of a rewrite can be a redex, so only
        the input terms and the first pieces take the redex test. The first
        pieces of one length's rewrites wait until that length is done, as
        nothing of their length is read before, and are then taken in like
        the input.
        """
        live: dict[Monomial, object] = {}
        get = live.get
        buckets: dict[int, list[Monomial]] = {}
        g = self.graph
        edges, eindex, out = g.edges, g._eindex, g._out
        rewrite = self._rewrite
        steps = 0
        fresh = terms
        while True:
            for m, c in fresh:
                cur = get(m)
                if cur is not None:
                    total = cur + c
                    if total:
                        live[m] = total
                    else:
                        del live[m]
                elif c:
                    live[m] = c
                    # _is_reducible, inlined: this runs for every new input
                    # term and first piece.
                    r, q = m[0][1], m[1][1]
                    if r and q:
                        last = r[-1]
                        if last == q[-1] and out[edges[eindex[last]][1]][0][0] == last:
                            buckets.setdefault(len(r) + len(q), []).append(m)
            if not buckets:
                break
            fresh = []
            for m in buckets.pop(max(buckets)):
                # Only redexes are bucketed, so a live entry is a live redex.
                c = live.pop(m, None)
                if c is None:
                    continue
                if steps >= max_steps:
                    raise AlgebraError("normalization exceeded %d steps" % max_steps)
                steps += 1
                pieces = rewrite(m)
                if not pieces:
                    continue
                neg = -c
                sign, piece = pieces[0]
                fresh.append((piece, c if sign > 0 else neg))
                # The other pieces end in an edge that is not special: no
                # redex, and a new one enters with a nonzero coefficient.
                for sign, piece in pieces[1:]:
                    cur = get(piece)
                    if cur is None:
                        live[piece] = c if sign > 0 else neg
                    else:
                        total = cur + (c if sign > 0 else neg)
                        if total:
                            live[piece] = total
                        else:
                            del live[piece]
        key = self._mono_key
        ordered = tuple(sorted(live.items(), key=lambda kv: key(kv[0])))
        return ordered, steps

    # ------------------------------------------------------------------
    # raw monomial product
    # ------------------------------------------------------------------

    def _mono_mul_raw(self, m1: Monomial, m2: Monomial) -> Monomial | None:
        """The product of two monomials before renormalization.

        q1* p2 collapses to a path (when one of q1, p2 is a prefix of the
        other) or to zero; the result is a single monomial or None.
        """
        q, p = m1.ghost, m2.real
        if q.source != p.source:
            return None
        # The factors chain, so the product does: no checking constructors.
        new = tuple.__new__
        if len(q) <= len(p):
            if p.edges[: len(q)] != q.edges:
                return None
            real = new(Path, (m1.real.source, m1.real.edges + p.edges[len(q):], p.range))
            return new(Monomial, (real, m2.ghost))
        if q.edges[: len(p)] != p.edges:
            return None
        ghost = new(Path, (m2.ghost.source, m2.ghost.edges + q.edges[len(p):], q.range))
        return new(Monomial, (m1.real, ghost))

    def mono_mul(self, m1: Monomial, m2: Monomial) -> "Element":
        """The renormalized product of two monomials."""
        return self.monomial(m1.real, m1.ghost) * self.monomial(m2.real, m2.ghost)

    # ------------------------------------------------------------------
    # corner enumeration
    # ------------------------------------------------------------------

    def iter_corner_monomials(self, vertex: str, max_total_length: int) -> Iterator[Monomial]:
        """Normal-form monomials p q* with both paths leaving the vertex.

        These span the corner v A v through total length l(p) + l(q) <=
        max_total_length. Ordered by total length, then ghost length, then
        path order; the vertex itself comes first. Path layers are grown on
        demand so that an early-exiting consumer never pays for the long
        ones.
        """
        grow = _path_layers(self.graph, vertex)
        layers = [next(grow)]
        for total in range(max_total_length + 1):
            if total:
                layers.append(next(grow))
            for ghost_len in range(total + 1):
                for p in layers[total - ghost_len]:
                    for q in layers[ghost_len]:
                        if q.range != p.range:
                            continue
                        m = Monomial(p, q)
                        if not self._is_reducible(m):
                            yield m

    def corner_basis(self, vertex: str, max_total_length: int) -> tuple[Monomial, ...]:
        return tuple(self.iter_corner_monomials(vertex, max_total_length))

    # ------------------------------------------------------------------
    # defining relations
    # ------------------------------------------------------------------

    def check_relations(self) -> "RelationsReport":
        """Recheck the defining relations inside the normal-form arithmetic."""
        counts: dict[str, int] = {}
        failures: list[str] = []

        def note(label: str, ok: bool, detail: str) -> None:
            counts[label] = counts.get(label, 0) + 1
            if not ok:
                failures.append("%s: %s" % (label, detail))

        g = self.graph
        zero = self.zero()
        vertex = {v: self.vertex(v) for v in g.vertices}
        edge = {e.name: self.edge(e.name) for e in g.edges}
        ghost = {e.name: self.ghost(e.name) for e in g.edges}
        for v in g.vertices:
            for w in g.vertices:
                expect = vertex[v] if v == w else zero
                note("vertex-idempotents", vertex[v] * vertex[w] == expect, "%s %s" % (v, w))
        for e in g.edges:
            a, b, s, r = edge[e.name], ghost[e.name], vertex[e.source], vertex[e.range]
            note("source-range", s * a == a and a * r == a, e.name)
            note("ghost-source-range", r * b == b and b * s == b, e.name)
            for f in g.edges:
                expect = r if f.name == e.name else zero
                note("ghost-pairing", b * edge[f.name] == expect, "%s %s" % (e.name, f.name))
        for v, es in g._out.items():
            if es:
                total = sum((edge[e.name] * ghost[e.name] for e in es), zero)
                note("vertex-expansion", total == vertex[v], v)
        return RelationsReport(
            counts=tuple(sorted(counts.items())),
            failures=tuple(failures),
            passed=not failures,
        )


@dataclass(frozen=True)
class RelationsReport:
    counts: tuple[tuple[str, int], ...]
    failures: tuple[str, ...]
    passed: bool

    @property
    def total(self) -> int:
        return sum(n for _, n in self.counts)


class Element:
    """A normal-form element: a sorted tuple of (monomial, coefficient).

    Instances are immutable; all arithmetic returns fresh normal forms.
    Build them through the LeavittAlgebra methods or leavitt.expr.
    """

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: LeavittAlgebra, terms: tuple):
        self.algebra = algebra
        self._terms = terms

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def items(self) -> tuple:
        """The (monomial, coefficient) pairs in canonical order."""
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_real(self) -> bool:
        """No ghost part anywhere: a combination of plain paths."""
        return all(m.ghost.is_trivial for m, _ in self._terms)

    def degree(self) -> int:
        """The top degree with a nonzero coefficient."""
        return self.degree_range()[1]

    def degree_range(self) -> tuple[int, int]:
        if not self._terms:
            raise ZeroElementError("the zero element has no degree")
        degrees = [m.degree for m, _ in self._terms]
        return (min(degrees), max(degrees))

    def homogeneous_component(self, degree: int) -> "Element":
        return Element(
            self.algebra,
            tuple((m, c) for m, c in self._terms if m.degree == degree),
        )

    def local_unit(self) -> "Element":
        """The smallest vertex sum u with u x = x u = x; zero for x = 0."""
        needed = {v for m, _ in self._terms for v in (m.real.source, m.ghost.source)}
        index = self.algebra.graph._vindex
        return self.algebra._vertex_sum(sorted(needed, key=index.__getitem__))

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _same_algebra(self, other: "Element") -> bool:
        return self.algebra is other.algebra or self.algebra == other.algebra

    def _require_same(self, other: "Element") -> None:
        if not self._same_algebra(other):
            raise MixedContextError(
                "elements live in different algebras (graph or field differ)"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self._same_algebra(other) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.algebra, self._terms))

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same(other)
        # A sum of normal forms has no redex, so nothing is rewritten.
        return Element(self.algebra, self.algebra._normalize(self._terms + other._terms)[0])

    def __neg__(self) -> "Element":
        return Element(self.algebra, tuple((m, -c) for m, c in self._terms))

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def _scaled(self, scalar) -> "Element":
        c = self.algebra.field.coerce(scalar)
        if not c:
            return Element(self.algebra, ())
        return Element(self.algebra, tuple((m, k * c) for m, k in self._terms))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._require_same(other)
            raw = []
            for m1, c1 in self._terms:
                for m2, c2 in other._terms:
                    prod = self.algebra._mono_mul_raw(m1, m2)
                    if prod is not None:
                        raw.append((prod, c1 * c2))
            # Products of normal-form monomials chain by construction.
            return Element(self.algebra, self.algebra._normalize(raw)[0])
        try:
            return self._scaled(other)
        except FieldError:
            return NotImplemented

    def __rmul__(self, other):
        try:
            return self._scaled(other)
        except FieldError:
            return NotImplemented

    def involution(self) -> "Element":
        """The anti-automorphism swapping each p q* for q p*."""
        # q p* is a redex exactly when p q* is: only the order changes.
        swapped = ((Monomial(m.ghost, m.real), c) for m, c in self._terms)
        return Element(self.algebra, self.algebra._normalize(swapped)[0])

    # ------------------------------------------------------------------
    # text
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        field = self.algebra.field
        parts: list[str] = []
        for m, c in self._terms:
            rendered = "%s*%s" % (field.render(c), m.text())
            if not parts:
                parts.append(rendered)
            elif rendered.startswith("-"):
                parts.append(" - " + rendered[1:])
            else:
                parts.append(" + " + rendered)
        return "".join(parts)

    def __repr__(self) -> str:
        return "<Element %s>" % self
