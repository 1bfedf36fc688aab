"""The socle of a Leavitt path algebra, made executable.

The socle is the two-sided ideal generated by the line points, and so by
their hereditary saturated closure H. For a finite graph H is also the
closure of the sinks, and both are the vertices that reach no cycle, which
the graph keeps from its one search of its cycles, so the socle is the
whole algebra exactly when the graph is acyclic. The rest reduces
questions about that ideal to graph combinatorics plus exact normal-form
arithmetic: the socle is the kernel of the map onto L(E/H), so membership
reads the element's terms against the kept H and the quotient's special
edges, and normalizes in the quotient only an element whose image is not
already in normal form; the matricial shape is read off from paths
into sinks, and on acyclic graphs a block-matrix representation doubles as
a faithfulness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .algebra import Element, LeavittAlgebra, MixedContextError, Monomial
from .graphs import (
    CyclicGraphError,
    Graph,
    GraphError,
    HedgehogGraph,
    Path,
    SubsetError,
    entry_paths,
    hedgehog_graph,
    is_acyclic,
    line_points,
    quotient_graph,
    _cycles,
    _depth_bound,
    _path_counts,
    _quotient_graph,
    _vertex_set,
)


# ----------------------------------------------------------------------
# generators and membership
# ----------------------------------------------------------------------

def socle_generators(graph: Graph) -> frozenset[str]:
    """H, the closure of the line points: the vertices that reach no cycle,
    which the graph's kept search of its cycles holds.

    The socle is the two-sided ideal generated by these vertices.
    """
    return _cycles(graph).h


def socle_is_nonzero(graph: Graph) -> bool:
    return bool(graph.sinks())


def socle_equals_algebra(graph: Graph) -> bool:
    return is_acyclic(graph)


def quotient_image(
    x: Element,
    subset: Iterable[str],
    target: LeavittAlgebra | None = None,
) -> Element:
    """Push an element through the quotient map killing a vertex set.

    The set must be hereditary and saturated. A monomial survives exactly
    when its range lies outside the set, since a path that enters a
    hereditary set stays in it, so its edges all survive too; survivors are
    trusted and renormalized on the quotient side. Passing a target algebra
    (over the quotient graph, same field) lets several images land in one
    algebra.
    """
    algebra = x.algebra
    h = _vertex_set(algebra.graph, subset)
    if not h and target is None:
        return x
    graph = quotient_graph(algebra.graph, h)
    if target is None:
        target = LeavittAlgebra(graph, algebra.field)
    elif target.graph != graph or target.field != algebra.field:
        raise MixedContextError(
            "target algebra is not over the quotient graph and field"
        )
    kept = ((m, c) for m, c in x.items() if m.real.range not in h)
    return Element(target, target._normalize(kept)[0])


def in_socle(x: Element) -> bool:
    """Whether the element lies in the socle.

    The socle is the kernel of the map onto L(E/H), which kills the terms
    ending in H (all of them on an acyclic graph) and keeps the others as
    they are. A kept term p q* is in normal form in L(E/H) unless it ends
    in p f (q f)* at a special edge f of E/H; since x is in normal form in
    L(E), such an f is not special in E, so its source's first edge enters
    H, which the graph's kept search of its cycles records. Without such a
    term the kept terms are the normal form of the image, so x lies in the
    socle exactly when none is kept. Otherwise they are normalized in the
    algebra of E/H, built on the first such call and kept on x's algebra.
    Once the search is kept, the cost depends on x, not on the size of the
    graph.
    """
    algebra = x.algebra
    cycles = _cycles(algebra.graph)
    h, shifted = cycles.h, cycles.shifted
    kept = [(m, c) for m, c in x.items() if m.real.range not in h]
    if not any(_ends_at_one_of(m, shifted) for m, _ in kept):
        return not kept
    if algebra._socle_quotient is None:
        quotient = _quotient_graph(algebra.graph, h)
        algebra._socle_quotient = LeavittAlgebra(quotient, algebra.field)
    return not algebra._socle_quotient._normalize(kept)[0]


def _ends_at_one_of(m: Monomial, edges: frozenset[str]) -> bool:
    """Whether both paths of the monomial end in the same edge, one of these."""
    tail = m.real.edges[-1:]
    return bool(tail) and tail == m.ghost.edges[-1:] and tail[0] in edges


def left_ideal_sum_membership(x: Element, vertices: Iterable[str]) -> bool:
    """Whether x lies in the sum of the left ideals A·u over the given u.

    Right multiplication by the idempotent sum u of distinct vertices fixes
    exactly the elements of the sum, and x u keeps exactly the terms p q*
    of x whose ghost part q starts at one of the vertices. So x belongs
    when every ghost part does.
    """
    names = _vertex_set(x.algebra.graph, vertices)
    if not names:
        raise SubsetError("membership in an empty sum of left ideals")
    return all(m.ghost.source in names for m, _ in x.items())


# ----------------------------------------------------------------------
# matricial structure
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SocleReport:
    """Everything the structure theorem says about one socle.

    The summands are matrix sizes, one per sink inside H, finite ones
    ascending and None (meaning infinite) last. The hedgehog realizes the
    socle as a Leavitt path algebra in its own right; it is None when H is
    empty, since a graph cannot have an empty vertex set.
    """

    line_points: tuple[str, ...]
    closure_h: tuple[str, ...]
    summands: tuple[int | None, ...]
    hedgehog: HedgehogGraph | None
    socle_is_whole: bool

    def summand_texts(self) -> tuple[str, ...]:
        """The summand sizes as decimal text, "inf" for an infinite one.

        Raises GraphError for a size of more digits than Python converts to
        text (sys.get_int_max_str_digits(), 4,300 by default), as
        RationalField.render does for a scalar; the size itself is exact.
        """
        try:
            return tuple("inf" if n is None else str(n) for n in self.summands)
        except ValueError:
            raise GraphError("socle summand size too long to print") from None


def socle_structure(graph: Graph, depth_bound: int | None = None) -> SocleReport:
    """The matricial decomposition of the socle.

    Each sink w inside H contributes one matrix summand whose size is the
    number of paths ending at w, the trivial one included, infinite when a
    cycle reaches w. The hedgehog graph of H is built with the given depth
    bound (vertex count + 1 when omitted, checked even when H is empty, as
    in hedgehog_graph); the structure theorem makes it acyclic, truncations
    included, and the tests check that at several bounds.
    """
    depth_bound = _depth_bound(graph, depth_bound)
    h = socle_generators(graph)
    hedgehog = hedgehog_graph(graph, h, depth_bound) if h else None
    # The search keeps the count at each sink, in declaration order. H is
    # the closure of the sinks, so every sink lies in H.
    sizes = list(_path_counts(graph).values())
    summands = tuple(sorted(n for n in sizes if n is not None)) + (None,) * sizes.count(None)
    return SocleReport(
        line_points=line_points(graph),
        closure_h=hedgehog.ideal_part if h else (),
        summands=summands,
        hedgehog=hedgehog,
        socle_is_whole=is_acyclic(graph),
    )


# ----------------------------------------------------------------------
# matrix representation over the sinks of an acyclic graph
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SinkMatrices:
    """One square block per sink, rows and columns indexed by the paths
    ending there in path order."""

    field: object
    sinks: tuple[str, ...]
    sizes: tuple[int, ...]
    blocks: tuple[tuple[tuple[object, ...], ...], ...]

    def _require_same(self, other: "SinkMatrices") -> None:
        if (
            self.field != other.field
            or self.sinks != other.sinks
            or self.sizes != other.sizes
        ):
            raise ValueError("block matrices live over different graphs")

    @property
    def is_zero(self) -> bool:
        return all(not c for block in self.blocks for row in block for c in row)

    def __add__(self, other: "SinkMatrices") -> "SinkMatrices":
        self._require_same(other)
        blocks = tuple(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(ba, bb)
            )
            for ba, bb in zip(self.blocks, other.blocks)
        )
        return SinkMatrices(self.field, self.sinks, self.sizes, blocks)

    def __mul__(self, other: "SinkMatrices") -> "SinkMatrices":
        self._require_same(other)
        zero = self.field.zero()
        out = []
        for n, ba, bb in zip(self.sizes, self.blocks, other.blocks):
            block = []
            for i in range(n):
                row = []
                for j in range(n):
                    acc = zero
                    for k in range(n):
                        acc = acc + ba[i][k] * bb[k][j]
                    row.append(acc)
                block.append(tuple(row))
            out.append(tuple(block))
        return SinkMatrices(self.field, self.sinks, self.sizes, tuple(out))


def matrix_rep(x: Element) -> SinkMatrices:
    """The image of an element under the block-matrix isomorphism.

    Defined for acyclic graphs only. A monomial pq* is expanded along every
    path tau from its range to a sink and contributes its coefficient at
    row p.tau, column q.tau of that sink's block. The map is an algebra
    isomorphism, so it doubles as an independent oracle for the normal-form
    arithmetic.
    """
    algebra = x.algebra
    graph = algebra.graph
    if not is_acyclic(graph):
        raise CyclicGraphError("matrix representation needs an acyclic graph")
    sinks = graph.sinks()
    index: dict[str, dict[Path, int]] = {}
    tails: dict[str, list[Path]] = {v: [] for v in graph.vertices}
    for w in sinks:
        # No edge leaves a sink, so a path ending at w meets it only at its
        # end: past the trivial one, these are the entry paths of {w}, which
        # come in shortlex order.
        ending = [graph.trivial_path(w)] + entry_paths(graph, (w,), len(graph.vertices))
        index[w] = {p: i for i, p in enumerate(ending)}
        for p in ending:
            tails[p.source].append(p)
    sizes = tuple(len(index[w]) for w in sinks)
    zero = algebra.field.zero()
    blocks = [
        [[zero for _ in range(n)] for _ in range(n)] for n in sizes
    ]
    at = {w: i for i, w in enumerate(sinks)}
    for m, c in x.items():
        for tau in tails[m.real.range]:
            w = tau.range
            block = blocks[at[w]]
            row = index[w][graph.concat(m.real, tau)]
            col = index[w][graph.concat(m.ghost, tau)]
            block[row][col] = block[row][col] + c
    frozen = tuple(tuple(tuple(row) for row in block) for block in blocks)
    return SinkMatrices(algebra.field, sinks, sizes, frozen)
