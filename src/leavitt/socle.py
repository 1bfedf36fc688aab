"""The socle of a Leavitt path algebra, made executable.

The socle is the two-sided ideal generated by the hereditary saturated
closure H of the line points. Everything here reduces questions about that
ideal to graph combinatorics plus exact normal-form arithmetic: membership
goes through the quotient map that kills H, the matricial shape of the socle
is read off from paths into sinks, and for acyclic graphs an explicit
block-matrix representation doubles as a faithfulness oracle for the whole
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .algebra import Element, LeavittAlgebra, MixedContextError
from .graphs import (
    CyclicGraphError,
    Graph,
    HedgehogGraph,
    Path,
    SubsetError,
    entry_paths,
    hedgehog_graph,
    hereditary_saturated_closure,
    is_acyclic,
    line_points,
    quotient_graph,
    _depth_bound,
    _path_counts,
    _vertex_set,
)


# ----------------------------------------------------------------------
# generators and membership
# ----------------------------------------------------------------------

def socle_generators(graph: Graph) -> frozenset[str]:
    """The hereditary saturated closure H of the line points.

    The socle is the two-sided ideal generated by these vertices.
    """
    return hereditary_saturated_closure(graph, line_points(graph))


def socle_is_nonzero(graph: Graph) -> bool:
    return bool(line_points(graph))


def socle_equals_algebra(graph: Graph) -> bool:
    return len(socle_generators(graph)) == len(graph.vertices)


def quotient_image(
    x: Element,
    subset: Iterable[str],
    target: LeavittAlgebra | None = None,
) -> Element:
    """Push an element through the quotient map killing a vertex set.

    The set must be hereditary and saturated. A monomial survives exactly
    when its range lies outside the set, since a path that enters a
    hereditary set stays in it, so its edges all survive too; survivors are
    checked and renormalized on the quotient side. Passing a target algebra
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
    return target.element((c, m) for m, c in x.items() if m.real.range not in h)


def in_socle(x: Element) -> bool:
    """Whether the element lies in the socle.

    The socle is the kernel of the quotient map by H, so membership is one
    image computation; when H is everything the quotient algebra is zero
    and every element belongs.
    """
    graph = x.algebra.graph
    h = socle_generators(graph)
    if len(h) == len(graph.vertices):
        return True
    return quotient_image(x, h).is_zero


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
        return tuple("inf" if n is None else str(n) for n in self.summands)


def socle_structure(graph: Graph, depth_bound: int | None = None) -> SocleReport:
    """The matricial decomposition of the socle.

    Each sink w inside H contributes one matrix summand whose size is the
    number of paths ending at w, the trivial one included, infinite when a
    cycle reaches w. The hedgehog graph of H is built with the given depth
    bound (vertex count + 1 when omitted, checked even when H is empty, as
    in hedgehog_graph); the structure theorem makes it
    acyclic, truncations included, and the tests check that at several
    bounds.
    """
    depth_bound = _depth_bound(graph, depth_bound)
    pl = line_points(graph)
    h = hereditary_saturated_closure(graph, pl)
    counts = _path_counts(graph)
    # Every sink is a line point, so every sink lies in H.
    sizes = [counts[w] for w in graph.sinks()]
    summands = tuple(sorted(n for n in sizes if n is not None)) + tuple(
        n for n in sizes if n is None
    )
    return SocleReport(
        line_points=pl,
        closure_h=graph.sorted_vertices(h),
        summands=summands,
        hedgehog=hedgehog_graph(graph, h, depth_bound) if h else None,
        socle_is_whole=len(h) == len(graph.vertices),
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
