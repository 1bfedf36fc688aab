"""An exhaustive census of small graphs next to the random draws.

Every graph on 1 to 3 vertices with at most 4 edges, loops and parallel
edges included, taken once per multiset of (source, range) pairs: 790
graphs. Random draws rarely hit their corner cases (parallel loops, a
source feeding a sink twice), and the whole census costs about as much as
one property.
"""

from itertools import combinations_with_replacement

from leavitt import (
    Edge,
    Graph,
    LeavittAlgebra,
    condition_L,
    in_socle,
    is_acyclic,
    is_simple,
    line_points,
    paths_from_by_length,
    socle_generators,
    socle_is_nonzero,
    special_edges,
)

import oracles


def census():
    for n in (1, 2, 3):
        vertices = "abc"[:n]
        pairs = [(s, r) for s in vertices for r in vertices]
        for k in range(5):
            for chosen in combinations_with_replacement(pairs, k):
                edges = [Edge("e%d" % i, s, r) for i, (s, r) in enumerate(chosen)]
                yield Graph(vertices, edges)


def normal_form_monomials(graph: Graph):
    """Every p q* of total length at most 2 that is its own normal form:
    p and q share a range and do not both end in the same special edge."""
    special = set(special_edges(graph).values())
    paths = [
        p for v in graph.vertices
        for layer in paths_from_by_length(graph, v, 2) for p in layer
    ]
    for p in paths:
        for q in paths:
            if p.range != q.range or len(p) + len(q) > 2:
                continue
            last = p.edges[-1:]
            if last and last == q.edges[-1:] and last[0] in special:
                continue
            yield p, q


def test_census_of_small_graphs():
    graphs = monomials = 0
    for g in census():
        graphs += 1
        h = oracles.socle_generators(g)
        assert line_points(g) == oracles.line_points(g)
        assert socle_generators(g) == h
        assert condition_L(g) == oracles.condition_L(g)
        assert is_simple(g) == oracles.is_simple(g)
        assert is_acyclic(g) == oracles.is_acyclic(g)
        # L(E) is simple with a nonzero socle exactly when it is a full
        # matrix algebra M_n(K): E acyclic with one sink.
        assert (is_simple(g) and socle_is_nonzero(g)) == (
            oracles.is_acyclic(g) and len(g.sinks()) == 1
        )
        algebra = LeavittAlgebra(g)
        for p, q in normal_form_monomials(g):
            monomials += 1
            assert in_socle(algebra.monomial(p, q)) == (p.range in h), (g.edges, p, q)
    assert graphs == 790
    assert monomials == 19_489
