"""Shared fixtures: five small graphs exercising every structural regime.

L3  line with three vertices: simple, coincides with its socle.
W   two edges out of one vertex into two sinks: socle is the whole algebra
    but the left ideals of the sinks do not add up to it.
T   an edge into a loop: exitless cycle, zero socle.
R2  two loops at one vertex: simple, no sinks, zero socle.
LS  a loop with an exit into a sink: nonzero socle smaller than the algebra,
    one infinite matricial summand.
"""

import pytest

from leavitt import Graph, GraphError, LeavittAlgebra, parse_graph

FIXTURE_TEXTS = {
    "L3": "vertices: v1 v2 v3\nedge a: v1 -> v2\nedge b: v2 -> v3\n",
    "W": "vertices: v z w\nedge e: z -> v\nedge f: z -> w\n",
    "T": "vertices: u v\nedge e: u -> v\nedge f: v -> v\n",
    "R2": "vertices: v\nedge g: v -> v\nedge h: v -> v\n",
    "LS": "vertices: u v\nedge c: u -> u\nedge e: u -> v\n",
}


def _slots(graph: Graph) -> dict:
    return {name: getattr(graph, name) for name in Graph.__slots__}


@pytest.fixture(scope="session", autouse=True)
def trusted_graphs_are_checked():
    """Wrap Graph._built, the build that skips the checks, for the whole
    run: the public constructor must accept the same parts and fill every
    slot alike. It is called through the ``__init__`` saved here, so a test
    that patches ``Graph.__init__`` to count calls does not see these."""
    built, init = Graph._built.__func__, Graph.__init__

    def checked(cls, vertices, edges):
        graph = built(cls, vertices, edges)
        public = Graph.__new__(Graph)
        # pytest.fail is no Exception, so no pytest.raises or except in the
        # library can take a rejection here for the error it expects.
        try:
            init(public, vertices, edges)
        except GraphError as error:
            pytest.fail("Graph() rejects parts built unchecked: %s" % error)
        if _slots(public) != _slots(graph):
            pytest.fail("Graph() builds other slots than the unchecked build")
        return graph

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Graph, "_built", classmethod(checked))
        yield


@pytest.fixture(scope="session")
def graphs():
    return {name: parse_graph(text) for name, text in FIXTURE_TEXTS.items()}


@pytest.fixture(scope="session")
def algebras(graphs):
    return {name: LeavittAlgebra(g) for name, g in graphs.items()}


@pytest.fixture
def write_graph(tmp_path):
    """Factory writing a named fixture graph to disk for CLI runs."""

    def write(name: str) -> str:
        path = tmp_path / (name + ".graph")
        path.write_text(FIXTURE_TEXTS[name], encoding="utf-8")
        return str(path)

    return write
