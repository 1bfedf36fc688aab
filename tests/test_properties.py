"""Property tests: the library's routines against the oracles on graphs that
hypothesis draws. Runs are derandomized and keep no example database, so
every run checks the same graphs."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from leavitt import Edge, Graph, is_simple

import oracles


@st.composite
def graphs(draw):
    """One to six vertices in any declaration order and up to ten edges,
    loops and parallel edges included."""
    names = ["v%d" % i for i in range(draw(st.integers(1, 6)))]
    ends = draw(
        st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=10)
    )
    edges = [Edge("e%d" % i, s, r) for i, (s, r) in enumerate(ends)]
    return Graph(draw(st.permutations(names)), edges)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(graphs())
def test_is_simple_matches_the_per_vertex_oracle(g):
    assert is_simple(g) == oracles.is_simple(g)
