"""End-to-end acceptance checks.

Each test covers one advertised guarantee and prints a single
``ACCEPTANCE <n> <label>: PASS`` or ``FAIL`` line straight to the
terminal, bypassing capture, so a test run doubles as a checklist.
"""

import functools
import random
import sys
from itertools import islice

from leavitt import (
    LeavittAlgebra,
    Monomial,
    QQ,
    ScalarVertex,
    is_acyclic,
    is_simple,
    left_ideal_sum_membership,
    line_points,
    matrix_rep,
    nondegeneracy_witness,
    paths_from_by_length,
    reduce,
    socle_equals_algebra,
    socle_is_nonzero,
    socle_structure,
    verify_witness,
    vertex_ideal_minimal,
)
from leavitt.sampling import (
    line_graph,
    random_element,
    random_graph,
    random_nonzero_element,
    random_raw_terms,
    rose_with_tail,
)

import oracles


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("ACCEPTANCE %2d %s: FAIL" % (number, label), file=sys.__stdout__)
                raise
            print("ACCEPTANCE %2d %s: PASS" % (number, label), file=sys.__stdout__)

        return wrapper

    return deco


@criterion(1, "defining-relations")
def test_defining_relations(algebras):
    for algebra in algebras.values():
        report = algebra.check_relations()
        assert report.passed and report.failures == ()
    rng = random.Random(1001)
    for _ in range(200):
        report = LeavittAlgebra(random_graph(rng), QQ).check_relations()
        assert report.passed and report.failures == ()


@criterion(2, "wedge-socle")
def test_wedge_socle(graphs, algebras):
    assert socle_structure(graphs["W"]).summands == (2, 2)
    assert socle_equals_algebra(graphs["W"])
    assert not left_ideal_sum_membership(algebras["W"].ghost("e"), {"v", "w"})


def _irreducible_monomial_count(algebra):
    g = algebra.graph
    paths = [
        p
        for v in g.vertices
        for layer in paths_from_by_length(g, v, len(g.vertices))
        for p in layer
    ]
    one = algebra.field.one()
    count = 0
    for p in paths:
        for q in paths:
            if p.range != q.range:
                continue
            if algebra.monomial(p, q).items() == ((Monomial(p, q), one),):
                count += 1
    return count


@criterion(3, "line-graph-matrices")
def test_line_graph_matrices():
    for n in range(1, 7):
        g = line_graph(n)
        assert socle_structure(g).summands == (n,)
        assert _irreducible_monomial_count(LeavittAlgebra(g, QQ)) == n * n


@criterion(4, "rose-with-tail-socle-vanishes")
def test_rose_with_tail_socle_vanishes():
    for m in range(1, 4):
        for n in range(1, 4):
            g = rose_with_tail(m, n)
            assert line_points(g) == ()
            assert not socle_is_nonzero(g)


@criterion(5, "toeplitz-corner")
def test_toeplitz_corner(graphs, algebras):
    assert not vertex_ideal_minimal(graphs["T"], "u")
    g = graphs["T"]
    basis = algebras["T"].corner_basis("v", 4)
    trivial = Monomial(g.trivial_path("v"), g.trivial_path("v"))
    assert trivial in basis
    assert len(basis) > 1


@criterion(6, "minimality-corner-criterion")
def test_minimality_corner_criterion():
    rng = random.Random(1006)
    for _ in range(300):
        g = random_graph(rng)
        algebra = LeavittAlgebra(g, QQ)
        bound = 2 * len(g.vertices)
        for u in g.vertices:
            beyond = next(islice(algebra.iter_corner_monomials(u, bound), 1, 2), None)
            assert vertex_ideal_minimal(g, u) == (beyond is None)


@criterion(7, "reduction-witnesses")
def test_reduction_witnesses(algebras):
    rng = random.Random(1007)
    for name, algebra in algebras.items():
        for _ in range(500):
            x = random_nonzero_element(rng, algebra)
            wit = reduce(x)
            assert verify_witness(x, wit)
            if name in ("L3", "W", "R2"):
                assert isinstance(wit.outcome, ScalarVertex)


@criterion(8, "nondegeneracy-certificates")
def test_nondegeneracy_certificates(algebras):
    rng = random.Random(1008)
    for algebra in algebras.values():
        for _ in range(500):
            x = random_nonzero_element(rng, algebra)
            a = nondegeneracy_witness(x)
            assert not (x * a * x).is_zero


@criterion(9, "socle-sink-criterion")
def test_socle_sink_criterion():
    rng = random.Random(1009)
    for _ in range(500):
        g = random_graph(rng)
        assert socle_is_nonzero(g) == bool(g.sinks())


@criterion(10, "hedgehog-acyclicity")
def test_hedgehog_acyclicity():
    rng = random.Random(1009)
    for _ in range(500):
        g = random_graph(rng)
        if not line_points(g):
            continue
        for depth in (None, 0, 1, 2):
            report = socle_structure(g, depth)
            assert report.hedgehog is not None
            assert is_acyclic(report.hedgehog.graph)


@criterion(11, "simplicity-decisions")
def test_simplicity_decisions(graphs):
    assert is_simple(graphs["R2"])
    assert not is_simple(graphs["W"])
    assert not is_simple(graphs["T"])


@criterion(12, "matrix-representation")
def test_matrix_representation(algebras):
    rng = random.Random(1012)
    for name in ("L3", "W"):
        algebra = algebras[name]
        for _ in range(500):
            x = random_element(rng, algebra)
            y = random_element(rng, algebra)
            rx, ry = matrix_rep(x), matrix_rep(y)
            assert matrix_rep(x + y) == rx + ry
            assert matrix_rep(x * y) == rx * ry
            assert rx.is_zero == x.is_zero


@criterion(13, "normalization-confluence")
def test_normalization_confluence(algebras):
    rng = random.Random(1013)
    for algebra in algebras.values():
        for _ in range(1000):
            pairs = random_raw_terms(rng, algebra)
            picker = random.Random(rng.randrange(1 << 30))

            def pick(monos, key):
                return picker.choice(sorted(monos, key=key))

            ordered = algebra.normal_form(pairs)
            scrambled, _ = oracles.normal_form_steps(algebra, pairs, pick)
            assert ordered == scrambled
