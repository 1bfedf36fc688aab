from fractions import Fraction

import pytest

from leavitt import ExprParseError, LeavittAlgebra, PrimeField, parse_element


def test_names_resolve_to_vertices_and_edges(algebras):
    W = algebras["W"]
    assert parse_element(W, "v") == W.vertex("v")
    assert parse_element(W, "e") == W.edge("e")
    assert parse_element(W, "e^*") == W.ghost("e")
    assert parse_element(W, "v^*") == W.vertex("v")


def test_sums_differences_and_unary_minus(algebras):
    W = algebras["W"]
    assert parse_element(W, "v + z - v") == W.vertex("z")
    assert parse_element(W, "-v + v") == W.zero()
    assert parse_element(W, "−v + v") == W.zero()


def test_scalars(algebras):
    W = algebras["W"]
    assert parse_element(W, "2*v") == W.vertex("v") + W.vertex("v")
    assert parse_element(W, "2 v") == parse_element(W, "2*v")
    assert parse_element(W, "1/2*v") == W.vertex("v") * Fraction(1, 2)
    assert parse_element(W, "0") == W.zero()
    assert parse_element(W, "2") == W.one() + W.one()
    assert parse_element(W, "3/3") == W.one()


def test_juxtaposition_and_explicit_star_multiply(algebras):
    W = algebras["W"]
    ef = W.edge("e") * W.ghost("f")
    assert parse_element(W, "e f^*") == ef
    assert parse_element(W, "e * f^*") == ef
    assert parse_element(W, "e^* e") == W.vertex("v")
    assert parse_element(W, "e^* f") == W.zero()


def test_parentheses_and_involution(algebras):
    W = algebras["W"]
    assert parse_element(W, "e^* * (v + w)") == W.zero()
    assert parse_element(W, "(e)^*") == W.ghost("e")
    assert parse_element(W, "(e f^*)^*") == W.edge("f") * W.ghost("e")
    assert parse_element(W, "(v + 2*e)^*") == W.vertex("v") + 2 * W.ghost("e")


def test_normalization_happens_at_parse_time(algebras):
    W = algebras["W"]
    assert parse_element(W, "e e^*") == parse_element(W, "z - f f^*")
    T = algebras["T"]
    assert parse_element(T, "f f^*") == T.vertex("v")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "nope",
        "v +",
        "(v",
        "v)",
        "e ^",
        "2*",
        "2*3",
        "v / w",
        "1/0*v",
        "@",
    ],
)
def test_parse_errors(algebras, text):
    with pytest.raises(ExprParseError):
        parse_element(algebras["W"], text)


def test_parse_errors_carry_positions(algebras):
    with pytest.raises(ExprParseError) as info:
        parse_element(algebras["W"], "v + nope")
    assert "position 5" in str(info.value)
    with pytest.raises(ExprParseError) as info:
        parse_element(algebras["W"], "v @")
    assert "position 3" in str(info.value)
    for text, message in (
        ("(v 2)", "expected ')', got '2' (at position 4)"),
        ("1/e", "expected an integer denominator (at position 3)"),
    ):
        with pytest.raises(ExprParseError) as info:
            parse_element(algebras["W"], text)
        assert str(info.value) == message


def test_scalars_obey_the_field(graphs):
    gf3 = LeavittAlgebra(graphs["W"], PrimeField(3))
    assert parse_element(gf3, "3*v") == gf3.zero()
    assert parse_element(gf3, "1/2*v") == parse_element(gf3, "2*v")
    gf2 = LeavittAlgebra(graphs["W"], PrimeField(2))
    with pytest.raises(ExprParseError):
        parse_element(gf2, "1/2*v")


def test_nesting_depth_is_capped(graphs):
    algebra = LeavittAlgebra(graphs["L3"])
    assert str(parse_element(algebra, "(" * 50 + "v1" + ")" * 50)) == "1*v1"
    with pytest.raises(ExprParseError) as info:
        parse_element(algebra, "(" * 3000 + "v1" + ")" * 3000)
    assert "nested" in str(info.value)
