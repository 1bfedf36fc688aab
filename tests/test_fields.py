import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import leavitt
from leavitt import (
    FieldError,
    GFElement,
    PrimeField,
    QQ,
    RationalField,
    field_from_selector,
    is_prime,
)


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert all(is_prime(n) == _trial_division(n) for n in range(10**5))


def test_is_prime_on_large_numbers():
    assert is_prime(2**61 - 1)
    assert not is_prime(3215031751)  # a strong pseudoprime to bases 2, 3, 5, 7
    with pytest.raises(FieldError):
        is_prime(2**89 - 1)
    with pytest.raises(FieldError):
        field_from_selector("gf:%d" % (2**89 - 1))


def test_is_prime_small_values():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(97)
    assert not is_prime(91)


def test_rational_construction_and_rendering():
    assert QQ.zero() == Fraction(0)
    assert QQ.one() == Fraction(1)
    assert QQ.from_int(-7) == Fraction(-7)
    assert QQ.from_pair(6, 4) == Fraction(3, 2)
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-2") == Fraction(-2)
    assert QQ.render(Fraction(-3, 2)) == "-3/2"
    assert QQ.coerce(5) == Fraction(5)
    assert QQ.coerce(Fraction(1, 3)) == Fraction(1, 3)


def test_rational_rejects_bad_input():
    with pytest.raises(FieldError):
        QQ.from_pair(1, 0)
    with pytest.raises(FieldError):
        QQ.parse("1/0")
    with pytest.raises(FieldError):
        QQ.parse("pi")
    with pytest.raises(FieldError):
        QQ.coerce(0.5)


def test_gf_arithmetic():
    F = PrimeField(7)
    three, five = F.from_int(3), F.from_int(5)
    assert (three + five).value == 1
    assert (three * five).value == 1
    assert (three - five).value == 5
    assert (F.one() / three).value == 5
    assert (-three).value == 4
    assert not F.zero()
    assert F.from_int(14) == F.zero()
    assert F.parse("3/5") == F.from_int(3) / F.from_int(5)
    assert F.render(F.from_int(12)) == "5"


def test_gf_two_has_characteristic_two():
    F = PrimeField(2)
    assert F.one() + F.one() == F.zero()


def test_gf_rejects_bad_input():
    with pytest.raises(FieldError):
        PrimeField(6)
    with pytest.raises(FieldError):
        PrimeField(1)
    F = PrimeField(5)
    with pytest.raises(FieldError):
        F.one() / F.zero()
    with pytest.raises(FieldError):
        F.parse("x")
    with pytest.raises(FieldError):
        F.coerce(GFElement(1, 3))
    with pytest.raises(FieldError, match=r"^cannot coerce 1\.5 into GF\(5\)$"):
        F.coerce(1.5)
    with pytest.raises(FieldError):
        GFElement(1, 5) + GFElement(1, 7)


def test_field_equality_and_names():
    assert RationalField() == QQ
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert QQ.name == "q"
    assert PrimeField(11).name == "gf:11"


def test_selector_parsing():
    assert field_from_selector("q") is QQ
    assert field_from_selector(" Q ") is QQ
    assert field_from_selector("gf:7") == PrimeField(7)
    for bad in ("gf:6", "gf:", "gf:x", "r", ""):
        with pytest.raises(FieldError):
            field_from_selector(bad)


def test_rational_scalars_stay_ints_while_integral():
    for value in (QQ.zero(), QQ.one(), QQ.from_int(-7), QQ.coerce(5), QQ.coerce(True)):
        assert type(value) is int
    assert QQ.coerce(True) == 1 and QQ.coerce(False) == 0
    for value in (QQ.from_pair(6, 2), QQ.parse("3"), QQ.coerce(Fraction(6, 2))):
        assert type(value) is Fraction and value == 3
    assert type(QQ.one() + QQ.from_pair(1, 2)) is Fraction
    assert QQ.render(QQ.from_int(-3)) == QQ.render(Fraction(-3)) == "-3"


def test_gf_elements_are_immutable_values():
    """The mirror of the Path and Monomial property: a GF(p) scalar is the
    tuple (value, p), immutable, and survives copies and every pickle
    protocol with its hash and repr."""
    for p in (2, 5, 7, 2**61 - 1):
        F = PrimeField(p)
        for n in (0, 1, -1, 3, p + 4, -p - 2):
            x = F.from_int(n)
            assert type(x) is GFElement and x == (n % p, p) and 0 <= x.value < p
            assert GFElement._make((n, p)) == x == F.one()._replace(value=n)
            assert hash(x) == hash((n % p, p))
            assert repr(x) == "GFElement(value=%d, p=%d)" % (n % p, p)
            assert not hasattr(x, "__dict__")
            for name in ("value", "p", "other"):
                with pytest.raises(AttributeError):
                    setattr(x, name, 1)
                with pytest.raises(AttributeError):
                    delattr(x, name)
            copies = [copy.copy(x), copy.deepcopy(x)] + [
                pickle.loads(pickle.dumps(x, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
            ]
            for c in copies:
                assert type(c) is GFElement and c == x
                assert hash(c) == hash(x) and repr(c) == repr(x)


def test_gf_arithmetic_lands_reduced():
    for p in (2, 3, 7, 101):
        F = PrimeField(p)
        values = range(-2, p + 2)
        for a in values:
            for b in values:
                x, y = F.from_int(a), F.from_int(b)
                assert x + y == F.from_int(a + b)
                assert x - y == F.from_int(a - b)
                assert x * y == F.from_int(a * b)
                assert -x == F.from_int(-a)
                assert bool(x) == (a % p != 0)
                if b % p:
                    assert (x / y) * y == x
    with pytest.raises(TypeError):
        3 * PrimeField(5).one()
    with pytest.raises(TypeError):
        PrimeField(5).one() * 3


def test_no_library_code_divides_coefficients():
    """int / int is a float, so no library code may divide two rational
    coefficients: the one true division is GF(p)'s from_pair, between two
    GF(p) scalars it builds itself."""
    package = Path(leavitt.__file__).parent
    divisions = []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                divisions.append((source.name, ast.unparse(node)))
    assert divisions == [("fields.py", "GFElement(num, self.p) / GFElement(den, self.p)")]
