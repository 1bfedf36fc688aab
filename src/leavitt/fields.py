"""Scalar fields for exact computation.

Two families are supported: the rationals (arbitrary precision) and the
prime fields GF(p). A rational scalar is a plain ``int`` while it is
integral, and a ``fractions.Fraction`` once a denominator enters it
(``from_pair``, ``parse``, or arithmetic with a Fraction); the two agree on
``==``, ``hash`` and ``str``, so which one a coefficient is never shows. A
GF(p) scalar is a ``GFElement``, the tuple (value, p). Every coefficient
that enters an algebra element goes through one of these, so arithmetic is
exact everywhere; no library code divides two coefficients, and no floats
appear anywhere in the package.

A field object knows how to build its scalars from ints, from numerator /
denominator pairs, and from source text, and how to render them back to
text. Field selectors as used by the command line are ``q`` for the
rationals and ``gf:p`` for GF(p) with p prime.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class FieldError(ValueError):
    """A scalar could not be built: bad selector, bad text, or division by zero."""


# The first thirteen primes as Miller-Rabin bases decide primality exactly
# below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3,317,044,064,679,887,385,961,981.

    Larger n raise FieldError: the fixed bases no longer decide them.
    """
    if n >= _MR_BOUND:
        raise FieldError(
            "cannot decide whether %d is prime: it exceeds %d" % (n, _MR_BOUND)
        )
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _GFParts(NamedTuple):
    value: int
    p: int


class GFElement(_GFParts):
    """An element of GF(p), stored as the canonical representative in [0, p).

    An element is the immutable tuple (value, p) with named fields, like
    Path, so it hashes and compares in C, as that tuple, and carries no
    per-instance dictionary. The constructor reduces its value modulo p;
    arithmetic builds its results already reduced.
    """

    __slots__ = ()

    def __new__(cls, value: int, p: int) -> "GFElement":
        return tuple.__new__(cls, (value % p, p))

    @classmethod
    def _make(cls, iterable) -> "GFElement":
        # NamedTuple's _make, and _replace through it, would skip __new__.
        return cls(*iterable)

    def _foreign(self, other):
        """The answer of an operator whose other operand is not a scalar of
        this GF(p): NotImplemented for one that is no GF scalar at all, whose
        reflected operator Python then tries (an algebra element scales
        itself), and a FieldError for a scalar of another GF(q)."""
        if isinstance(other, GFElement):
            raise FieldError("mixed scalars from different fields")
        return NotImplemented

    # Each operator tests its operand inline: these run once per term that a
    # normalization touches.

    def __add__(self, other: "GFElement") -> "GFElement":
        a, p = self
        if not isinstance(other, GFElement) or other[1] != p:
            return self._foreign(other)
        a += other[0]
        return tuple.__new__(GFElement, (a - p if a >= p else a, p))

    def __sub__(self, other: "GFElement") -> "GFElement":
        a, p = self
        if not isinstance(other, GFElement) or other[1] != p:
            return self._foreign(other)
        a -= other[0]
        return tuple.__new__(GFElement, (a + p if a < 0 else a, p))

    def __mul__(self, other: "GFElement") -> "GFElement":
        a, p = self
        if not isinstance(other, GFElement) or other[1] != p:
            return self._foreign(other)
        return tuple.__new__(GFElement, (a * other[0] % p, p))

    # Not tuple repetition: an int times a GF(p) scalar is no operation.
    __rmul__ = __mul__

    def __truediv__(self, other: "GFElement") -> "GFElement":
        a, p = self
        if not isinstance(other, GFElement) or other[1] != p:
            return self._foreign(other)
        if not other[0]:
            raise FieldError("division by zero in GF(%d)" % p)
        # Fermat inverse; p is prime.
        return tuple.__new__(GFElement, (a * pow(other[0], p - 2, p) % p, p))

    def __neg__(self) -> "GFElement":
        a, p = self
        return tuple.__new__(GFElement, (p - a if a else 0, p))

    def __bool__(self) -> bool:
        return self[0] != 0

    def __str__(self) -> str:
        return str(self[0])


class RationalField:
    """The field of rational numbers: a scalar is an ``int`` while it is
    integral and a ``Fraction`` once a denominator has entered it."""

    name = "q"

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return int(n)

    def from_pair(self, num: int, den: int) -> Fraction:
        if den == 0:
            raise FieldError("denominator is zero")
        return Fraction(num, den)

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError("bad rational %r" % text) from exc

    def coerce(self, value) -> int | Fraction:
        # The int test comes first: it is cheap, while a miss against
        # Fraction goes through the numbers ABCs.
        if isinstance(value, int):
            # int(True) is 1: a bool enters as the int it stands for.
            return int(value)
        if isinstance(value, Fraction):
            return value
        raise FieldError("cannot coerce %r into the rationals" % (value,))

    def render(self, value: int | Fraction) -> str:
        try:
            return str(value)
        except ValueError:
            # Python caps decimal conversion at sys.get_int_max_str_digits().
            raise FieldError("rational scalar too long to print") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash(RationalField)

    def __repr__(self) -> str:
        return "RationalField()"


class PrimeField:
    """GF(p) for prime p, scalars are ``GFElement``."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError("GF modulus must be prime, got %d" % p)
        self.p = p
        self.name = "gf:%d" % p

    def zero(self) -> GFElement:
        return GFElement(0, self.p)

    def one(self) -> GFElement:
        return GFElement(1, self.p)

    def from_int(self, n: int) -> GFElement:
        return GFElement(n, self.p)

    def from_pair(self, num: int, den: int) -> GFElement:
        return GFElement(num, self.p) / GFElement(den, self.p)

    def parse(self, text: str) -> GFElement:
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return self.from_pair(int(num), int(den))
            return GFElement(int(text), self.p)
        except ValueError as exc:
            raise FieldError("bad GF(%d) scalar %r" % (self.p, text)) from exc

    def coerce(self, value) -> GFElement:
        if isinstance(value, GFElement):
            if value.p != self.p:
                raise FieldError("scalar from GF(%d) used in GF(%d)" % (value.p, self.p))
            return value
        if isinstance(value, int):
            return GFElement(value, self.p)
        raise FieldError("cannot coerce %r into GF(%d)" % (value, self.p))

    def render(self, value: GFElement) -> str:
        return str(value.value)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash((PrimeField, self.p))

    def __repr__(self) -> str:
        return "PrimeField(%d)" % self.p


QQ = RationalField()


def field_from_selector(text: str):
    """Build a field from a selector string: ``q`` or ``gf:p``."""
    sel = text.strip().lower()
    if sel == "q":
        return QQ
    if sel.startswith("gf:"):
        body = sel[3:]
        try:
            p = int(body)
        except ValueError as exc:
            raise FieldError("bad field selector %r" % text) from exc
        return PrimeField(p)
    raise FieldError("unknown field selector %r (expected 'q' or 'gf:p')" % text)
