"""Parsing of element expressions written against a graph's names.

The accepted grammar, with juxtaposition meaning multiplication:

    expr    := ['-'] term (('+' | '-') term)*
    term    := scalar ['*' factor] factor* | factor ['*' factor | factor]*
    factor  := NAME ['^*'] | '(' expr ')' ['^*']
    scalar  := INT ['/' INT]

A NAME resolves to a vertex or an edge; the shared namespace makes the
lookup unambiguous. ``^*`` applies the involution: on an edge it gives the
ghost edge, on a vertex it does nothing, on a parenthesized expression it
reverses every monomial. A scalar with no following factor multiplies the
identity, so ``0`` and ``2`` are valid expressions. The minus sign may be
written as ``-`` or U+2212. Scalars are parsed by the algebra's field, so
``1/2`` works over the rationals and over GF(p) when 2 is invertible.
Parentheses nest at most 200 deep; deeper input is an ExprParseError.
"""

from __future__ import annotations

import re

from .algebra import Element, LeavittAlgebra
from .fields import FieldError


class ExprParseError(ValueError):
    """An element expression could not be parsed."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = "%s (at position %d)" % (message, pos + 1)
        super().__init__(message)
        self.pos = pos


# The parser recurses three frames per parenthesis, so nesting is capped
# well inside Python's default recursion limit of 1000.
_MAX_NESTING = 200

_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z_]\w*)|(?P<int>\d+)|(?P<star>\^\*)|(?P<op>[-+*/()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    text = text.replace("−", "-")
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ExprParseError("unexpected character %r" % text[i], i)
        kind = m.lastgroup
        value = m.group()
        tokens.append((kind, value, i))
        i = m.end()
    return tokens


class _Parser:
    def __init__(self, algebra: LeavittAlgebra, tokens: list[tuple[str, str, int]], text: str):
        self.algebra = algebra
        self.tokens = tokens
        self.text = text
        self.at = 0
        self.depth = 0

    def _peek(self) -> tuple[str, str, int] | None:
        if self.at < len(self.tokens):
            return self.tokens[self.at]
        return None

    def _take(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise ExprParseError("unexpected end of expression", len(self.text))
        self.at += 1
        return tok

    def _take_if(self, values: str, kind: str = "op") -> tuple[str, str, int] | None:
        """Take the next token when it is of the kind and one of the values."""
        tok = self._peek()
        if tok is not None and tok[0] == kind and tok[1] in values:
            self.at += 1
            return tok
        return None

    def _take_op(self, op: str) -> tuple[str, str, int]:
        tok = self._take()
        if tok[0] != "op" or tok[1] != op:
            raise ExprParseError("expected %r, got %r" % (op, tok[1]), tok[2])
        return tok

    def expect_end(self) -> None:
        tok = self._peek()
        if tok is not None:
            raise ExprParseError("unexpected %r" % tok[1], tok[2])

    def parse_expr(self) -> Element:
        negate = self._take_if("-") is not None
        total = self.parse_term()
        if negate:
            total = -total
        while (tok := self._take_if("+-")) is not None:
            term = self.parse_term()
            total = total + term if tok[1] == "+" else total - term
        return total

    def _at_factor(self) -> bool:
        tok = self._peek()
        return tok is not None and (
            tok[0] == "name" or (tok[0] == "op" and tok[1] == "(")
        )

    def _skip_times(self) -> None:
        """Take an optional '*', which must be followed by a factor."""
        tok = self._take_if("*")
        if tok is not None and not self._at_factor():
            raise ExprParseError("expected a name or '(' after '*'", tok[2])

    def parse_term(self) -> Element:
        coeff = None
        tok = self._peek()
        if tok is not None and tok[0] == "int":
            coeff = self.parse_scalar()
            self._skip_times()
        result = None
        while self._at_factor():
            factor = self.parse_factor()
            result = factor if result is None else result * factor
            self._skip_times()
        if result is None and coeff is None:
            tok = self._peek()
            pos = tok[2] if tok else len(self.text)
            got = repr(tok[1]) if tok else "end of expression"
            raise ExprParseError("expected a term, got %s" % got, pos)
        if result is None:
            result = self.algebra.one()
        return result if coeff is None else result._scaled(coeff)

    def parse_factor(self) -> Element:
        tok = self._take()
        if tok[0] == "name":
            base = self._resolve(tok[1], tok[2])
        elif tok[0] == "op" and tok[1] == "(":
            if self.depth == _MAX_NESTING:
                raise ExprParseError(
                    "parentheses nested more than %d deep" % _MAX_NESTING, tok[2]
                )
            self.depth += 1
            base = self.parse_expr()
            self._take_op(")")
            self.depth -= 1
        else:
            raise ExprParseError("expected a name or '(', got %r" % tok[1], tok[2])
        return base.involution() if self._take_if("^*", "star") else base

    def _resolve(self, name: str, pos: int) -> Element:
        graph = self.algebra.graph
        if graph.has_vertex(name):
            return self.algebra.vertex(name)
        if graph.has_edge(name):
            return self.algebra.edge(name)
        raise ExprParseError("unknown name %r" % name, pos)

    def _int(self, tok: tuple[str, str, int]) -> int:
        try:
            return int(tok[1])
        except ValueError:
            # Python caps decimal conversion at sys.get_int_max_str_digits().
            raise ExprParseError(
                "integer of %d digits is too long" % len(tok[1]), tok[2]
            ) from None

    def parse_scalar(self):
        tok = self._take()
        num = self._int(tok)
        pos = tok[2]
        if self._take_if("/") is not None:
            den_tok = self._take()
            if den_tok[0] != "int":
                raise ExprParseError("expected an integer denominator", den_tok[2])
            try:
                return self.algebra.field.from_pair(num, self._int(den_tok))
            except FieldError as exc:
                raise ExprParseError(str(exc), pos) from exc
        return self.algebra.field.from_int(num)


def parse_element(algebra: LeavittAlgebra, text: str) -> Element:
    """Parse an expression into a normal-form element of the algebra."""
    parser = _Parser(algebra, _tokenize(text), text)
    result = parser.parse_expr()
    parser.expect_end()
    return result
