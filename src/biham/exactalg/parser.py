"""Text grammar for polynomial and rational-function coefficients.

Accepted tokens: integers, variable names ``[A-Za-z_][A-Za-z0-9_]*``,
operators ``+ - * / ^`` and parentheses; whitespace is insignificant.
Rational literals like ``3/4`` are just division, so ``poly/poly`` strings
parse to rational functions with the same grammar.

Input limits: an exponent is at most ``MAX_EXPONENT``, checked before the
power is computed, and parentheses and unary minus signs nest at most
``MAX_DEPTH`` deep, well inside the interpreter's recursion limit.  Before
each product, quotient, power step or sum over unequal denominators the
parser bounds the terms of the result by the product of the operands'
term counts (the larger of numerator and denominator each); a bound above
``MAX_TERMS`` stops the parse, so a short input such as a power of a long
sum cannot expand into millions of terms.  Input beyond any limit raises
``ValidationError``.

``load_json`` is the one reader of JSON input text (structures, families,
chains, pencils, reports), with the same contract: malformed or too deeply
nested text raises ``ValidationError``.
"""

import json
import re
from fractions import Fraction

from ..errors import ValidationError
from .poly import Poly, RationalFunction

MAX_EXPONENT = 64
MAX_DEPTH = 64
MAX_TERMS = 10000

# a variable name: the name token below, and what a structure file may declare
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"\s*(?:(\d+)|({NAME.pattern})|([()+\-*/^]))")


def load_json(text: str):
    """json.loads with every malformed text reported as a ValidationError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"JSON syntax error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except RecursionError as exc:
        raise ValidationError("JSON nested too deeply") from exc


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.i = 0

    def _location(self, pos: int) -> str:
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return f"line {line}, column {col}"

    def _scan(self):
        pos = 0
        while pos < len(self.text):
            m = _TOKEN.match(self.text, pos)
            if not m:
                if self.text[pos:].strip() == "":
                    break
                raise ValidationError(
                    f"unexpected character {self.text[pos:].strip()[0]!r} at {self._location(pos)}")
            if m.group(1):
                try:
                    value = int(m.group(1))
                except ValueError as exc:   # more digits than int() converts
                    raise ValidationError(
                        f"integer literal too long at {self._location(m.start(1))}") from exc
                self.tokens.append(("int", value, m.start(1)))
            elif m.group(2):
                self.tokens.append(("name", m.group(2), m.start(2)))
            else:
                self.tokens.append(("op", m.group(3), m.start(3)))
            pos = m.end()

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("end", None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def error(self, msg: str, tok):
        raise ValidationError(f"{msg} at {self._location(tok[2])}")


class _Parser:
    def __init__(self, text: str, variables):
        self.lex = _Lexer(text)
        self.variables = tuple(variables)
        self.depth = 0

    def _descend(self, tok):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.lex.error(f"expression nested deeper than {MAX_DEPTH} levels", tok)

    def _bound(self, left, right, tok):
        """Refuse a product of left and right that could exceed MAX_TERMS terms."""
        size = (max(len(left.num.terms), len(left.den.terms))
                * max(len(right.num.terms), len(right.den.terms)))
        if size > MAX_TERMS:
            self.lex.error(f"expression may expand to {size} terms, "
                           f"more than the maximum {MAX_TERMS}", tok)

    def parse(self) -> RationalFunction:
        value = self.expr()
        tok = self.lex.peek()
        if tok[0] != "end":
            self.lex.error(f"trailing input {tok[1]!r}", tok)
        return value

    def expr(self) -> RationalFunction:
        value = self.term()
        while True:
            tok = self.lex.peek()
            if tok[:2] not in (("op", "+"), ("op", "-")):
                return value
            self.lex.next()
            other = self.term()
            if value.den != other.den:
                self._bound(value, other, tok)
            value = value + other if tok[1] == "+" else value - other

    def term(self) -> RationalFunction:
        value = self.unary()
        while True:
            tok = self.lex.peek()
            if tok[:2] == ("op", "*"):
                self.lex.next()
                factor = self.unary()
                self._bound(value, factor, tok)
                value = value * factor
            elif tok[:2] == ("op", "/"):
                self.lex.next()
                divisor = self.unary()
                if divisor.is_zero():
                    self.lex.error("division by zero", tok)
                self._bound(value, divisor, tok)
                value = value / divisor
            else:
                return value

    def unary(self) -> RationalFunction:
        tok = self.lex.peek()
        if tok[:2] == ("op", "-"):
            self.lex.next()
            self._descend(tok)
            value = -self.unary()
            self.depth -= 1
            return value
        return self.power()

    def power(self) -> RationalFunction:
        base = self.atom()
        tok = self.lex.peek()
        if tok[:2] == ("op", "^"):
            self.lex.next()
            etok = self.lex.next()
            if etok[0] != "int":
                self.lex.error("exponent must be a nonnegative integer", etok)
            n = etok[1]
            if n > MAX_EXPONENT:
                self.lex.error(f"exponent {n} exceeds the maximum {MAX_EXPONENT}", etok)
            out = RationalFunction.constant(1, self.variables)
            for _ in range(n):
                self._bound(out, base, tok)
                out = out * base
            return out
        return base

    def atom(self) -> RationalFunction:
        tok = self.lex.next()
        if tok[0] == "int":
            return RationalFunction.constant(Fraction(tok[1]), self.variables)
        if tok[0] == "name":
            if tok[1] not in self.variables:
                self.lex.error(f"unknown variable {tok[1]!r}", tok)
            return RationalFunction.from_poly(Poly.variable(tok[1], self.variables))
        if tok[:2] == ("op", "("):
            self._descend(tok)
            value = self.expr()
            closing = self.lex.next()
            if closing[:2] != ("op", ")"):
                self.lex.error("expected ')'", closing)
            self.depth -= 1
            return value
        self.lex.error(f"unexpected token {tok[1]!r}", tok)


def parse_rational(text: str, variables) -> RationalFunction:
    """Parse text to a rational function over the declared variables."""
    if not isinstance(text, str) or not text.strip():
        raise ValidationError("empty coefficient expression")
    return _Parser(text, variables).parse()


def parse_poly(text: str, variables) -> Poly:
    """Parse text that must denote a polynomial (constant denominator)."""
    value = parse_rational(text, variables)
    if not value.is_polynomial():
        raise ValidationError(f"expected a polynomial, got denominator {value.den}")
    return value.as_poly()
