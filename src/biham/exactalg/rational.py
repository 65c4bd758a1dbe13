"""Exact rational scalars.

The scalar field for everything in this package is the stdlib
:class:`fractions.Fraction`: arbitrary-precision numerator, positive
denominator, always stored in lowest terms.  This module only adds the
string conventions used by the JSON interchange formats: a rational is an
integer or "p/q", and ``rat_str`` is the one formatter.  ``parse_int``
reads the integer form, an optional sign and ASCII digits, and is the one
reader of integers given as text.
"""

import re
from fractions import Fraction

from ..errors import ValidationError

Rational = Fraction

_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def rat(value) -> Fraction:
    """Coerce ints, integer or "p/q" strings and Fractions to an exact rational.

    Only those two string forms are read: exponent and decimal notation
    are refused (``Fraction("1e99999999")`` would build the power), and
    so is a bool.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _LITERAL.fullmatch(value.strip()):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:   # too many digits, or p/0
            raise ValidationError(f"bad rational literal {value!r}") from exc
    raise ValidationError(f"cannot interpret {value!r} as a rational")


def parse_int(text: str) -> int:
    """The int an optional sign and ASCII digits spell; ``int`` alone would
    also read digit separators (``1_0``) and non-ASCII digits."""
    text = text.strip()
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:          # more digits than int converts
            pass
    raise ValidationError(f"{text!r} is not an integer")


def rat_str(value: Fraction) -> str:
    """Canonical "p/q" form (plain integer when the denominator is 1)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
