"""Exact rational scalars.

The scalar field for everything in this package is the stdlib
:class:`fractions.Fraction`: arbitrary-precision numerator, positive
denominator, always stored in lowest terms.  This module only adds the
string conventions used by the JSON interchange formats: a rational is an
integer or "p/q", and ``rat_str`` is the one formatter.
"""

import re
from fractions import Fraction

from ..errors import ValidationError

Rational = Fraction

_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


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


def rat_str(value: Fraction) -> str:
    """Canonical "p/q" form (plain integer when the denominator is 1)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
