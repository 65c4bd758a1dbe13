"""Exact values at one rational point, on integers.

A ``PointEvaluator`` scales its point once to integers X over a common
denominator D and keeps the powers of each X_i and of D, grown on demand.
Its evaluation is ``row``: the functions of one or more ``RowForm``s at the
point, returned as ``clear_denominators`` returns their values (the ints and
their scale), with no ``Fraction`` per entry.  A ``RowForm`` is built once,
independent of any point.  A row of polynomials holds every numerator over
one coefficient lcm L and one top degree T, each term of degree |e| lifted
by D^(T - |e|), so that

    f_i(X / D) = S_i / (L D^T),    S_i = sum c_e X^e D^(T - |e|),

and the row's ints are S_i / gcd(L D^T, S_1, ..., S_m): one integer sum per
entry and one gcd per row.  A row with a rational entry keeps one
``IntegerForm`` per entry: a numerator and a denominator as integer
polynomials, each evaluated the same way to an integer pair, and a
vanishing denominator raises ``PoleAtPoint`` at the first such entry.
``PointEvaluator.value`` reads one ``IntegerForm`` as a ``Fraction``, for
the rational bivector (``PoissonStructure.bivector_at``); ``Poly.eval``
stays the generic evaluator (one polynomial at a point, on Fractions) and
the oracle.
"""

from fractions import Fraction
from itertools import compress, islice
from math import gcd, lcm

from ..errors import PoleAtPoint
from .matrix import clear_denominators


def _integer_polys(polys) -> tuple:
    """(L, T, degrees, [[(c_e, T - |e|, ((i, e_i) for e_i > 0))] per poly]) over one
    coefficient lcm L and top degree T; ``degrees`` are the highest powers of D
    (-1) and of each x_i that the terms read."""
    exponents = [e for p in polys for e in p.terms]
    ints, den = clear_denominators([c for p in polys for c in p.terms.values()])
    sizes = [sum(e) for e in exponents]
    top = max(sizes, default=0)
    degrees = ((-1, top), *((i, k) for i, k in enumerate(map(max, zip(*exponents))) if k))
    terms = iter([(c, top - size, tuple(compress(enumerate(e), e)))
                  for c, size, e in zip(ints, sizes, exponents)])
    return den, top, degrees, [list(islice(terms, len(p.terms))) for p in polys]


class IntegerForm:
    """A rational function num/den as two integer polynomials, for ``PointEvaluator``."""

    __slots__ = ("function", "num", "den", "ratio", "shift", "degrees")

    def __init__(self, f):
        self.function = f
        num_den, num_top, num_degrees, (self.num,) = _integer_polys([f.num])
        den_den, den_top, den_degrees, (self.den,) = _integer_polys([f.den])
        # f = (S_num / (num_den D^num_top)) / (S_den / (den_den D^den_top))
        self.ratio = (den_den, num_den)
        self.shift = den_top - num_top
        self.degrees = num_degrees + den_degrees


class RowForm:
    """Functions f_1..f_m compiled once for ``PointEvaluator.row``.

    When every f_i is a polynomial, ``terms`` holds each numerator over the
    row's coefficient lcm ``scale`` and top degree ``top``, and ``forms`` is
    None; otherwise ``forms`` holds one ``IntegerForm`` per entry.
    """

    __slots__ = ("scale", "top", "terms", "forms", "degrees")

    def __init__(self, functions):
        functions = list(functions)
        if all(f.is_polynomial() for f in functions):
            # a polynomial's denominator is 1: RationalFunction divides a constant out
            self.scale, self.top, self.degrees, self.terms = _integer_polys(
                [f.num for f in functions])
            self.forms = None
        else:
            self.forms = [IntegerForm(f) for f in functions]
            self.degrees = tuple(d for form in self.forms for d in form.degrees)


class PointEvaluator:
    """Exact values of ``RowForm``s and ``IntegerForm``s at one rational point."""

    __slots__ = ("point", "_powers")

    def __init__(self, point):
        self.point = tuple(point)
        ints, scale = clear_denominators(self.point)
        # _powers[i][k] = X_i^k, and _powers[-1][k] = D^k
        self._powers = [[1, x] for x in ints] + [[1, scale]]

    def _grow(self, degrees) -> None:
        """Extend each power table to the highest k of the (i, k) pairs that name it."""
        for i, k in degrees:
            table = self._powers[i]
            while len(table) <= k:
                table.append(table[-1] * table[1])

    def _sum(self, terms) -> int:
        powers = self._powers
        scale = powers[-1]
        total = 0
        for c, lift, factors in terms:
            if lift:
                c *= scale[lift]
            for i, k in factors:
                c *= powers[i][k]
            total += c
        return total

    def _pair(self, form: IntegerForm) -> tuple:
        """(num, den), two ints with num/den = form.function at the point; den is nonzero."""
        den = self._sum(form.den)
        if den == 0:
            raise PoleAtPoint(f"denominator {form.function.den} vanishes at evaluation point")
        num = self._sum(form.num) * form.ratio[0]
        den *= form.ratio[1]
        if form.shift >= 0:
            return num * self._powers[-1][form.shift], den
        return num, den * self._powers[-1][-form.shift]

    def value(self, form: IntegerForm) -> Fraction:
        """form.function at the point; a vanishing denominator raises ``PoleAtPoint``."""
        self._grow(form.degrees)
        return Fraction(*self._pair(form))

    def _cleared(self, form: RowForm) -> tuple:
        """One form's (ints, scale), as ``row`` returns them."""
        self._grow(form.degrees)
        if form.forms is None:
            sums = [self._sum(terms) for terms in form.terms]
            den = form.scale * self._powers[-1][form.top]
            g = gcd(den, *sums)
            return [s // g for s in sums], den // g
        pairs = []
        for entry in form.forms:
            num, den = self._pair(entry)
            g = gcd(num, den)
            pairs.append((num // g, den // g))
        # lcm is nonnegative, so scale // den carries a negative den's sign to its num
        scale = lcm(*(den for _, den in pairs))
        return [num * (scale // den) for num, den in pairs], scale

    def row(self, *forms: RowForm) -> tuple:
        """The forms' functions at the point, in order, as ``clear_denominators``
        gives their values: (ints, the lcm of the values' denominators).

        A vanishing denominator raises ``PoleAtPoint`` at the first such entry.
        """
        cleared = [self._cleared(form) for form in forms]
        if len(cleared) == 1:
            return cleared[0]
        scale = lcm(*(s for _, s in cleared))
        return [x * (scale // s) for ints, s in cleared for x in ints], scale
