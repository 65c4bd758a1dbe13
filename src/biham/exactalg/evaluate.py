"""Exact values at one rational point, on integers.

A ``PointEvaluator`` scales its point once to integers X over a common
denominator D and keeps the powers of each X_i and of D, grown on demand.
An ``IntegerForm`` holds a rational function's numerator and denominator
as integer polynomials, independent of any point and built once: the
coefficients over their lcm L, each term of degree |e| lifted by
D^(top - |e|), so that

    p(X / D) = sum c_e X^e D^(top - |e|) / (L D^top)

is one integer sum, and a value num/den is one ``Fraction``.
``Poly.eval`` stays the generic evaluator (one polynomial at a point, on
Fractions) and the oracle.
"""

from fractions import Fraction

from ..errors import PoleAtPoint
from .matrix import clear_denominators
from .poly import _integer_terms


def _integer_poly(p) -> tuple:
    """(L, top, [(c_e, top - |e|, ((i, e_i) for e_i > 0))]) of a polynomial."""
    den, ints = _integer_terms(p.terms)
    top = max((sum(e) for e in p.terms), default=0)
    return den, top, [(c, top - sum(e), tuple((i, k) for i, k in enumerate(e) if k))
                      for e, c in ints]


class IntegerForm:
    """A rational function num/den as two integer polynomials, for ``PointEvaluator.value``."""

    __slots__ = ("function", "num", "den", "ratio", "shift", "degrees")

    def __init__(self, f):
        self.function = f
        num_den, num_top, self.num = _integer_poly(f.num)
        den_den, den_top, self.den = _integer_poly(f.den)
        # f = (S_num / (num_den D^num_top)) / (S_den / (den_den D^den_top))
        self.ratio = (den_den, num_den)
        self.shift = den_top - num_top
        degrees: dict = {-1: max(num_top, den_top)}        # -1 stands for D
        for _, _, factors in self.num + self.den:
            for i, k in factors:
                degrees[i] = max(degrees.get(i, 0), k)
        self.degrees = tuple(degrees.items())


class PointEvaluator:
    """Exact values of ``IntegerForm``s at one rational point."""

    __slots__ = ("point", "_powers")

    def __init__(self, point):
        self.point = tuple(point)
        ints, scale = clear_denominators(self.point)
        # _powers[i][k] = X_i^k, and _powers[-1][k] = D^k
        self._powers = [[1, x] for x in ints] + [[1, scale]]

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

    def value(self, form: IntegerForm) -> Fraction:
        """form.function at the point; a vanishing denominator raises ``PoleAtPoint``."""
        for i, k in form.degrees:
            table = self._powers[i]
            while len(table) <= k:
                table.append(table[-1] * table[1])
        den = self._sum(form.den)
        if den == 0:
            raise PoleAtPoint(f"denominator {form.function.den} vanishes at evaluation point")
        num = self._sum(form.num) * form.ratio[0]
        den *= form.ratio[1]
        if form.shift >= 0:
            return Fraction(num * self._powers[-1][form.shift], den)
        return Fraction(num, den * self._powers[-1][-form.shift])
