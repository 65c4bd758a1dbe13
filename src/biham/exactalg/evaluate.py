"""Exact values at one rational point, on integers.

A ``PointEvaluator`` scales its point once to integers X over a common
denominator D and keeps the powers of each X_i and of D, grown on demand.
Its one evaluation is ``row``: the functions of one or more ``RowForm``s at
the point, returned as ``clear_denominators`` returns their values (the
ints and their scale), with no ``Fraction`` per entry.  A ``RowForm`` is
built once, independent of any point, as one row of integer polynomials:
the numerators of its functions, then the denominator of each rational
entry, read off their packed integer forms (``poly._packed_forms``) over one
common coefficient denominator L and one top degree T, each term of degree
|e| lifted by D^(T - |e|), so that

    p_i(X / D) = S_i / (L D^T),    S_i = sum c_e X^e D^(T - |e|).

A row with no denominator gives the ints S_i / gcd(L D^T, S_1, ..., S_m):
one integer sum per entry and one gcd per row.  A rational entry is its
numerator's sum over its denominator's, the common L D^T cancelling, and
a vanishing denominator raises ``PoleAtPoint`` at the first such entry in
row order.  ``RationalFunction.eval`` stays the generic evaluator (one
function at a point, on Fractions) and the oracle.
"""

from itertools import compress, islice
from math import gcd, lcm

from ..errors import PoleAtPoint
from .matrix import clear_denominators
from .poly import _fields, _packed_forms


def _integer_polys(polys) -> tuple:
    """(L, T, degrees, [[(c_e, T - |e|, ((i, e_i) for e_i > 0))] per poly]) over one
    coefficient denominator L and top degree T; ``degrees`` are the highest powers
    of D (-1) and of each x_i that the terms read.

    Compiled from the polys' packed forms (``_packed_forms``): one field width,
    L the lcm of their denominators, and each exponent read off its packed key,
    so a partial (``_Partial``) is compiled without being unpacked."""
    if not polys:
        return 1, 0, ((-1, 0),), []
    width, forms = _packed_forms(polys)
    scale = lcm(*(d for d, _ in forms))
    fields = _fields(len(polys[0].variables), width)
    exponents = [fields(key) for _, pairs in forms for key, _ in pairs]
    ints = [c * (scale // d) for d, pairs in forms for _, c in pairs]
    sizes = list(map(sum, exponents))
    top = max(sizes, default=0)
    degrees = ((-1, top), *((i, k) for i, k in enumerate(map(max, zip(*exponents))) if k))
    terms = iter([(c, top - size, tuple(compress(enumerate(e), e)))
                  for c, size, e in zip(ints, sizes, exponents)])
    return scale, top, degrees, [list(islice(terms, len(pairs))) for _, pairs in forms]


class RowForm:
    """Functions f_1..f_m compiled once for ``PointEvaluator.row``.

    ``terms`` holds each numerator and ``dens`` each rational entry's
    (index, denominator terms, denominator), all over the common coefficient
    denominator ``scale`` and top degree ``top``; a polynomial row has no
    ``dens``.  It reads packed forms, so a gradient's partials stay packed.
    """

    __slots__ = ("scale", "top", "terms", "dens", "degrees")

    def __init__(self, functions):
        functions = list(functions)
        # a polynomial's denominator is 1: RationalFunction divides a constant out
        rational = [(j, f.den) for j, f in enumerate(functions) if not f.is_polynomial()]
        self.scale, self.top, self.degrees, terms = _integer_polys(
            [f.num for f in functions] + [den for _, den in rational])
        m = len(functions)
        self.terms = terms[:m]
        self.dens = [(j, den_terms, den) for (j, den), den_terms in zip(rational, terms[m:])]


class PointEvaluator:
    """Exact values of ``RowForm``s at one rational point, from its power tables."""

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

    def _cleared(self, form: RowForm) -> tuple:
        """One form's (ints, scale), as ``row`` returns them."""
        self._grow(form.degrees)
        sums = [self._sum(terms) for terms in form.terms]
        den = form.scale * self._powers[-1][form.top]
        if not form.dens:
            g = gcd(den, *sums)
            return [s // g for s in sums], den // g
        dens = [den] * len(sums)
        for j, terms, poly in form.dens:
            dens[j] = self._sum(terms)
            if dens[j] == 0:
                raise PoleAtPoint(f"denominator {poly} vanishes at evaluation point")
        gcds = list(map(gcd, sums, dens))
        # each d // g divides scale, so s * scale // d is exact and takes a negative d's sign
        scale = lcm(*(d // g for d, g in zip(dens, gcds)))
        return [s * scale // d for s, d in zip(sums, dens)], scale

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
