"""Univariate polynomials in one pencil parameter, on integer coefficient lists.

The principal minors of the Jordan part and their divisors live in one
pencil parameter.  The gcd and the squarefree split run on integer
coefficient lists (low degree first): ``primitive_gcd`` is Euclid's
algorithm on pseudo-remainders with each remainder divided by its content,
and ``squarefree_decomposition`` is Yun's algorithm on the primitive parts.
By Gauss's lemma a primitive polynomial that divides an integer polynomial
over Q divides it over Z, so every quotient there is exact, and an inexact
one is an ``InternalInconsistency``.  Each factor returned is a monic
``Poly`` in the one variable t, as every univariate polynomial of the
package is.
"""

from fractions import Fraction
from itertools import zip_longest
from math import gcd

from ..errors import InternalInconsistency
from .poly import Poly

T = ("t",)     # the variable tuple of every univariate Poly


def _primitive_part(c: list) -> list:
    """Integer coefficients divided by their content, leading coefficient positive.

    Trailing zeros are dropped; the zero polynomial gives [].
    """
    c = list(c)
    while c and not c[-1]:
        c.pop()
    if not c:
        return []
    content = gcd(*c) if c[-1] > 0 else -gcd(*c)
    return [x // content for x in c]


def _pseudo_remainder(a: list, b: list) -> list:
    """c * (a mod b) for some nonzero integer c, by long division without fractions.

    Each step scales the remainder by lead(b) / g and subtracts lead / g
    times b, with g the gcd of the two leading coefficients.
    """
    r = list(a)
    db = len(b) - 1
    lead_b = b[-1]
    while len(r) > db:
        lead = r.pop()
        g = gcd(lead, lead_b)
        scale, times = lead_b // g, lead // g
        shift = len(r) - db
        if scale != 1:
            r = [x * scale for x in r]
        for j in range(db):
            r[shift + j] -= times * b[j]
        while r and not r[-1]:
            r.pop()
    return r


def primitive_gcd(a: list, b: list) -> list:
    """Primitive gcd of two integer coefficient lists (low degree first), [] for two zeros.

    Euclid's algorithm on pseudo-remainders, each reduced to its primitive
    part (the primitive remainder sequence), so no Fraction arithmetic and
    no content carried from one remainder to the next.
    """
    a, b = _primitive_part(a), _primitive_part(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive_part(_pseudo_remainder(a, b))
    return a


def exact_quotient(a: list, b: list) -> list:
    """a / b on integer coefficient lists; b must divide a in Z[t].

    A remainder or a non-integer quotient coefficient raises
    ``InternalInconsistency``: with b primitive, Gauss's lemma makes both
    impossible whenever b divides a over Q.
    """
    db = len(b) - 1
    lead_b = b[-1]
    r = list(a)
    q = [0] * max(0, len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[k + db], lead_b)
        if rest:
            raise InternalInconsistency("inexact division of integer polynomials")
        q[k] = c
        if c:
            for j in range(db):
                r[k + j] -= c * b[j]
    if any(r[:db]):
        raise InternalInconsistency("inexact division of integer polynomials")
    return q


def _derivative(c: list) -> list:
    return [k * x for k, x in enumerate(c)][1:]


def _difference(a: list, b: list) -> list:
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _monic(terms: dict) -> Poly:
    """The monic Poly in t with these {(degree,): coefficient} terms."""
    lead = Fraction(terms[max(terms)])
    return Poly(T, {e: c / lead for e, c in terms.items()})


def squarefree_decomposition(p: list) -> list:
    """Yun's algorithm: list of (monic squarefree factor, multiplicity).

    ``p`` holds integer coefficients, low degree first.  With p primitive,
    every gcd below is primitive and divides the polynomial it is taken out
    of over Q, so each quotient is exact in Z[t].
    """
    p = _primitive_part(p)
    if len(p) <= 1:
        return []
    out = []
    dp = _derivative(p)
    g = primitive_gcd(p, dp)
    c = exact_quotient(p, g)
    d = _difference(exact_quotient(dp, g), _derivative(c))
    i = 1
    while len(c) > 1:
        f = primitive_gcd(c, d)
        if len(f) > 1:
            out.append((_monic({(k,): x for k, x in enumerate(f) if x}), i))
        c = exact_quotient(c, f)
        d = _difference(exact_quotient(d, f), _derivative(c))
        i += 1
    return out


def _split_irreducible(sf: Poly) -> list:
    """Split a monic squarefree polynomial into monic irreducible factors."""
    if sf.degree_in("t") <= 1:
        return [sf]
    # Degrees >= 2 are delegated to sympy's rational factorization; the
    # pencil catalog only ever produces linear factors here, so the import
    # stays lazy.
    import sympy

    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**k
               for (k,), c in sf.terms.items())
    _, factors = sympy.factor_list(sympy.Poly(expr, t))
    out = []
    for fac, mult in factors:
        terms = {e: Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
                 for e, c in sympy.Poly(fac, t).terms()}
        out.extend([_monic(terms)] * mult)
    return out


def _sort_key(factor_mult) -> tuple:
    """(degree, coefficients from low to high) of a factor."""
    q = factor_mult[0]
    d = q.degree_in("t")
    return d, tuple(q.terms.get((k,), 0) for k in range(d + 1))


def factor_monic(p: list) -> list:
    """Factor into monic irreducibles over Q: list of (factor, multiplicity).

    ``p`` holds integer coefficients, low degree first.
    """
    out: dict = {}
    for sf, mult in squarefree_decomposition(p):
        for irr in _split_irreducible(sf):
            out[irr] = out.get(irr, 0) + mult
    return sorted(out.items(), key=_sort_key)
