"""Dense univariate polynomials over the rationals, and their integer core.

Used for everything that lives in one pencil parameter: principal minors
and their divisors in the Jordan part, Smith forms and invariant factors
in the test oracle, run polynomials.  A ``UPoly`` holds Fraction
coefficients indexed by degree, trailing zeros stripped; the zero
polynomial has an empty coefficient list.

The gcd and the squarefree split run on integer coefficient lists (low
degree first) instead: ``primitive_gcd`` is Euclid's algorithm on
pseudo-remainders with each remainder divided by its content, and
``squarefree_decomposition`` is Yun's algorithm on the primitive parts.  By
Gauss's lemma a primitive polynomial that divides an integer polynomial
over Q divides it over Z, so every quotient there is exact, and an inexact
one is an ``InternalInconsistency``.  ``ugcd`` clears a ``UPoly``'s
denominators on entry; a monic ``UPoly`` is built only for each factor
returned.
"""

from fractions import Fraction
from itertools import zip_longest
from math import gcd

from ..errors import InternalInconsistency, ValidationError
from .matrix import clear_denominators
from .rational import rat, rat_str


class UPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = [rat(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls) -> "UPoly":
        return cls(())

    @classmethod
    def constant(cls, c) -> "UPoly":
        return cls((rat(c),))

    @classmethod
    def x(cls) -> "UPoly":
        return cls((0, 1))

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def lead(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, UPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UPoly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UPoly([rat(other) * c for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = UPoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __divmod__(self, other: "UPoly"):
        if other.is_zero():
            raise ZeroDivisionError("univariate division by zero")
        q = [Fraction(0)] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        r = list(self.coeffs)
        d = other.degree()
        lead = other.lead()
        while len(r) - 1 >= d and r:
            k = len(r) - 1 - d
            c = r[-1] / lead
            q[k] = c
            for j in range(d + 1):
                r[k + j] -= c * other.coeffs[j]
            while r and r[-1] == 0:
                r.pop()
        return UPoly(q), UPoly(r)

    def __floordiv__(self, other: "UPoly") -> "UPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UPoly") -> "UPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "UPoly") -> "UPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValidationError("inexact univariate division")
        return q

    def monic(self) -> "UPoly":
        if self.is_zero():
            return self
        return self * (1 / self.lead())

    def deriv(self) -> "UPoly":
        return UPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __str__(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                mono = ""
            elif k == 1:
                mono = var
            else:
                mono = f"{var}^{k}"
            cs = rat_str(c)
            if mono and c == 1:
                parts.append(mono)
            elif mono and c == -1:
                parts.append("-" + mono)
            elif mono:
                parts.append(f"{cs}*{mono}")
            else:
                parts.append(cs)
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s

    __repr__ = __str__


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


def _monic(c: list) -> UPoly:
    return UPoly([Fraction(x, c[-1]) for x in c])


def ugcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic gcd, by ``primitive_gcd`` on the integer multiples of a and b."""
    return _monic(primitive_gcd(clear_denominators(a.coeffs)[0],
                                clear_denominators(b.coeffs)[0]))


def squarefree_decomposition(p) -> list:
    """Yun's algorithm: list of (monic squarefree factor, multiplicity).

    ``p`` is a ``UPoly`` or its integer coefficients, low degree first.
    With p primitive, every gcd below is primitive and divides the
    polynomial it is taken out of over Q, so each quotient is exact in Z[t].
    """
    if isinstance(p, UPoly):
        p = clear_denominators(p.coeffs)[0]
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
            out.append((_monic(f), i))
        c = exact_quotient(c, f)
        d = _difference(exact_quotient(d, f), _derivative(c))
        i += 1
    return out


def _split_irreducible(sf: UPoly) -> list:
    """Split a monic squarefree polynomial into monic irreducible factors."""
    if sf.degree() <= 1:
        return [sf]
    # Degrees >= 2 are delegated to sympy's rational factorization; the
    # pencil catalog only ever produces linear factors here, so the import
    # stays lazy.
    import sympy

    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**k
               for k, c in enumerate(sf.coeffs))
    _, factors = sympy.factor_list(sympy.Poly(expr, t))
    out = []
    for fac, mult in factors:
        coeffs = list(reversed(sympy.Poly(fac, t).all_coeffs()))
        up = UPoly([Fraction(int(sympy.numer(c)), int(sympy.denom(c))) for c in coeffs]).monic()
        out.extend([up] * mult)
    return out


def factor_monic(p) -> list:
    """Factor into monic irreducibles over Q: list of (factor, multiplicity).

    ``p`` is a ``UPoly`` or its integer coefficients, low degree first.
    """
    out: dict = {}
    for sf, mult in squarefree_decomposition(p):
        for irr in _split_irreducible(sf):
            out[irr] = out.get(irr, 0) + mult
    return sorted(out.items(), key=lambda fm: (fm[0].degree(), fm[0].coeffs))
