"""Dense univariate polynomials over the rationals.

Used for everything that lives in one pencil parameter: principal minors
and their divisors in the Jordan part, Smith forms and invariant factors
in the test oracle, run polynomials.  Coefficients are Fractions indexed
by degree, trailing zeros stripped; the zero polynomial has empty
coefficient list.
"""

from fractions import Fraction

from ..errors import ValidationError
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


def ugcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def squarefree_decomposition(p: UPoly) -> list:
    """Yun's algorithm: list of (monic squarefree factor, multiplicity)."""
    if p.is_zero() or p.is_constant():
        return []
    p = p.monic()
    out = []
    g = ugcd(p, p.deriv())
    c = p.exact_div(g)
    d = p.deriv().exact_div(g) - c.deriv()
    i = 1
    while c.degree() > 0:
        f = ugcd(c, d)
        if f.degree() > 0:
            out.append((f.monic(), i))
        c = c.exact_div(f)
        d = d.exact_div(f) - c.deriv()
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


def factor_monic(p: UPoly) -> list:
    """Factor into monic irreducibles over Q: list of (factor, multiplicity)."""
    out: dict = {}
    for sf, mult in squarefree_decomposition(p):
        for irr in _split_irreducible(sf):
            out[irr] = out.get(irr, 0) + mult
    return sorted(out.items(), key=lambda fm: (fm[0].degree(), fm[0].coeffs))
