"""Multivariate polynomials and rational functions over exact rationals.

Polynomials are sparse maps from exponent vectors to nonzero Fractions,
canonically ordered by graded lexicographic order on a declared variable
tuple.  Rational functions are stored gcd-reduced with a content-normalized
denominator (integer coprime coefficients, positive graded-lex leading
coefficient), which makes equality a plain component comparison.
"""

from fractions import Fraction
from math import gcd as int_gcd, lcm
from operator import add

from ..errors import PoleAtPoint, ValidationError
from .rational import rat, rat_str


def _grlex_key(expo):
    return (sum(expo), expo)


class Poly:
    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "Poly":
        return cls(variables, {})

    @classmethod
    def constant(cls, c, variables) -> "Poly":
        c = rat(c)
        n = len(variables)
        return cls(variables, {(0,) * n: c} if c != 0 else {})

    @classmethod
    def variable(cls, name, variables) -> "Poly":
        variables = tuple(variables)
        if name not in variables:
            raise ValidationError(f"unknown variable {name!r}")
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(variables, {tuple(e): Fraction(1)})

    def embed(self, new_variables) -> "Poly":
        """Re-express over a variable tuple containing the current one."""
        new_variables = tuple(new_variables)
        idx = []
        for v in self.variables:
            if v not in new_variables:
                raise ValidationError(f"variable {v!r} missing from target tuple")
            idx.append(new_variables.index(v))
        n = len(new_variables)
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * n
            for k, p in enumerate(e):
                ne[idx[k]] = p
            terms[tuple(ne)] = c
        return Poly(new_variables, terms)

    # -- predicates and views ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValidationError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def degree_in(self, name) -> int:
        i = self.variables.index(name)
        return max((e[i] for e in self.terms), default=0)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        if not self.terms:
            return None
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.variables == other.variables
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- arithmetic -----------------------------------------------------

    def _check(self, other):
        if self.variables != other.variables:
            raise ValidationError("polynomials declared over different variable tuples")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, self.variables)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return Poly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, self.variables)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            if c == 0:
                return Poly.zero(self.variables)
            return Poly(self.variables, {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        den1, num1 = _integer_terms(self.terms)
        den2, num2 = _integer_terms(other.terms)
        acc: dict = {}
        for e1, c1 in num1:
            for e2, c2 in num2:
                e = tuple(map(add, e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        den = den1 * den2
        return Poly(self.variables, {e: Fraction(s, den) for e, s in acc.items() if s})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValidationError("negative polynomial power")
        out = Poly.constant(1, self.variables)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def diff(self, name) -> "Poly":
        i = self.variables.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = c * e[i]
        return Poly(self.variables, terms)

    def eval(self, values):
        """Evaluate at a point (sequence aligned with the variable tuple).

        Works for Fractions (exact) and floats alike.
        """
        if len(values) != len(self.variables):
            raise ValidationError("point dimension mismatch")
        total = 0
        for e, c in self.terms.items():
            term = c
            for v, p in zip(values, e):
                if p:
                    term = term * v**p
            total = total + term
        return total

    def subs(self, mapping) -> "Poly":
        """Substitute polynomials (over the same variable tuple) for variables."""
        out = Poly.zero(self.variables)
        for e, c in self.terms.items():
            term = Poly.constant(c, self.variables)
            for name, p in zip(self.variables, e):
                if p:
                    repl = mapping.get(name)
                    if repl is None:
                        repl = Poly.variable(name, self.variables)
                    elif isinstance(repl, (int, Fraction)):
                        repl = Poly.constant(repl, self.variables)
                    term = term * repl**p
            out = out + term
        return out

    def split_by(self, name) -> dict:
        """Decompose by powers of one variable: power -> Poly without it."""
        i = self.variables.index(name)
        rest = tuple(v for v in self.variables if v != name)
        buckets: dict = {}
        for e, c in self.terms.items():
            p = e[i]
            re = tuple(x for k, x in enumerate(e) if k != i)
            buckets.setdefault(p, {})[re] = c
        return {p: Poly(rest, t) for p, t in sorted(buckets.items())}

    def content(self) -> Fraction:
        """Positive rational c with self/c having coprime integer coefficients."""
        if not self.terms:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = int_gcd(num, abs(c.numerator))
            den = den // int_gcd(den, c.denominator) * c.denominator
        return Fraction(num, den)

    def monic_sign(self) -> int:
        lead = self.leading()
        if lead is None:
            return 1
        return 1 if lead[1] > 0 else -1

    def normalized(self) -> "Poly":
        """Primitive part with positive graded-lex leading coefficient."""
        if not self.terms:
            return self
        c = self.content() * self.monic_sign()
        return self * (1 / c)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, p in zip(self.variables, e):
                if p == 1:
                    factors.append(name)
                elif p > 1:
                    factors.append(f"{name}^{p}")
            mono = "*".join(factors)
            if not mono:
                parts.append(rat_str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append(f"{rat_str(c)}*{mono}")
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s

    __repr__ = __str__


def _integer_terms(terms):
    """(d, [(exponent, d*c)]) with d the lcm of the coefficient denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()]


# -- division and gcd ----------------------------------------------------


def exact_div(f: Poly, g: Poly):
    """f / g when the division is exact, else None."""
    f._check(g)
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return f
    q_terms: dict = {}
    r = f
    ge, gc = g.leading()
    while not r.is_zero():
        re, rc = r.leading()
        qe = tuple(a - b for a, b in zip(re, ge))
        if any(x < 0 for x in qe):
            return None
        qc = rc / gc
        q_terms[qe] = q_terms.get(qe, Fraction(0)) + qc
        r = r - Poly(f.variables, {qe: qc}) * g
        if not r.is_zero() and _grlex_key(r.leading()[0]) >= _grlex_key(re):
            return None
    return Poly(f.variables, q_terms)


def _upoly_view(f: Poly, i: int) -> dict:
    """View as univariate in variable index i: degree -> coefficient Poly."""
    buckets: dict = {}
    for e, c in f.terms.items():
        d = e[i]
        ne = list(e)
        ne[i] = 0
        buckets.setdefault(d, {})[tuple(ne)] = c
    return {d: Poly(f.variables, t) for d, t in buckets.items()}


def _content_in(f: Poly, i: int) -> Poly:
    view = _upoly_view(f, i)
    g = Poly.zero(f.variables)
    for coeff in view.values():
        g = poly_gcd(g, coeff)
        if g.is_constant() and not g.is_zero():
            break
    return g


def _pseudo_rem(a: Poly, b: Poly, i: int):
    """Pseudo-remainder of a by b, both univariate in variable index i."""
    variables = a.variables
    bv = _upoly_view(b, i)
    db = max(bv)
    lb = bv[db]
    r = a
    while True:
        rv = _upoly_view(r, i)
        dr = max(rv) if not r.is_zero() else -1
        if dr < db:
            return r
        lr = rv[dr]
        shift = {}
        for e, c in lr.terms.items():
            ne = list(e)
            ne[i] += dr - db
            shift[tuple(ne)] = c
        r = r * lb - b * Poly(variables, shift)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Gcd over Q[variables], primitive with positive leading coefficient."""
    f._check(g)
    if f.is_zero():
        return g.normalized()
    if g.is_zero():
        return f.normalized()
    if f.is_constant() or g.is_constant():
        return Poly.constant(1, f.variables)
    main = None
    for i in range(len(f.variables)):
        if any(e[i] for e in f.terms) or any(e[i] for e in g.terms):
            main = i
            break
    fa, fb = f, g
    if fa.degree_in(fa.variables[main]) < fb.degree_in(fb.variables[main]):
        fa, fb = fb, fa
    cont_a = _content_in(fa, main)
    cont_b = _content_in(fb, main)
    cont = poly_gcd(cont_a, cont_b)
    pa = exact_div(fa, cont_a)
    pb = exact_div(fb, cont_b)
    while not pb.is_zero():
        r = _pseudo_rem(pa, pb, main)
        if r.is_zero():
            pa = pb
            break
        pa, pb = pb, exact_div(r, _content_in(r, main))
    if not any(e[main] for e in pa.terms):
        # degenerated to a polynomial free of the main variable
        result = cont
    else:
        result = (cont * pa).normalized()
    return result.normalized()


def poly_det(rows) -> Poly:
    """Determinant of a square matrix of Polys (cofactor expansion)."""
    n = len(rows)
    if n == 0:
        raise ValidationError("empty matrix")
    variables = rows[0][0].variables
    memo: dict = {}

    def minor(r, cols):
        if not cols:
            return Poly.constant(1, variables)
        key = (r, cols)
        if key in memo:
            return memo[key]
        total = Poly.zero(variables)
        for k, c in enumerate(cols):
            entry = rows[r][c]
            if entry.is_zero():
                continue
            sub = minor(r + 1, cols[:k] + cols[k + 1:])
            term = entry * sub
            total = total + (term if k % 2 == 0 else -term)
        memo[key] = total
        return total

    return minor(0, tuple(range(n)))


class RationalFunction:
    """Reduced quotient of two Polys over a common variable tuple."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, reduce: bool = True):
        if den is None:
            den = Poly.constant(1, num.variables)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num._check(den)
        if num.is_zero():
            den = Poly.constant(1, num.variables)
        elif reduce:
            g = poly_gcd(num, den)
            if not (g.is_constant() and g.constant_value() == 1):
                num = exact_div(num, g)
                den = exact_div(den, g)
        if not den.is_constant() or den.constant_value() != 1:
            c = den.content() * den.monic_sign()
            num = num * (1 / c)
            den = den * (1 / c)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: Poly) -> "RationalFunction":
        return cls(p, None, reduce=False)

    @classmethod
    def constant(cls, c, variables) -> "RationalFunction":
        return cls.from_poly(Poly.constant(c, variables))

    @property
    def variables(self):
        return self.num.variables

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValidationError("rational function is not a polynomial")
        return self.num * (1 / self.den.constant_value())

    def embed(self, new_variables) -> "RationalFunction":
        return RationalFunction(self.num.embed(new_variables),
                                self.den.embed(new_variables), reduce=False)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.constant(other, self.variables)
        elif isinstance(other, Poly):
            other = RationalFunction.from_poly(other)
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(other, self.variables)
        if isinstance(other, Poly):
            return RationalFunction.from_poly(other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def diff(self, name) -> "RationalFunction":
        dn = self.num.diff(name)
        dd = self.den.diff(name)
        if dd.is_zero():
            return RationalFunction(dn, self.den)
        return RationalFunction(dn * self.den - self.num * dd, self.den * self.den)

    def eval(self, values):
        d = self.den.eval(values)
        if d == 0:
            raise PoleAtPoint(f"denominator {self.den} vanishes at evaluation point")
        return self.num.eval(values) / d

    def __str__(self):
        if self.is_polynomial():
            return str(self.as_poly())
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        den = str(self.den)
        if len(self.den.terms) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    __repr__ = __str__
