"""Multivariate polynomials and rational functions over exact rationals.

Polynomials are sparse maps from exponent vectors to nonzero Fractions,
canonically ordered by graded lexicographic order on a declared variable
tuple.  Rational functions are stored gcd-reduced with a content-normalized
denominator (integer coprime coefficients, positive graded-lex leading
coefficient), which makes equality a plain component comparison.

Products and sums of products share one kernel, ``_add_product``, on packed
monomials: a Poly's exponent vector (e_0, ..., e_{n-1}) becomes the single
integer sum e_i << (W*i), so the product of two monomials is one integer
addition.  Each Poly keeps its packed integer form (a common denominator
of its coefficients and the (packed exponent, integer numerator) pairs) in
a lazily filled slot, so a gradient or a table entry that enters many
products is scaled and packed once.  ``Poly.__mul__`` accumulates one
product.  Every sum of products goes through one generator,
``RationalFunction.sums_of_products``: it packs the factors of many groups
of products once, then sums each group when the caller reaches it, in its
own accumulator split into parts by denominator, each part keyed above the
monomial fields, and yields the shared zero for a group whose parts all
vanish, or else the exact sum, each nonzero part unpacked once and reduced
once.  A certificate's zero test takes the groups' sums in order and stops
at the first nonzero one; ``sum_of_products`` is its one-group case.  No
dict grows with the whole certificate, which on a large structure would
slow every product.
``RationalFunction.partials`` differentiates a polynomial in one pass over
its terms zipped with its packed form, and each nonzero partial is that
packed form only (a ``_Partial``): the key lowered by one in the partial's
slot and the integer numerator times the exponent, at the same width and
denominator, with no exponent tuple and no ``Fraction``.  A partial's
``terms`` are unpacked on first read; the products, the zero test and the
point rows (``evaluate.RowForm``) read the packed form, so a certificate or
an analysis unpacks no partial.  No zero partial is built and no partial is
packed again; ``diff`` stays for single derivatives and as the oracle.
Each partial is wrapped as built, over the polynomial's denominator 1,
with none of ``RationalFunction.__init__``'s checks, which it meets by
construction (``_wrapped``, as ``from_poly`` and a negation are), and
every absent partial or coefficient is the one zero of its variable tuple
(``RationalFunction.zero``): once a polynomial structure's skew rows are
built, a passing certificate on it builds no ``RationalFunction``.
``poly_gcd`` takes its shortcuts, then the heuristic gcd GCDHEU, whose
answer is proved by exact division on integers (``exact_div``); the
primitive PRS gcd is the fallback.
"""

from fractions import Fraction
from functools import cache
from math import gcd as int_gcd, isqrt, lcm
from operator import add, lshift

from ..errors import PoleAtPoint, ValidationError
from .matrix import clear_denominators
from .rational import rat, rat_str


def _grlex_key(expo):
    return (sum(expo), expo)


class Poly:
    __slots__ = ("variables", "terms", "_hash", "_packed")

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        self.terms = {e: c for e, c in terms.items() if c != 0}
        self._hash = None            # filled on first use; terms are never mutated
        self._packed = None          # ``_packed_form``, likewise

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
        terms = self.terms
        return not terms or (len(terms) == 1 and not any(next(iter(terms))))

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
        if self._hash is None:
            self._hash = hash((self.variables, frozenset(self.terms.items())))
        return self._hash

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
        width, ((den1, num1), (den2, num2)) = _packed_forms((self, other))
        acc: dict = {}
        _add_product(acc, num1, num2, 1, 0)
        return _unpack(acc, den1 * den2, self.variables, width)

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

        Exact on ints and Fractions; a point's many functions go through
        ``RowForm``s instead, and this stays their oracle.
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
    ints, den = clear_denominators(terms.values())
    return den, list(zip(terms, ints))


# Packed monomials.  A Poly's exponents e_0..e_{n-1} pack into the integer
# key sum e_i << (W*i), W bits per field.  No carry: when every exponent of
# both factors is below 2^(W-1), every exponent of their product, a sum of
# two, is below 2^W, so each field of key1 + key2 holds exactly e_i + e'_i
# and no field spills into the next.  The accumulator therefore identifies
# two products' monomials exactly when their keys are equal, and shifting
# and masking the accumulated keys recovers the exponent tuples.  A Poly
# keeps its form at W = PACK_BITS, or at the least wider W its own
# exponents allow (a partial at its function's W); factors of unequal W are
# widened to the wider one field by field, uncached, which only a factor
# with an exponent of 2^(PACK_BITS-1) or more, or a partial of one, causes.
PACK_BITS = 16


def _pack(terms, width: int):
    """(width, d, [(packed exponent, d*c)]) with d the lcm of the coefficient
    denominators; width is raised until every exponent is below 2^(width-1).

    It reads a Poly's exponent tuples, so it runs on a Poly built from terms,
    never on a partial: a partial's form is preset (``_poly_partials``) with
    its function's d, which may be a multiple of the lcm, and its W, which
    may be wider than its own exponents need, and a form is widened from its
    packed pairs (``_widen``)."""
    n = len(next(iter(terms), ()))
    top = max(map(max, terms), default=0) if n else 0
    width = max(width, top.bit_length() + 1)
    shifts = range(0, width * n, width)
    den, ints = _integer_terms(terms)
    return width, den, [(sum(map(lshift, e, shifts)), c) for e, c in ints]


def _packed_form(p: Poly):
    """p's packed integer form (``_pack``), built once per Poly."""
    if p._packed is None:
        p._packed = _pack(p.terms, PACK_BITS)
    return p._packed


def _fields(n: int, width: int):
    """The function from a packed key on n fields of ``width`` bits to its exponents."""
    mask = (1 << width) - 1
    shifts = range(0, width * n, width)
    return lambda key: [(key >> s) & mask for s in shifts]


def _widen(form, n: int, width: int):
    """(d, pairs) of a packed form (W, d, pairs) on n fields, repacked at a wider
    width field by field: each field's value moves from W*i to width*i."""
    old, den, pairs = form
    fields = _fields(n, old)
    shifts = range(0, width * n, width)
    return den, [(sum(map(lshift, fields(key), shifts)), c) for key, c in pairs]


def _packed_forms(polys):
    """The common field width and each Poly's (d, packed terms) at that width.

    A form narrower than the widest is widened from its packed pairs, uncached."""
    forms = [_packed_form(p) for p in polys]
    width = max(w for w, _, _ in forms)
    n = len(polys[0].variables)
    return width, [form[1:] if form[0] == width else _widen(form, n, width) for form in forms]


def _unpack_terms(pairs, den: int, n: int, width: int) -> dict:
    """{exponent tuple: c/den} over the (packed exponent, c) pairs with c != 0."""
    fields = _fields(n, width)
    return {tuple(fields(key)): Fraction(c, den) for key, c in pairs if c}


_TERMS = Poly.terms          # the slot a ``_Partial`` fills on its first read of ``terms``


class _Partial(Poly):
    """A polynomial's partial derivative, held as its packed form (W, d, pairs).

    ``terms`` shadows the slot: it unpacks the pairs into it on first read,
    and after that reads it.  ``is_zero`` reads the pairs, and products,
    ``sums_of_products`` and ``RowForm`` read the packed form, so none of
    them unpacks.  Equality and hashing read ``terms``, as an eager Poly's do."""

    __slots__ = ()

    def __init__(self, variables, packed):
        self.variables = variables
        self._hash = None
        self._packed = packed

    @property
    def terms(self):
        try:
            return _TERMS.__get__(self)
        except AttributeError:
            width, den, pairs = self._packed
            terms = _unpack_terms(pairs, den, len(self.variables), width)
            _TERMS.__set__(self, terms)
            return terms

    def is_zero(self) -> bool:
        return not self._packed[2]

    def __reduce__(self):
        # copy and pickle rebuild the packed form; the slots would set ``terms``
        return _Partial, (self.variables, self._packed)


def _poly_partials(p: Poly) -> dict:
    """{i: d p / d x_i} over the nonzero partials, each a ``_Partial``.

    One pass over p's exponents zipped with its packed form (W, d, pairs): a
    term c x^e with e_i = k > 0 gives partial i the pair (key - 2^(W*i), d*c*k)
    at the same W and over the same d, and no exponent tuple or ``Fraction``.
    Lowering slot i is one-to-one on the terms that hold x_i, so no two
    terms meet and nothing is summed or filtered; W still bounds every
    exponent, and d is a common denominator of the partial's coefficients.
    """
    width, den, packed = _packed_form(p)
    units = [1 << s for s in range(0, width * len(p.variables), width)]
    slots: dict = {}
    for e, (key, k) in zip(p.terms, packed):
        for i, ei in enumerate(e):
            if ei:
                pairs = slots.get(i)
                if pairs is None:
                    pairs = slots[i] = []
                pairs.append((key - units[i], k if ei == 1 else k * ei))
    variables = p.variables
    return {i: _Partial(variables, (width, den, slots[i])) for i in sorted(slots)}


def _add_product(acc: dict, num1, num2, k: int, offset: int):
    """acc += k * num1 * num2, all three integer polynomials on packed exponents,
    each product key raised by ``offset`` (a part's index above the monomial fields)."""
    get = acc.get
    for e1, c1 in num1:
        c1 *= k
        e1 += offset
        for e2, c2 in num2:
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2


def _unpack(acc: dict, den: int, variables, width: int) -> Poly:
    """The Poly sum (c/den) x^e over the accumulator's nonzero packed terms."""
    return Poly(variables, _unpack_terms(acc.items(), den, len(variables), width))


# -- truncated power series ------------------------------------------------
# A series is a Poly with no term above an order the caller holds.


def truncate(p: Poly, order: int) -> Poly:
    """p without its terms of total degree above order."""
    return Poly(p.variables, {e: c for e, c in p.terms.items() if sum(e) <= order})


def compose(p: Poly, mapping: dict, order: int) -> Poly:
    """Substitute polynomials for variables of p, truncated at total degree order.

    The mapped polynomials share one target variable tuple and vanish at
    the origin, so truncating after every product commutes with the
    substitution; unmapped variables must belong to the target tuple.
    """
    tvars = next(iter(mapping.values())).variables if mapping else p.variables
    origin = (0,) * len(tvars)
    powers = {}
    for name in p.variables:
        q = mapping.get(name)
        if q is None:
            q = Poly.variable(name, tvars)
        elif q.variables != tvars:
            raise ValidationError("substituted polynomials over different variables")
        elif origin in q.terms:
            raise ValidationError("substituted polynomials must vanish at the origin")
        powers[name] = [Poly.constant(1, tvars), truncate(q, order)]
    out = Poly.zero(tvars)
    for e, c in p.terms.items():
        if sum(e) > order:
            continue
        term = Poly.constant(c, tvars)
        for name, k in zip(p.variables, e):
            if k:
                cache = powers[name]
                while len(cache) <= k:
                    cache.append(truncate(cache[-1] * cache[1], order))
                term = truncate(term * cache[k], order)
        out = out + term
    return out


# -- division and gcd ----------------------------------------------------


def exact_div(f: Poly, g: Poly):
    """f / g when the division is exact, else None.

    Runs on integers: f = F/df and g = cg*G/dg with F, G integer and G
    primitive, and by Gauss's lemma G divides F over Q exactly when it does
    over Z, so f / g = (F / G) * dg / (df * cg).
    """
    f._check(g)
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return f
    df, num_f = _integer_terms(f.terms)
    dg, num_g = _integer_terms(g.terms)
    cg = int_gcd(*(c for _, c in num_g))
    q = _int_div(dict(num_f), {e: c // cg for e, c in num_g})
    if q is None:
        return None
    scale = Fraction(dg, df * cg)
    return Poly(f.variables, {e: c * scale for e, c in q.items()})


def _int_div(a: dict, d: dict):
    """a / d for integer polynomials (exponent -> int) when exact in Z[x], else None.

    Consumes a.  Graded lex is a monomial order, so every step cancels the
    leading term of the remainder and adds only smaller ones.
    """
    lead = max(d, key=_grlex_key)
    lc = d[lead]
    q = {}
    while a:
        e = max(a, key=_grlex_key)
        qe = tuple(x - y for x, y in zip(e, lead))
        if min(qe) < 0 or a[e] % lc:
            return None
        qc = a[e] // lc
        q[qe] = qc
        for de, dc in d.items():
            k = tuple(map(add, qe, de))
            v = a.get(k, 0) - qc * dc
            if v:
                a[k] = v
            else:
                del a[k]
    return q


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


def _uses(f: Poly, i: int) -> bool:
    return any(e[i] for e in f.terms)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Gcd over Q[variables], primitive with positive leading coefficient.

    Shortcuts first: a zero or constant argument, and a variable that only
    one argument contains, which the gcd cannot contain either, so the gcd
    is that of the other argument and the coefficients of the first in that
    variable.  Then the heuristic gcd (``_heuristic_gcd``), whose answer is
    proved by exact division; the primitive PRS runs only when the
    heuristic gives up.
    """
    f._check(g)
    if f.is_zero():
        return g.normalized()
    if g.is_zero():
        return f.normalized()
    if f.is_constant() or g.is_constant():
        return Poly.constant(1, f.variables)
    for i in range(len(f.variables)):
        in_f = _uses(f, i)
        if in_f != _uses(g, i):
            h, other = (g, f) if in_f else (f, g)
            for coeff in _upoly_view(other, i).values():
                h = poly_gcd(h, coeff)
                if h.is_constant():
                    break
            return h
    h = _heuristic_gcd(f, g)
    return h if h is not None else _prs_gcd(f, g)


def _prs_gcd(f: Poly, g: Poly) -> Poly:
    """Primitive PRS gcd of two nonconstant polynomials."""
    main = next(i for i in range(len(f.variables)) if _uses(f, i) or _uses(g, i))
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
    if not _uses(pa, main):
        # degenerated to a polynomial free of the main variable
        return cont.normalized()
    return (cont * pa).normalized()


# GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7 (1989)): evaluate
# one variable y at a large integer xi, take the exact gcd of the images (in
# the remaining variables x, recursively, down to an integer gcd), and read
# the candidate's coefficients off as the balanced base-xi digits of that
# image.  With xi > 2*min(|a|, |b|) + 2 (max-norms of the primitive integer
# inputs), a primitive candidate P that divides both inputs is their gcd g.
# Proof: g = P*h, and g(xi) divides the image c*P(xi), c the integer content
# of the digits, so h(x, xi) is an integer k with |k| <= c <= xi/2.  If h
# involved x, its leading coefficient in x (a polynomial in y dividing one
# of a's, whose roots are at most 1 + |a| < xi in size) would vanish at xi;
# so h is a polynomial in y dividing a's coefficients, and if nonconstant
# |h(xi)| >= (xi - 1 - |a|)^deg h > xi/2.  Hence h = +-1.
HEURISTIC_TRIES = 6


def _heuristic_gcd(f: Poly, g: Poly):
    """The gcd of f and g, normalized, or None when the heuristic gives up."""
    a = dict(_integer_terms(f.terms)[1])
    b = dict(_integer_terms(g.terms)[1])
    h = _heu(a, b)
    if h is None:
        return None
    return Poly(f.variables, {e: Fraction(c) for e, c in h.items()}).normalized()


def _heu(a: dict, b: dict):
    """Gcd, up to sign, of two nonzero integer polynomials (exponent -> int), or None."""
    ca, cb = int_gcd(*a.values()), int_gcd(*b.values())
    cont = int_gcd(ca, cb)
    n = len(next(iter(a)))
    if not any(map(any, a)) or not any(map(any, b)):
        return {(0,) * n: cont}
    main = next(i for i in range(n) if any(e[i] for e in a) or any(e[i] for e in b))
    a = {e: c // ca for e, c in a.items()}
    b = {e: c // cb for e, c in b.items()}
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(HEURISTIC_TRIES):
        alpha, beta = _eval_at(a, main, xi), _eval_at(b, main, xi)
        gamma = _heu(alpha, beta) if alpha and beta else None
        if gamma is not None:
            cand = _balanced_digits(gamma, main, xi)
            c = int_gcd(*cand.values())
            cand = {e: v // c for e, v in cand.items()}
            if _int_div(dict(a), cand) is not None and _int_div(dict(b), cand) is not None:
                return {e: v * cont for e, v in cand.items()}
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _eval_at(a: dict, i: int, xi: int) -> dict:
    """a with variable index i set to xi (its exponent slot set to 0)."""
    powers: dict = {}
    out: dict = {}
    for e, c in a.items():
        p = e[i]
        if p not in powers:
            powers[p] = xi ** p
        key = e[:i] + (0,) + e[i + 1:]
        out[key] = out.get(key, 0) + c * powers[p]
    return {e: c for e, c in out.items() if c}


def _balanced_digits(gamma: dict, i: int, xi: int) -> dict:
    """The polynomial G with G(x_i = xi) = gamma and coefficients in (-xi/2, xi/2]."""
    out = {}
    half = xi // 2
    k = 0
    while gamma:
        rest = {}
        for e, c in gamma.items():
            r = c % xi
            if r > half:
                r -= xi
            if r:
                out[e[:i] + (k,) + e[i + 1:]] = r
            if c != r:
                rest[e] = (c - r) // xi
        gamma = rest
        k += 1
    return out


@cache
def _unit(variables) -> Poly:
    """The constant 1 over ``variables``, one Poly per variable tuple: every
    polynomial or zero RationalFunction shares it as its denominator."""
    return Poly.constant(1, variables)


def _wrapped(num: Poly, den: Poly) -> "RationalFunction":
    """num/den as they stand, for a pair that is already a reduced, normalized
    RationalFunction: none of ``RationalFunction.__init__``'s checks runs."""
    out = object.__new__(RationalFunction)
    out.num = num
    out.den = den
    return out


class RationalFunction:
    """Reduced quotient of two Polys over a common variable tuple."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = _unit(num.variables)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num._check(den)
        if num.is_zero():
            den = _unit(num.variables)
        elif not den.is_constant():
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
        return _wrapped(p, _unit(p.variables))

    @classmethod
    def constant(cls, c, variables) -> "RationalFunction":
        return cls.from_poly(Poly.constant(c, variables))

    @staticmethod
    @cache
    def zero(variables) -> "RationalFunction":
        """The zero over the variable tuple, one shared object per tuple."""
        return _wrapped(Poly.zero(variables), _unit(variables))

    @classmethod
    def sum_of_products(cls, pairs, variables) -> "RationalFunction":
        """Sum of u*v over (u, v) pairs of RationalFunctions, exactly: one
        group of ``sums_of_products``."""
        return next(cls.sums_of_products([list(pairs)], variables))

    @classmethod
    def sums_of_products(cls, groups, variables):
        """Each group's exact sum of u*v over its (u, v) pairs of RationalFunctions, in order.

        ``groups`` is a list of lists of pairs.  On the first ``next`` every
        factor object of every group is read once: whether it is
        polynomial, and its packed numerator, at one field width W for all
        the groups and scaled to one integer denominator L, the lcm of
        theirs.  Each group is summed only when the caller reaches it, in
        its own accumulator, split into parts by u.den * v.den (a polynomial
        factor counts as 1, so polynomial products are one part); part i's
        keys are its packed monomials plus i << (W*n), above every monomial
        field, which no carry reaches (``PACK_BITS``), and its coefficients
        are L^2 times its numerator products' sum.  A group whose parts all
        vanish, or cancel across denominators, yields the shared ``zero``;
        otherwise each nonzero part is unpacked once into one
        RationalFunction, one gcd reduction per part and none for a
        polynomial part.
        """
        variables = tuple(variables)
        factors = {id(f): f for pairs in groups for pair in pairs for f in pair}
        width, scale, form = PACK_BITS, 1, {}
        if factors:
            width, forms = _packed_forms([f.num for f in factors.values()])
            scale = lcm(*(d for d, _ in forms))
            unit = _unit(variables)
            form = {key: (None if f.den is unit or f.den.is_constant() else f.den, scale // d, terms)
                    for key, f, (d, terms) in zip(factors, factors.values(), forms)}
        shift = width * len(variables)
        mask = (1 << shift) - 1
        zero = cls.zero(variables)
        for pairs in groups:
            acc: dict = {}
            index: dict = {}        # part denominator -> its offset
            for u, v in pairs:
                du, su, tu = form[id(u)]
                dv, sv, tv = form[id(v)]
                den = dv if du is None else du if dv is None else du * dv
                offset = index.get(den)
                if offset is None:
                    offset = index[den] = len(index) << shift
                _add_product(acc, tu, tv, su * sv, offset)
            if not any(acc.values()):
                yield zero
                continue
            split = [acc]
            if len(index) > 1:
                split = [{} for _ in index]
                for key, c in acc.items():
                    split[key >> shift][key & mask] = c
            total = None
            for den, terms in zip(index, split):
                num = _unpack(terms, scale * scale, variables, width)
                if not num.is_zero():
                    part = cls(num, den)
                    total = part if total is None else total + part
            yield zero if total.is_zero() else total

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
        return _wrapped(-self.num, self.den)

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

    def partials(self) -> dict:
        """{i: d self / d x_i} over the nonzero partials, in variable order.

        A polynomial is differentiated in one pass over its terms
        (``_poly_partials``), each partial a packed form only, wrapped as
        built over the polynomial's own denominator 1 (``_wrapped``): a
        partial is nonzero and over 1, so it is reduced and normalized
        already and no check of ``__init__`` runs.  A quotient goes through
        ``diff``, only in the variables its numerator or denominator holds.
        ``diff`` stays the oracle.
        """
        if self.den.is_constant():
            den = self.den
            return {i: _wrapped(d, den) for i, d in _poly_partials(self.num).items()}
        held = {i for p in (self.num, self.den) for e in p.terms
                for i, k in enumerate(e) if k}
        out = {}
        for i in sorted(held):
            d = self.diff(self.variables[i])
            if not d.is_zero():
                out[i] = d
        return out

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
