"""The model catalog: flat blocks, Toda lattices, the 3-dimensional
examples m_f (flat exactly when f is functionally additive;
normal_form_phi normalizes f over truncated series, which are Polys with no
term above the order it holds), the quadratic-family counterexample (flat
exactly when eta is affine) and the sl2 argument shift, each packaged with
its Casimir families, genericity predicate and expected outcomes declared
from the construction.  The flatness of every 3-dimensional model is
decided from its bracket tables by ``casimir.web_flatness``.

A builder reads its own parameters, as Python values or as the text of a
catalog spec (``open_toda:k=2``, ``sl2_shift:alpha=0;1;0``), so its
signature is the one list of what a model takes: make_model refuses a
parameter the builder does not take and a missing required one, and a new
model needs a builder and a CATALOG_BUILDERS entry only.  Every input error
raised here is a ValidationError.

A builder states its variables, its two bracket tables, its families, its
genericity list and its expectations, and returns ``_model(...)``, the one
assembly path: it builds both PoissonStructures and the BihamStructure and
attaches each family only after family_check certifies it.  Every
structure built here passes its Jacobi/compatibility certificates exactly.
Everything is exact: the package has no floating-point code path.
"""

import inspect
from dataclasses import dataclass, field
from fractions import Fraction

from .casimir import LambdaFamily, family_check
from .errors import InternalInconsistency, ValidationError
from .exactalg import (Poly, RationalFunction, compose, is_json_int, parse_int, parse_poly, rat,
                       rat_str, truncate)
from .pencil import jordan_rows, kronecker_rows
from .poisson import BihamStructure, PoissonStructure

DEFAULT_TRUNCATION = 6
MAX_TRUNCATION = 20     # a dense germ on a 2-vCPU Xeon: 1.2 s at order 20, 7.8 s at 30
# `normalform`'s flatness step reads the whole germ, so its degree is bounded
# too: a dense germ (coefficients 1-3), end to end on 2 vCPUs of an AMD EPYC,
# takes 0.24 s at degree 12, 1.5 s at 20, 3.1 s at 24, 6.2 s at 28, 10.7 s at 32
MAX_GERM_DEGREE = 20
# Largest size parameter k of each builder, checked before anything is built.
# Single runs on 2 vCPUs, the first two lines on a Xeon and the Toda lines on
# an AMD EPYC; "analyze" is `biham analyze <spec> --samples 20 --seed 0`.
MAX_FLAT_KRONECKER_K = 20   # analyze 3.4 s at k = 20, 61 s at 40 (building: under 0.2 s)
MAX_JORDAN_K = 20           # analyze 3.8 s at k = 20, 58 s at 40 (building: under 0.1 s)
MAX_OPEN_TODA_K = 11        # building 1.2 s at k = 11 (analyze 3.5 s), 3.3 s at 12
MAX_PERIODIC_TODA_K = 12    # building 1.9 s at k = 12 (analyze 6.7 s), 5.6 s at 13


@dataclass
class ModelSpec:
    """A catalog structure with its families and declared expectations."""

    name: str
    params: dict
    structure: BihamStructure
    families: list = field(default_factory=list)
    genericity: list = field(default_factory=list)     # polynomials required nonzero
    expectations: dict = field(default_factory=dict)
    chains: list = field(default_factory=list)          # LenardChains of a structure file

    @property
    def dim(self) -> int:
        return self.structure.dim

    @property
    def variables(self) -> tuple:
        return self.structure.variables


def _check_size(k, bound: int) -> int:
    """The size parameter k as an int in 1..bound; a spec gives it as text."""
    if isinstance(k, str):
        try:
            k = parse_int(k)
        except ValidationError:
            pass
    if not is_json_int(k):
        raise ValidationError(f"parameter 'k' needs an integer, got {k!r}")
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > bound:
        raise ValidationError(f"k must be at most {bound}, got {k}")
    return k


def _model(name: str, params: dict, variables, t1: dict, t2: dict, expectations: dict,
           genericity=(), families=()) -> ModelSpec:
    """The catalog model on ``variables`` with bracket tables t1 and t2; each
    family is attached only after ``family_check`` certifies it."""
    structure = BihamStructure(PoissonStructure(variables, t1), PoissonStructure(variables, t2))
    for fam in families:
        cert = family_check(structure, fam)
        if not cert.ok:
            raise InternalInconsistency(
                f"{name}: attached family failed its certificate: {cert.detail}")
    return ModelSpec(name, params, structure, list(families), list(genericity), expectations)


def _table(rows) -> dict:
    """The bracket table of a skew matrix: its nonzero entries above the diagonal."""
    return {(i, j): c for i, row in enumerate(rows) for j, c in enumerate(row) if j > i and c}


def _rf(p: Poly) -> RationalFunction:
    return RationalFunction.from_poly(p)


# -- flat Kronecker block -------------------------------------------------------


def flat_kronecker(k: int) -> ModelSpec:
    """Constant-coefficient odd block of dimension 2k-1.

    First bracket pairs x_{2l} with x_{2l+1}, second pairs x_{2l+1} with
    x_{2l+2}; the attached family is x_0 + lam x_2 + ... + lam^{k-1} x_{2k-2}.
    """
    k = _check_size(k, MAX_FLAT_KRONECKER_K)
    n = 2 * k - 1
    variables = tuple(f"x{i}" for i in range(n))
    a, b = kronecker_rows(k)
    coeffs = tuple(_rf(Poly.variable(name, variables)) for name in variables[::2])
    return _model(f"flat_kronecker(k={k})", {"k": k}, variables, _table(a), _table(b),
                  {"pencil_type": f"{{K{n}}}", "criterion": "KroneckerCertified",
                   "integrability": "StrictlyLenardIntegrable"},
                  families=[LambdaFamily(coeffs, name="coordinate family")])


# -- Jordan model ----------------------------------------------------------------


def jordan_model(k: int, mu) -> ModelSpec:
    """Constant structure of dimension 2k modeled on a Jordan block with
    eigenvalue mu (mu = "inf" supported)."""
    k = _check_size(k, MAX_JORDAN_K)
    mu = "inf" if mu == "inf" else rat(mu)
    a, b = jordan_rows(k, mu)
    mu_s = "inf" if mu == "inf" else rat_str(mu)
    label = f"J{2 * k}(mu={mu_s})"      # the block's label, written from its construction
    return _model(f"jordan_model(k={k},mu={mu_s})", {"k": k, "mu": mu},
                  tuple(f"z{i}" for i in range(2 * k)), _table(a), _table(b),
                  {"pencil_type": "{" + label + "}", "criterion": None,
                   "integrability": "JordanObstructed"})


# -- open Toda lattice -----------------------------------------------------------


def _toda_tables(variables, periodic: bool):
    """Bracket tables shared by the open and periodic lattices.

    Adjacent pairs: {v_i, v_{i+1}}_1 = -v_odd and {v_i, v_{i+1}}_2 =
    -v_i v_{i+1}; next-to-adjacent: {v_{2l}, v_{2l+2}}_2 = -2 v_{2l+1}^2 and
    {v_{2l-1}, v_{2l+1}}_2 = -(1/2) v_{2l-1} v_{2l+1}.  Indices are cyclic;
    on the open chain ``fold`` drops a pair that leaves 0..n-1, and keeps
    every other entry as it stands, since each coordinate an entry's
    coefficient reads lies between the pair's indices.
    """
    n = len(variables)
    vs = [Poly.variable(name, variables) for name in variables]

    def v(i):
        return vs[i % n]

    def fold(table, i, j, coeff):
        if not (periodic or (0 <= i < n and 0 <= j < n)):
            return
        i %= n
        j %= n
        if i == j:
            raise ValidationError("bracket table wraps onto the diagonal")
        key, value = ((i, j), coeff) if i < j else ((j, i), -coeff)
        if key in table and table[key] != value:
            raise ValidationError(f"contradictory wrap-around entry {key}")
        table[key] = value

    t1: dict = {}
    t2: dict = {}
    for i in range(0, n, 2):
        fold(t1, i, i + 1, -v(i + 1))
        fold(t2, i, i + 1, -v(i) * v(i + 1))
        fold(t1, i, i - 1, v(i - 1))
        fold(t2, i, i - 1, v(i) * v(i - 1))
        fold(t2, i, i + 2, -2 * v(i + 1) * v(i + 1))
        fold(t2, i - 1, i + 1, Fraction(-1, 2) * v(i - 1) * v(i + 1))
    return t1, t2


def _tridiagonal_det(diag, off):
    """det of the symmetric 3-diagonal matrix with diagonal D and off-diagonal b,
    by the three-term recurrence d_i = D_i d_{i-1} - b_{i-1}^2 d_{i-2}."""
    prev, cur = 0, 1
    for i, d in enumerate(diag):
        prev, cur = cur, d * cur - (off[i - 1] ** 2 * prev if i else 0)
    return cur


def open_toda(k: int) -> ModelSpec:
    """The open lattice on 2k+1 coordinates with its characteristic family.

    The family is det(iota(v) + lam I) - lam^{k+1}, degree k in lam, the
    shifted determinant of the symmetric 3-diagonal matrix iota(v), by the
    three-term recurrence (``_tridiagonal_det``); it is Casimir for
    lam{,}_1 + {,}_2 because the shift by lam along even coordinates
    translates the second bracket into the pencil combination.
    """
    k = _check_size(k, MAX_OPEN_TODA_K)
    n = 2 * k + 1
    variables = tuple(f"v{i}" for i in range(n))
    ext = variables + ("lam",)
    lam = Poly.variable("lam", ext)
    det = _tridiagonal_det([Poly.variable(name, ext) + lam for name in variables[::2]],
                           [Poly.variable(name, ext) for name in variables[1::2]])
    return _model(f"open_toda(k={k})", {"k": k}, variables,
                  *_toda_tables(variables, periodic=False),
                  {"pencil_type": f"{{K{n}}}", "criterion": "KroneckerCertified",
                   "integrability": "StrictlyLenardIntegrable"},
                  genericity=[Poly.variable(name, variables) for name in variables[1::2]],
                  families=[_lambda_family(det, k + 1, 1, "characteristic family")])


def _lambda_family(p: Poly, top: int, lead, name: str) -> LambdaFamily:
    """The family of p - lead * lam^top, for a Poly p over the coordinates and
    a last variable lam whose lam^top coefficient is the constant lead."""
    parts = p.split_by("lam")
    rest = p.variables[:-1]
    c = parts.get(top)
    if c is None or not c.is_constant() or c.constant_value() != lead:
        raise InternalInconsistency(f"{name} has wrong leading term")
    return LambdaFamily(tuple(_rf(parts.get(k, Poly.zero(rest))) for k in range(top)),
                        name=name)


# -- periodic Toda lattice -------------------------------------------------------


def periodic_toda(k: int) -> ModelSpec:
    """The periodic lattice on 2k coordinates (k >= 3).

    Carries the odd-product Casimir N of both brackets and the monodromy
    trace family: the product of transfer matrices at the shifted argument
    v + lam v0 has trace lam-polynomial of degree k with leading coefficient
    (-1)^k, and subtracting that top term leaves a degree k-1 family.
    Period 4 is rejected: its wrap-around bracket table is contradictory.
    """
    k = _check_size(k, MAX_PERIODIC_TODA_K)
    if k < 3:
        raise ValidationError("periodic lattice needs k >= 3")
    variables = tuple(f"v{i}" for i in range(2 * k))
    trace = _monodromy_trace_shifted(variables + ("lam",), k)
    # N = v_1 v_3 ... v_{2k-1}, one monomial
    odd_product = Poly(variables, {tuple(i % 2 for i in range(2 * k)): Fraction(1)})
    return _model(f"periodic_toda(k={k})", {"k": k}, variables,
                  *_toda_tables(variables, periodic=True),
                  {"pencil_type": f"{{K1, K{2 * k - 1}}}", "criterion": "HomogeneousIndicated",
                   "integrability": "StrictlyLenardIntegrable"},
                  genericity=[Poly.variable(name, variables) for name in variables[1::2]],
                  families=[_lambda_family(trace, k, (-1) ** k, "monodromy trace family"),
                            LambdaFamily((_rf(odd_product),), name="odd-product Casimir")])


def _monodromy_trace_shifted(ext, k: int) -> Poly:
    """Trace of m_k ... m_1 with even coordinates shifted by +lam.

    Transfer matrices m_l = [[0, v_{2l+1}], [-v_{2l-1}, -(v_{2l}+lam)]]
    with cyclic index arithmetic on period 2k."""
    n = 2 * k
    lam = Poly.variable("lam", ext)
    zero = Poly.zero(ext)

    def v(i):
        return Poly.variable(f"v{i % n}", ext)

    prod = None
    for l in range(1, k + 1):
        m = [[zero, v(2 * l + 1)],
             [-v(2 * l - 1), -(v(2 * l) + lam)]]
        prod = m if prod is None else _mat2_mul(m, prod)
    return prod[0][0] + prod[1][1]


def _mat2_mul(a, b):
    return [[a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]]]


def periodic_casimirs(model: ModelSpec) -> tuple:
    """The two first-bracket Casimirs of a ``periodic_toda`` model: the sum of
    the even coordinates and the odd product, its second family's coefficient."""
    variables = model.variables
    even_sum = sum((Poly.variable(name, variables) for name in variables[::2]),
                   Poly.zero(variables))
    return _rf(even_sum), model.families[1].coeffs[0]


# -- the 3-dimensional pool: m_f is flat exactly when f = C(a(x) + b(y)) ------
# (x + y and x + y + x*y are flat; x + y + x^2*y is not; web_flatness decides)


def m_f(f) -> ModelSpec:
    """3-dimensional structure on (x, y, z) built from a function of (x, y):
    {x,z}_1 = df/dy and {y,z}_2 = -df/dx, all other coordinate brackets zero.

    The closed-form family lam*y + x is attached exactly when f = x + y.
    """
    fvars = ("x", "y")
    if isinstance(f, str):
        f = parse_poly(f, fvars)
    elif not isinstance(f, Poly):
        raise ValidationError("f must be a polynomial in x, y or its text form")
    if f.variables != fvars:
        f = f.embed(fvars)
    variables = ("x", "y", "z")
    fx = f.diff("x").embed(variables)
    fy = f.diff("y").embed(variables)
    if fx.is_zero() or fy.is_zero():
        raise ValidationError("both partial derivatives must be nonzero")
    linear = f == parse_poly("x + y", fvars)
    families = [LambdaFamily((_rf(Poly.variable("x", variables)),
                              _rf(Poly.variable("y", variables))),
                             name="linear family")] if linear else []
    return _model(f"m_f({f})", {"f": str(f)}, variables, {(0, 2): fy}, {(1, 2): -fx},
                  {"pencil_type": "{K3}", "criterion": "KroneckerCertified" if linear else None,
                   "integrability": "StrictlyLenardIntegrable" if linear else None},
                  genericity=[fx, fy], families=families)


def two_family_model(eta) -> ModelSpec:
    """Quadratic-family structure on (L, y, z) built from a one-variable
    polynomial eta of degree >= 1.

    zeta is the antiderivative of -t eta'(t) with zero constant term, and
    x(L, y) = L^2 y + zeta(L).  The brackets {x,z}_1 = F_y and {y,z}_2 =
    -F_x of the underlying 3-dimensional model m_F, F = F_1, are transported
    into the (L, y, z) chart by the chain rule {g,z} = D_x(g) {x,z} +
    D_y(g) {y,z} (``_two_family_chart``), giving rational coefficients with
    excluded locus 2 L y + zeta'(L) = 0.  The attached family (lam - L)^2 y
    + zeta(L) + lam eta(L) is quadratic in lam and passes its certificate
    exactly; the structure is flat precisely when eta is affine, which
    ``casimir.web_flatness`` reads off these brackets: its dγ is
    -K x_L dL∧dy, K the Blaschke curvature of the web {x = c}, {y = c},
    {F_1 = c} in the (x, y) chart.
    """
    if isinstance(eta, str):
        eta = parse_poly(eta, ("t",))
    elif not isinstance(eta, Poly) or eta.variables != ("t",):
        raise ValidationError("eta must be a polynomial in t or its text form")
    if eta.degree_in("t") < 1:
        raise ValidationError("eta must have degree >= 1")
    variables = ("L", "y", "z")
    L = Poly.variable("L", variables)
    y = Poly.variable("y", variables)
    f1, x, eta_L, dx, dy = _two_family_chart(eta, variables)
    fx, fy = dx(f1), dy(f1)
    return _model(f"two_family(eta={eta})", {"eta": eta}, variables,
                  {(0, 2): dx(_rf(L)) * fy}, {(0, 2): -dy(_rf(L)) * fx, (1, 2): -fx},
                  {"pencil_type": "{K3}", "criterion": "Inconclusive",
                   "integrability": "StrictlyLenardIntegrable"},
                  # the chart needs the locus 2Ly + zeta'(L) = L(2y - eta'(L)) != 0
                  # and f_x, f_y != 0, which excludes L = 1 (both partials of the
                  # defining function carry the factor 1 - L)
                  genericity=[L, Poly.constant(1, variables) - L,
                              2 * y - _poly_in(eta.diff("t"), L, variables)],
                  families=[LambdaFamily((_rf(x), _rf(eta_L - 2 * L * y), _rf(y)),
                                         name="quadratic family")])


def _two_family_chart(eta: Poly, variables) -> tuple:
    """F_1, x, eta(L) and the derivations d/dx, d/dy of the (x, y) chart, in (L, y).

    x = L^2 y + zeta(L), zeta the antiderivative of -t eta'(t) with zero
    constant term, and F_1 = (1-L)^2 y + zeta(L) + eta(L) as a
    RationalFunction.  Holding y fixed, d/dx = x_L^-1 d/dL; holding x
    fixed, d/dy = d/dy - x_y x_L^-1 d/dL.  Each derivation maps a
    RationalFunction over ``variables`` to one.
    """
    L = Poly.variable("L", variables)
    y = Poly.variable("y", variables)
    zeta = _antiderivative(-1 * Poly.variable("t", ("t",)) * eta.diff("t"))
    eta_L = _poly_in(eta, L, variables)
    x = L * L * y + _poly_in(zeta, L, variables)
    x_L = x.diff("L")
    if x_L.is_zero():
        raise ValidationError("excluded locus covers the whole chart")
    inv_x_L = RationalFunction(Poly.constant(1, variables), x_L)
    x_y_over_x_L = RationalFunction(x.diff("y"), x_L)

    def dx(g):
        return g.diff("L") * inv_x_L

    def dy(g):
        return g.diff("y") - g.diff("L") * x_y_over_x_L

    return _rf(x - 2 * L * y + eta_L + y), x, eta_L, dx, dy


def _antiderivative(p: Poly) -> Poly:
    """The antiderivative in t with zero constant term."""
    return Poly(p.variables, {(k + 1,): c / (k + 1) for (k,), c in p.terms.items()})


def _poly_in(p: Poly, base: Poly, variables) -> Poly:
    """p(base) for a Poly p in t and a Poly base over ``variables``."""
    return sum((base ** k * c for (k,), c in p.terms.items()), Poly.zero(variables))


# -- sl2 argument shift -----------------------------------------------------------


def sl2_shift(alpha) -> ModelSpec:
    """Argument-shift pair on the dual of sl2.

    Coordinates (e, h, f) are the linear functions of the basis with
    [h,e] = 2e, [h,f] = -2f, [e,f] = h, so the linear bracket reads
    {e,h}_2 = -2e, {e,f}_2 = h, {h,f}_2 = -2f, and the frozen bracket
    evaluates those coefficients at alpha.  The quadratic invariant is
    Q = h^2 + 4ef (the determinant form); alpha must satisfy Q(alpha) != 0.
    The family is Q(x + lam alpha) - lam^2 Q(alpha), degree 1.  A spec
    gives alpha as text "a;b;c"; from Python it is a list or tuple.
    """
    if isinstance(alpha, str):
        alpha = alpha.split(";")
    if not isinstance(alpha, (list, tuple)) or len(alpha) != 3:
        raise ValidationError("alpha must have 3 components")
    ae, ah, af = alpha = tuple(rat(a) for a in alpha)
    q_alpha = ah * ah + 4 * ae * af
    if q_alpha == 0:
        raise ValidationError("shift vector has vanishing quadratic invariant")
    variables = ("e", "h", "f")
    e = Poly.variable("e", variables)
    h = Poly.variable("h", variables)
    f = Poly.variable("f", variables)
    q = h * h + 4 * e * f
    polar = 2 * ah * h + 4 * af * e + 4 * ae * f
    return _model(f"sl2_shift(alpha=({ae},{ah},{af}))", {"alpha": alpha}, variables,
                  {(0, 1): -2 * ae, (0, 2): ah, (1, 2): -2 * af},   # frozen at alpha
                  {(0, 1): -2 * e, (0, 2): h, (1, 2): -2 * f},      # linear
                  {"pencil_type": "{K3}", "criterion": "KroneckerCertified",
                   "integrability": "StrictlyLenardIntegrable"},
                  genericity=[q, h * ae - e * ah],
                  families=[LambdaFamily((_rf(q), _rf(polar)), name="shifted invariant")])


# -- normal form of the 3-dimensional models --------------------------------------


@dataclass(frozen=True)
class NormalFormResult:
    phi: Poly           # no term above the truncation order
    additive: bool      # phi = x' + y' through the order
    changes: dict       # the coordinate changes "A", "B", "C" as Polys in s


def normal_form_phi(f: Poly, order: int = DEFAULT_TRUNCATION) -> NormalFormResult:
    """Reduce a two-variable germ to the normalized shape order by order.

    The coordinate changes x = A(x'), y = B(y'), f' = C(f) are solved so
    the reduced germ phi satisfies: phi(0, y') = y', d(phi)/dx' = 1 along
    x' = 0, and the two first partials agree along y' = 0.  ``additive``
    means phi = x' + y' through the truncation order; flatness itself is
    ``casimir.web_flatness``'s verdict on m_f, exact at every order.  A
    non-additive phi is determined only up to the residual simultaneous
    scaling of (x', y', phi): the normalization forces every coefficient of
    x' y'^j (j >= 1) to vanish, so the mixed second derivative cannot fix it.
    """
    _check_truncation(order)
    if len(f.variables) != 2:
        raise ValidationError("normal form needs a two-variable germ")
    n = order
    f = truncate(f, n)
    xv, yv = f.variables
    if (0, 0) in f.terms:
        raise ValidationError("germ must vanish at the base point")
    a = f.terms.get((1, 0), 0)
    b = f.terms.get((0, 1), 0)
    if a == 0 or b == 0:
        raise ValidationError("both first partials must be nonzero at the base point")

    # order-1 normalization: c1 * a * a1 = 1 and c1 * b * b1 = 1
    A = {1: 1 / a}
    C = {1: 1 / (a * A[1])}
    B = {1: (a * A[1]) / b}

    sv = ("s",)
    s = Poly.variable("s", sv)
    zero = Poly.zero(sv)
    f_x = f.diff(xv)
    f_y = f.diff(yv)
    g = compose(f, {xv: zero, yv: s}, n)            # f(0, s)
    q0 = compose(f_x, {xv: zero, yv: s}, n)         # f_x(0, s)
    hx = compose(f_x, {xv: s, yv: zero}, n)         # f_x(s, 0)
    hy = compose(f_y, {xv: s, yv: zero}, n)         # f_y(s, 0)

    def univ(d):
        return Poly(sv, {(k,): v for k, v in d.items()})

    def identities(As, Bs, Cs):
        """Residuals of phi(0, y') = y', of d(phi)/dx' = 1 along x' = 0 and
        of the diagonal-derivative matching along y' = 0."""
        P = compose(g, {"s": Bs}, n)
        e1 = compose(Cs, {"s": P}, n) - s
        e2 = compose(Cs.diff("s"), {"s": P}, n) * compose(q0, {"s": Bs}, n) * A[1] - 1
        e3 = compose(hx, {"s": As}, n) * As.diff("s") - B[1] * compose(hy, {"s": As}, n)
        return e1, e2, e3

    # c_m from e2, a_m from e3 and b_m from e1, each linear in its unknown;
    # e1 is summed before c_m is known, and c_m adds c_m (b b_1)^m at order m
    bb1 = b * B[1]
    for m in range(2, n + 1):
        e1, e2, e3 = (e.terms for e in identities(univ(A), univ(B), univ(C)))
        C[m] = -e2.get((m - 1,), 0) / (m * bb1 ** (m - 1) * a * A[1])
        A[m] = -e3.get((m - 1,), 0) / (m * a)
        B[m] = -(e1.get((m,), 0) + C[m] * bb1 ** m) / (C[1] * b)

    As, Bs, Cs = univ(A), univ(B), univ(C)
    # full verification; f_x, f_y and C' are exact only through order n - 1
    res1, res2, res3 = identities(As, Bs, Cs)
    if not (res1.is_zero() and truncate(res2, n - 1).is_zero()
            and truncate(res3, n - 1).is_zero()):
        raise InternalInconsistency("normal-form recursion failed verification")

    Ax = compose(As, {"s": Poly.variable(xv, f.variables)}, n)
    By = compose(Bs, {"s": Poly.variable(yv, f.variables)}, n)
    phi = compose(Cs, {"s": compose(f, {xv: Ax, yv: By}, n)}, n)
    _check_normalization(phi, n)
    additive = phi.terms == {(1, 0): 1, (0, 1): 1}
    return NormalFormResult(phi, additive, {"A": As, "B": Bs, "C": Cs})


def _check_truncation(order: int):
    if order < 1:
        raise ValidationError(f"truncation order must be at least 1, got {order}")
    if order > MAX_TRUNCATION:
        raise ValidationError(f"truncation order must be at most {MAX_TRUNCATION}, "
                              f"got {order}")


def _check_normalization(phi: Poly, n: int):
    c = phi.terms.get
    if c((0, 0), 0) != 0:
        raise InternalInconsistency("phi(0,0) != 0")
    for j in range(0, n):
        want = Fraction(1) if j == 0 else Fraction(0)
        if c((1, j), 0) != want:
            raise InternalInconsistency("d(phi)/dx' not 1 along x'=0")
    if c((0, 1), 0) != 1 or any(c((0, j), 0) != 0 for j in range(2, n + 1)):
        raise InternalInconsistency("phi(0,y') != y'")
    for i in range(0, n):
        if (i + 1) * c((i + 1, 0), 0) != c((i, 1), 0):
            raise InternalInconsistency("diagonal derivative condition fails")


# -- catalog registry ---------------------------------------------------------------


CATALOG_BUILDERS = {
    "flat_kronecker": flat_kronecker,
    "jordan_model": jordan_model,
    "open_toda": open_toda,
    "periodic_toda": periodic_toda,
    "m_f": m_f,
    "two_family": two_family_model,
    "sl2_shift": sl2_shift,
}


def catalog_names() -> list:
    return sorted(CATALOG_BUILDERS)


def make_model(name: str, /, **params) -> ModelSpec:
    """The catalog model ``name`` built from ``params``, Python values or a
    spec's text; the builder's signature is the one list of its parameters."""
    if name not in CATALOG_BUILDERS:
        raise ValidationError(f"unknown catalog model {name!r}; "
                              f"known: {', '.join(catalog_names())}")
    builder = CATALOG_BUILDERS[name]
    accepted = inspect.signature(builder).parameters
    for key in params:
        if key not in accepted:
            raise ValidationError(f"{name} has no parameter {key!r}; "
                                  f"it takes {', '.join(accepted)}")
    for key, p in accepted.items():
        if p.default is p.empty and key not in params:
            raise ValidationError(f"{name} needs parameter {key!r}")
    return builder(**params)
