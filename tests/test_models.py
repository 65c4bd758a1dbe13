"""Catalog models: construction, certificates, expected behavior."""

import random
from fractions import Fraction

import pytest

from biham.casimir import kronecker_criterion, w1_span_dim
from biham.errors import ValidationError
from biham.exactalg import Matrix, Poly, RationalFunction, compose, parse_poly
from biham.models import (catalog_names, flat_kronecker, jordan_model,
                          m_f, make_model, normal_form_phi,
                          open_toda, periodic_casimirs, periodic_toda,
                          sl2_shift, two_family_flatness, two_family_model,
                          web_curvature)
from biham.pencil import decompose

from oracles import (SingularODE, T, cofactor_det, is_generic, mf_casimir_numeric,
                     run_polynomials, s_generic, scaling_equivalent, univariate)


def _pt(*vals):
    return tuple(Fraction(v) for v in vals)


# -- flat blocks -------------------------------------------------------------------

def test_flat_kronecker_brackets():
    m = flat_kronecker(2)
    s = m.structure
    assert s.p1.coeff(0, 1) == 1 and s.p2.coeff(1, 2) == 1
    assert s.p1.coeff(1, 2).is_zero() and s.p2.coeff(0, 1).is_zero()
    assert [str(c) for c in m.families[0].coeffs] == ["x0", "x2"]


def test_flat_kronecker_k1_degenerate_case():
    m = flat_kronecker(1)
    assert m.dim == 1
    assert not m.structure.p1.table and not m.structure.p2.table
    assert [str(c) for c in m.families[0].coeffs] == ["x0"]
    v = kronecker_criterion(m.structure, m.families, m.structure.point_analysis(_pt(4)))
    assert v.outcome == "KroneckerCertified" and v.type_dims == (1,)


def test_flat_kronecker_k3_family():
    m = flat_kronecker(3)
    assert [str(c) for c in m.families[0].coeffs] == ["x0", "x2", "x4"]


def test_flat_kronecker_first_bracket_casimir():
    # the top even coordinate is the single independent Casimir of the
    # first bracket: it passes the certificate and the corank is 1
    m = flat_kronecker(3)
    s = m.structure
    top = Poly.variable("x4", s.variables)
    assert s.p1.is_casimir(top).ok
    assert s.p1.corank_at(tuple(Fraction(0) for _ in range(5))) == 1


# -- jordan models ------------------------------------------------------------------

def test_jordan_model_matrices():
    m = jordan_model(1, 2)
    s = m.structure
    assert s.p1.bivector_at(_pt(0, 0)) == Matrix.from_rows([[0, 2], [-2, 0]])
    assert s.p2.bivector_at(_pt(0, 0)) == Matrix.from_rows([[0, 1], [-1, 0]])


def test_jordan_model_inf():
    m = jordan_model(1, "inf")
    s = m.structure
    assert s.p1.bivector_at(_pt(0, 0)) == Matrix.from_rows([[0, 1], [-1, 0]])
    assert s.p2.bivector_at(_pt(0, 0)).is_zero()
    t = decompose(s.pencil_at(_pt(3, 4)))
    assert t.label() == "{J2(mu=inf)}"


def test_jordan_model_k2_block():
    m = jordan_model(2, 0)
    t = decompose(m.structure.pencil_at(_pt(0, 0, 0, 0)))
    assert len(t.blocks) == 1
    assert t.blocks[0].dimension() == 4 and t.blocks[0].mu_label() == 0


@pytest.mark.parametrize("k,mu,label", [
    (1, 0, "{J2(mu=0)}"), (1, 2, "{J2(mu=2)}"), (2, -3, "{J4(mu=-3)}"),
    (2, Fraction(1, 2), "{J4(mu=1/2)}"), (3, Fraction(-5, 7), "{J6(mu=-5/7)}"),
    (3, "inf", "{J6(mu=inf)}"),
])
def test_jordan_model_expectation_is_written_from_the_construction(k, mu, label):
    # the expected type comes from (k, mu), not from a run of decompose,
    # so a decompose regression shows up as an analyze mismatch
    m = jordan_model(k, mu)
    assert m.expectations["pencil_type"] == label
    assert decompose(m.structure.pencil_at(_pt(*[1] * 2 * k))).label() == label


# -- open Toda ----------------------------------------------------------------------

def test_open_toda_bracket_table():
    m = open_toda(1)
    s = m.structure
    vs = s.variables
    assert s.p2.coeff(0, 2) == -2 * Poly.variable("v1", vs)**2
    assert s.p1.coeff(0, 1) == -Poly.variable("v1", vs)
    m2 = open_toda(2)
    s2 = m2.structure
    vs2 = s2.variables
    # the odd-odd quarter coefficient
    v1v3 = Poly.variable("v1", vs2) * Poly.variable("v3", vs2)
    assert s2.p2.coeff(1, 3) == Fraction(-1, 2) * v1v3


def test_open_toda_family_k1():
    m = open_toda(1)
    assert [str(c) for c in m.families[0].coeffs] == ["v0*v2 - v1^2", "v0 + v2"]


def test_open_toda_certificates_k3():
    m = open_toda(3)
    assert m.structure.certified()


def test_open_toda_k2_criterion():
    m = open_toda(2)
    pt = _pt(1, 1, 2, 1, 3)
    v = kronecker_criterion(m.structure, m.families, m.structure.point_analysis(pt))
    assert v.outcome == "KroneckerCertified" and v.type_dims == (5,)


def test_open_toda_corank_rule():
    # corank of the first bracket is 2d+1 where d counts vanishing odd
    # coordinates
    m = open_toda(2)
    s = m.structure
    cases = [(_pt(1, 1, 2, 1, 3), 0), (_pt(1, 0, 2, 1, 3), 1),
             (_pt(1, 0, 2, 0, 3), 2), (_pt(5, 1, 2, 0, 3), 1)]
    for pt, d in cases:
        assert s.p1.corank_at(pt) == 2 * d + 1


def test_run_polynomials_product():
    # with a vanishing wall the shifted determinant splits into run factors
    pt = _pt(1, 0, 2, 1, 2)
    polys = run_polynomials(2, pt)
    assert len(polys) == 2
    prod = Poly.constant(1, T)
    for p in polys:
        prod = prod * p
    full = run_polynomials(2, _pt(1, 1, 1, 1, 1))  # sanity: single run
    assert len(full) == 1
    # product equals det(iota(v) + lam I) evaluated coefficient-wise
    m = open_toda(2)
    fam = m.families[0]
    det_coeffs = [c.eval(pt) for c in fam.coeffs] + [Fraction(1)]
    assert prod == univariate(det_coeffs)


def _shifted_jacobi_rows(point, variables, shift):
    # iota(v) + shift*I: v_{2i} on the diagonal, v_{2i+1} beside it
    size = (len(point) + 1) // 2
    zero = Poly.zero(variables)
    rows = [[zero] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = point[2 * i] + shift
        if i + 1 < size:
            rows[i][i + 1] = rows[i + 1][i] = Poly.constant(0, variables) + point[2 * i + 1]
    return rows


def test_toda_recurrence_matches_the_cofactor_determinant():
    # open_toda's family is det(iota(v) + lam I) - lam^(k+1) by the three-term
    # recurrence; the cofactor expansion of the same matrix is the oracle
    for k in range(1, 7):
        variables = tuple(f"v{i}" for i in range(2 * k + 1)) + ("lam",)
        v = [Poly.variable(name, variables) for name in variables[:-1]]
        lam = Poly.variable("lam", variables)
        expected = cofactor_det(_shifted_jacobi_rows(v, variables, lam))
        family = open_toda(k).families[0]
        got = lam ** (k + 1)
        for power, c in enumerate(family.coeffs):
            got = got + c.as_poly().embed(variables) * lam ** power
        assert got == expected, k


def test_run_polynomials_match_the_cofactor_determinant_at_walls():
    # each run polynomial is the determinant of its block of iota(v) + t I
    t = Poly.variable("t", T)
    for k, pt in ((2, _pt(1, 0, 2, 1, 2)), (3, _pt(1, 0, 2, 0, 3, 5, -1)),
                  (4, _pt(2, 3, -1, 0, 4, 1, 1, 0, 7)), (3, _pt(1, 1, 2, 1, 3, 1, 4))):
        walls = [i for i in range(1, 2 * k, 2) if pt[i] == 0]
        cuts = [-1] + walls + [2 * k + 1]
        blocks = [pt[lo + 1:hi] for lo, hi in zip(cuts, cuts[1:])]
        assert run_polynomials(k, pt) == [cofactor_det(_shifted_jacobi_rows(b, T, t))
                                          for b in blocks]


def test_s_generic_classification():
    assert s_generic(2, _pt(1, 1, 2, 1, 3))
    assert s_generic(2, _pt(1, 0, 2, 0, 3))      # distinct run roots
    assert not s_generic(2, _pt(1, 0, 1, 0, 1))  # repeated run roots


# -- periodic Toda ------------------------------------------------------------------

def test_periodic_toda_rejects_k2():
    with pytest.raises(ValidationError, match="periodic lattice needs k >= 3"):
        periodic_toda(2)


def test_periodic_toda_casimirs():
    m = periodic_toda(3)
    even_sum, odd_product = periodic_casimirs(m)
    s = m.structure
    assert s.p1.is_casimir(even_sum).ok
    assert s.p1.is_casimir(odd_product).ok
    assert s.p2.is_casimir(odd_product).ok
    # the even sum is not a Casimir of the second bracket
    assert not s.p2.is_casimir(even_sum).ok


def test_periodic_monodromy_leading_coefficient():
    # at the reflected shift v - lam v0 the trace has leading coefficient +1
    from biham.models import _monodromy_trace_shifted
    ext = tuple(f"v{i}" for i in range(6)) + ("lam",)
    plus = _monodromy_trace_shifted(ext, 3)
    minus = plus.subs({"lam": -Poly.variable("lam", ext)})
    parts = minus.split_by("lam")
    assert parts[3].is_constant() and parts[3].constant_value() == 1


def test_periodic_monodromy_determinant():
    # det(m_k ... m_1) = N^2, so the reduced monodromy has determinant 1
    from biham.models import _mat2_mul
    vs = tuple(f"v{i}" for i in range(6))
    zero = Poly.zero(vs)

    def v(i):
        return Poly.variable(f"v{i % 6}", vs)

    prod = None
    for l in range(1, 4):
        m = [[zero, v(2 * l + 1)], [-v(2 * l - 1), -v(2 * l)]]
        prod = m if prod is None else _mat2_mul(m, prod)
    det = prod[0][0] * prod[1][1] - prod[0][1] * prod[1][0]
    n_poly = v(1) * v(3) * v(5)
    assert det == n_poly * n_poly


def test_periodic_toda_decompose_generic():
    m = periodic_toda(3)
    t = decompose(m.structure.pencil_at(_pt(1, 2, 1, 1, 2, 3)))
    assert t.label() == "{K1, K5}"


def test_periodic_toda_criterion_conjectural():
    m = periodic_toda(3)
    at = m.structure.point_analysis(_pt(1, 2, 1, 1, 2, 3))
    v = kronecker_criterion(m.structure, m.families, at)
    assert v.outcome == "HomogeneousIndicated"
    assert v.type_dims == (5, 1) and v.conjectural
    assert v.cross_check == "{K1, K5}" and v.reason == ""


# -- m_f ----------------------------------------------------------------------------

def test_m_f_linear_brackets_and_family():
    m = m_f("x + y")
    s = m.structure
    assert s.p1.coeff(0, 2) == 1
    assert s.p2.coeff(1, 2) == -1
    assert [str(c) for c in m.families[0].coeffs] == ["x", "y"]


def test_m_f_homogeneous_type_3():
    m = m_f("x + y + x*y")
    rng = random.Random(11)
    hits = 0
    while hits < 5:
        pt = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(3))
        if not is_generic(m, pt):
            continue
        assert decompose(m.structure.pencil_at(pt)).label() == "{K3}"
        hits += 1


def test_m_f_degenerate():
    with pytest.raises(ValidationError, match="both partial derivatives must be nonzero"):
        m_f("7")
    with pytest.raises(ValidationError, match="both partial derivatives must be nonzero"):
        m_f("x^2")   # df/dy vanishes identically


# -- two-family model ----------------------------------------------------------------

def test_two_family_construction_and_locus():
    m = two_family_model("t^2")
    s = m.structure
    assert s.certified()
    # excluded locus: denominators vanish exactly on 2Ly + zeta'(L) = 0,
    # equivalently L (2y - eta'(L)) = 0
    assert any(str(p) for p in s.p1.excluded)
    pt = _pt(2, 3, 1)
    assert is_generic(m, pt)
    assert decompose(s.pencil_at(pt)).label() == "{K3}"


def test_two_family_eta_validation():
    with pytest.raises(ValidationError):
        two_family_model("5")


def test_two_family_zeta_antiderivative():
    # eta = t^2: zeta = -int t * 2t dt = -(2/3) t^3, visible in the
    # constant lambda-coefficient of the family, x = L^2 y + zeta(L)
    m = two_family_model("t^2")
    f0 = m.families[0].coeffs[0]
    vs = m.structure.variables
    expected = parse_poly("L^2*y - 2/3*L^3", vs)
    assert f0 == expected


ETAS = ["t", "3*t", "2*t + 3", "t^2", "t^2 + t", "t^3", "t^3 + 2*t", "t^4", "3*t - t^4"]


def test_two_family_flatness_dichotomy():
    # the web curvature decides eta of every degree: flat exactly when affine
    for eta in ETAS:
        affine = parse_poly(eta, ("t",)).degree_in("t") == 1
        assert two_family_flatness(two_family_model(eta)) == affine, eta


@pytest.mark.parametrize("eta", ETAS)
def test_two_family_chain_rule_brackets_match_the_closed_forms(eta):
    # oracle: the hand-expanded partials F_x = F1_L / x_L and
    # F_y = (F1_y x_L - F1_L x_y) / x_L, with x_y = L^2
    m = two_family_model(eta)
    variables = m.variables
    L = Poly.variable("L", variables)
    y = Poly.variable("y", variables)
    eta_t = parse_poly(eta, ("t",))
    # zeta = -int t eta'(t) dt = sum -k c_k t^(k+1) / (k+1), in L
    zeta_L = Poly(variables, {(k + 1, 0, 0): -k * c / (k + 1) for (k,), c in eta_t.terms.items()})
    eta_L = Poly(variables, {(k, 0, 0): c for (k,), c in eta_t.terms.items()})
    x_of = L * L * y + zeta_L
    f1 = (1 - L) ** 2 * y + zeta_L + eta_L
    x_L = x_of.diff("L")
    f1_L, f1_y = f1.diff("L"), f1.diff("y")
    fx = RationalFunction(f1_L, x_L)
    fy = RationalFunction(f1_y * x_L - f1_L * L * L, x_L)
    inv_x_L = RationalFunction(Poly.constant(1, variables), x_L)
    s = m.structure
    assert s.p1.table == {(0, 2): fy * inv_x_L}
    assert s.p2.table == {(0, 2): fx * inv_x_L * L * L, (1, 2): -fx}


def test_two_family_linear_eta_still_type_k3():
    # the flat member of the family decomposes like the rest of the pool
    m = two_family_model("t")
    pt = _pt(2, 3, 1)
    assert is_generic(m, pt)
    assert decompose(m.structure.pencil_at(pt)).label() == "{K3}"


# -- sl2 ------------------------------------------------------------------------------

def test_sl2_shift_construction():
    m = sl2_shift((0, 1, 0))
    s = m.structure
    # the linear bracket vanishes at the origin
    assert s.p2.bivector_at(_pt(0, 0, 0)).is_zero()
    t = decompose(s.pencil_at(_pt(0, 0, 0)))
    assert not t.is_pure_kronecker()
    assert t.label() == "{K1, J2(mu=inf)}"


def test_sl2_criterion_and_span():
    m = sl2_shift((1, 2, 1))
    pt = _pt(1, 1, 2)
    assert is_generic(m, pt)
    at = m.structure.point_analysis(pt)
    v = kronecker_criterion(m.structure, m.families, at)
    assert v.outcome == "KroneckerCertified" and v.type_dims == (3,)
    assert w1_span_dim(m.structure, m.families, at) == 2


def test_sl2_not_regular():
    with pytest.raises(ValidationError,
                       match="shift vector has vanishing quadratic invariant"):
        sl2_shift((0, 0, 1))


# -- normal form ----------------------------------------------------------------------

V2 = ("x", "y")


def test_normal_form_additive():
    res = normal_form_phi(parse_poly("x + y", V2), 6)
    assert res.additive
    assert res.phi.terms == {(1, 0): Fraction(1), (0, 1): Fraction(1)}


def test_normal_form_factorable_product_is_additive():
    # 1 + x + y + xy = (1+x)(1+y) splits under logarithms, so the germ
    # normalizes to x + y
    res = normal_form_phi(parse_poly("x + y + x*y", V2), 6)
    assert res.additive


def test_normal_form_genuinely_nonflat():
    # the additivity criterion d2/dxdy log(fx/fy) != 0 obstructs flatness
    from biham.exactalg import RationalFunction
    f = parse_poly("x + y + x^2*y", V2)
    ratio = RationalFunction(f.diff("x"), f.diff("y"))
    assert not (ratio.diff("y") / ratio).diff("x").is_zero()
    res = normal_form_phi(f, 6)
    assert not res.additive


def test_normal_form_preconditions():
    with pytest.raises(ValidationError, match="germ must vanish at the base point"):
        normal_form_phi(parse_poly("1 + x + y", V2), 4)
    with pytest.raises(ValidationError,
                       match="both first partials must be nonzero at the base point"):
        normal_form_phi(parse_poly("x + y^2", V2), 4)


FLAT_GERMS = ["x + y", "x + y + x*y", "(x + y)^3 + 5*(x + y)"]
NONFLAT_GERMS = ["x + y + x^2*y", "x + y + x^3*y^3", "x + y + x^4*y", "3*x - y + x^3*y^2"]


@pytest.mark.parametrize("germ,flat", [(g, True) for g in FLAT_GERMS]
                         + [(g, False) for g in NONFLAT_GERMS])
def test_web_curvature_decides_flatness_like_the_order_20_normal_form(germ, flat):
    f = parse_poly(germ, V2)
    assert web_curvature(f).is_zero() == flat
    assert normal_form_phi(f, 20).additive == flat


def test_web_curvature_sees_past_the_truncation():
    # phi is additive through order 4, yet the germ is not flat
    f = parse_poly("x + y + x^3*y^3", V2)
    assert normal_form_phi(f, 4).additive
    assert not web_curvature(f).is_zero()
    with pytest.raises(ValidationError, match="both partial derivatives must be nonzero"):
        web_curvature(parse_poly("x^2", V2))


def test_normal_form_brute_force_oracle_degree_3():
    # independent check: the per-order linear systems are solved by plain
    # affine extraction over the three unknown coefficients and compared
    # against the recursion's output
    rng = random.Random(5)
    for _ in range(4):
        terms = {(1, 0): Fraction(rng.randint(1, 3)),
                 (0, 1): Fraction(rng.randint(1, 3))}
        for e in ((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)):
            terms[e] = Fraction(rng.randint(-2, 2))
        f = Poly(V2, terms)
        got = normal_form_phi(f, 3)
        oracle = _brute_force_normal_form(f, 3)
        assert got.phi.terms == oracle.terms


def _brute_force_normal_form(f: Poly, order: int) -> Poly:
    """Solve the normalization conditions by affine extraction per order."""
    from biham.exactalg import Matrix

    a = f.terms[(1, 0)]
    b = f.terms[(0, 1)]
    coeffs = {"A": {1: 1 / a}, "B": {1: (a * (1 / a)) / b}, "C": {1: 1 / (a * (1 / a))}}

    def residuals(order_now):
        sv = ("s",)
        As = Poly(sv, {(k,): v for k, v in coeffs["A"].items()})
        Bs = Poly(sv, {(k,): v for k, v in coeffs["B"].items()})
        Cs = Poly(sv, {(k,): v for k, v in coeffs["C"].items()})
        g = Poly(sv, {(j,): c for (i, j), c in f.terms.items() if i == 0})
        q0 = Poly(sv, {(j,): c for (i, j), c in f.diff("x").terms.items() if i == 0})
        hx = Poly(sv, {(i,): c for (i, j), c in f.diff("x").terms.items() if j == 0})
        hy = Poly(sv, {(i,): c for (i, j), c in f.diff("y").terms.items() if j == 0})
        P = compose(g, {"s": Bs}, order)
        e1 = compose(Cs, {"s": P}, order) - Poly.variable("s", sv)
        e2 = (compose(Cs.diff("s"), {"s": P}, order) * compose(q0, {"s": Bs}, order)
              * coeffs["A"][1] - 1)
        e3 = (compose(hx, {"s": As}, order) * As.diff("s")
              - coeffs["B"][1] * compose(hy, {"s": As}, order))
        return (e1.terms.get((order_now,), 0), e2.terms.get((order_now - 1,), 0),
                e3.terms.get((order_now - 1,), 0))

    for m in range(2, order + 1):
        # the three residual coefficients are affine in (C_m, A_m, B_m):
        # extract the affine map by evaluating at unit assignments
        base = {"A": 0, "B": 0, "C": 0}
        for key in coeffs:
            coeffs[key][m] = Fraction(0)
        r0 = residuals(m)
        cols = []
        for key in ("C", "A", "B"):
            coeffs[key][m] = Fraction(1)
            r1 = residuals(m)
            coeffs[key][m] = Fraction(0)
            cols.append([r1[i] - r0[i] for i in range(3)])
        mat = Matrix.from_rows([[cols[j][i] for j in range(3)] for i in range(3)])
        # solve mat * u = -r0
        sol = _solve3(mat, [-r for r in r0])
        for key, val in zip(("C", "A", "B"), sol):
            coeffs[key][m] = val
        del base

    sv = ("s",)
    As = Poly(sv, {(k,): v for k, v in coeffs["A"].items()})
    Bs = Poly(sv, {(k,): v for k, v in coeffs["B"].items()})
    Cs = Poly(sv, {(k,): v for k, v in coeffs["C"].items()})
    Ax = Poly(V2, {(k, 0): v for (k,), v in As.terms.items()})
    By = Poly(V2, {(0, k): v for (k,), v in Bs.terms.items()})
    inner = compose(f, {"x": Ax, "y": By}, order)
    return compose(Cs, {"s": inner}, order)


def _solve3(mat, rhs):
    from oracles import perm_det

    rows = mat.to_rows()
    d = perm_det(rows)
    assert d != 0
    out = []
    for j in range(3):
        sub = [[rhs[i] if k == j else rows[i][k] for k in range(3)] for i in range(3)]
        out.append(perm_det(sub) / d)
    return out


def test_normal_form_scaling_equivalence_random():
    # normal forms of f and its C-rescalings agree under the scaling
    # equivalence; inputs have nonzero mixed second derivative
    rng = random.Random(31)
    done = 0
    while done < 5:
        terms = {(1, 0): Fraction(rng.randint(1, 2)), (0, 1): Fraction(rng.randint(1, 2)),
                 (1, 1): Fraction(rng.choice([1, 2, -1]))}
        for e in ((2, 0), (0, 2), (2, 1), (1, 2)):
            terms[e] = Fraction(rng.randint(-2, 2))
        f = Poly(V2, terms)
        c = Fraction(rng.choice([2, 3, -2]))
        fc = Poly(V2, {e: v * c ** (sum(e) - 1) for e, v in f.terms.items()})
        phi1 = _normal_form_verdict(f)
        phi2 = _normal_form_verdict(fc)
        assert scaling_equivalent(phi1, phi2, 5)
        assert scaling_equivalent(phi2, phi1, 5)
        done += 1


def _normal_form_verdict(f, order: int = 5) -> Poly:
    return normal_form_phi(f, order).phi


def test_scaling_equivalent_detects_difference():
    phi1 = Poly(V2, {(1, 0): Fraction(1), (0, 1): Fraction(1), (2, 1): Fraction(1)})
    phi2 = Poly(V2, {(1, 0): Fraction(1), (0, 1): Fraction(1), (2, 1): Fraction(4)})
    phi3 = Poly(V2, {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 2): Fraction(1)})
    assert scaling_equivalent(phi1, phi2, 4)       # C = 2 works: C^2 = 4
    assert not scaling_equivalent(phi1, phi3, 4)   # different support
    phi4 = Poly(V2, {(1, 0): Fraction(1), (0, 1): Fraction(1), (2, 1): Fraction(3)})
    assert not scaling_equivalent(phi1, phi4, 4)   # C^2 = 3 has no rational root


# -- numeric ODE ----------------------------------------------------------------------

def test_mf_casimir_numeric_linear_closed_form():
    m = m_f("x + y")
    val = mf_casimir_numeric(m, 2, (1, 1), steps=1000)
    assert abs(val - 1.5) < 1e-10


def test_mf_casimir_numeric_zero_length_path():
    m = m_f("x + y")
    assert mf_casimir_numeric(m, 1, (0, Fraction(7, 2)), steps=10) == 3.5


def test_mf_casimir_numeric_large_lambda_limit():
    m = m_f("x + y + x*y")
    val = mf_casimir_numeric(m, 10**6, (1, 2), steps=200)
    assert abs(val - 2.0) < 1e-4


def test_mf_casimir_numeric_singular():
    m = m_f("x + y^2")
    with pytest.raises(SingularODE):
        mf_casimir_numeric(m, 1, (1, 0), steps=10)


# -- catalog registry -------------------------------------------------------------------

def test_catalog_registry():
    names = catalog_names()
    assert "open_toda" in names and "two_family" in names
    m = make_model("flat_kronecker", k=2)
    assert m.dim == 3
    with pytest.raises(ValidationError):
        make_model("nope")


@pytest.mark.parametrize("name, params", [
    ("sl2_shift", {"alpha": 5}), ("sl2_shift", {"alpha": None}),
    ("m_f", {"f": 5}), ("m_f", {"f": 1.5}),
], ids=["alpha_int", "alpha_none", "f_int", "f_float"])
def test_make_model_refuses_a_value_of_the_wrong_type(name, params):
    # these used to escape as TypeError and AttributeError
    with pytest.raises(ValidationError):
        make_model(name, **params)


@pytest.mark.parametrize("k", [True, 2.0, "2.0"], ids=["bool", "float", "float_text"])
def test_make_model_refuses_a_size_that_is_not_an_int(k):
    # True is an int to Python, and open_toda(k=True) used to build dimension 3
    with pytest.raises(ValidationError, match="parameter 'k' needs an integer"):
        make_model("open_toda", k=k)
