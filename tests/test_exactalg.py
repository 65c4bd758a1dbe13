"""Rationals, matrices, polynomials, truncated series, smith form."""

import random
from fractions import Fraction

import pytest

from biham.errors import InternalInconsistency, ValidationError
from biham.exactalg import (
    Matrix, Poly, RationalFunction, block_diag, compose, exact_div, factor_monic,
    parse_poly, parse_rational, poly_gcd, primitive_gcd, rat, rat_str,
    smith_invariant_factors, squarefree_decomposition, truncate,
)
from biham.exactalg.smith import _divmod, _monic
from biham.exactalg.upoly import exact_quotient

from oracles import (T, cofactor_det, fraction_squarefree_decomposition, fraction_ugcd,
                     gauss_rank, integer_coefficients, monic_gcd, subs, univariate)


# -- rationals ---------------------------------------------------------------

def test_rat_parsing_roundtrip():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == -7
    assert rat_str(Fraction(-3, 4)) == "-3/4"
    assert rat_str(Fraction(8, 2)) == "4"
    with pytest.raises(ValidationError):
        rat("1/0")
    with pytest.raises(ValidationError):
        rat("x")


# -- matrices ----------------------------------------------------------------

def test_rank_identity_and_zero():
    assert Matrix.identity(3).rank() == 3
    assert Matrix.zero(2).rank() == 0


def test_rank_rank_one_matrix():
    # hand row-reduction: second row is twice the first
    assert Matrix.from_rows([[1, 2], [2, 4]]).rank() == 1


def test_nullspace_examples():
    assert len(Matrix.zero(2).nullspace()) == 2
    ns = Matrix.from_rows([[1, 2], [2, 4]]).nullspace()
    assert len(ns) == 1
    v = ns[0]
    # the span of (2, -1): direct solve
    assert v[0] * (-1) - v[1] * 2 == 0 and any(x != 0 for x in v)
    assert Matrix.identity(4).nullspace() == []


def test_nullspace_is_exact_kernel():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)]
                for _ in range(3)]
        m = Matrix.from_rows(rows)
        basis = m.nullspace()
        assert len(basis) == 5 - m.rank()
        for v in basis:
            assert all(x == 0 for x in m.apply(v))


def test_rank_matches_gaussian_oracle_random():
    rng = random.Random(123)
    for _ in range(40):
        n = rng.randint(1, 6)
        k = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(k)]
                for _ in range(n)]
        assert Matrix.from_rows(rows).rank() == gauss_rank(rows)


def test_rank_transpose_invariance_and_congruence():
    rng = random.Random(5)
    for _ in range(20):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        m = Matrix.from_rows(rows)
        assert m.rank() == m.transpose().rank()
        # invertible P preserves rank
        p = _random_invertible(rng, 4)
        assert (p @ m).rank() == m.rank()


def _random_invertible(rng, n):
    while True:
        p = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if p.rank() == n:
            return p


def test_block_diag_and_skew():
    a = Matrix.from_rows([[0, 1], [-1, 0]])
    b = Matrix.zero(1)
    d = block_diag(a, b)
    assert d.rows == d.cols == 3
    assert d.is_skew()
    assert not Matrix.from_rows([[0, 1], [1, 0]]).is_skew()


# -- polynomials ---------------------------------------------------------------

V = ("x", "y")


def test_poly_arithmetic_and_eval():
    x = Poly.variable("x", V)
    y = Poly.variable("y", V)
    p = (x + y) * (x - y)
    assert p == parse_poly("x^2 - y^2", V)
    assert p.eval((Fraction(3), Fraction(2))) == 5
    assert (x * y).diff("x") == y
    assert p.diff("y") == -2 * y


def test_poly_hash_is_cached_and_agrees_with_equality():
    x = Poly.variable("x", V)
    y = Poly.variable("y", V)
    product = (x + y) * (x - y)
    parsed = parse_poly("x^2 - y^2", V)
    literal = Poly(V, {(2, 0): Fraction(1), (0, 2): Fraction(-1), (1, 1): Fraction(0)})
    first = hash(product)
    assert first == hash(product)
    assert product == parsed == literal
    assert hash(parsed) == hash(literal) == first
    assert len({product, parsed, literal}) == 1
    assert hash(parse_poly("x^2", V)) != first


def test_poly_subs_and_split():
    vs = ("v0", "lam")
    p = parse_poly("v0^2 + lam*v0 + 3", vs)
    shifted = subs(p, {"v0": Poly.variable("v0", vs) + Poly.constant(1, vs)})
    assert shifted == parse_poly("v0^2 + 2*v0 + 1 + lam*v0 + lam + 3", vs)
    parts = p.split_by("lam")
    assert sorted(parts) == [0, 1]
    assert parts[1] == parse_poly("v0", ("v0",))


def test_exact_div_and_gcd():
    p = parse_poly("x^2 - y^2", V)
    q = parse_poly("x + y", V)
    assert exact_div(p, q) == parse_poly("x - y", V)
    assert exact_div(q, p) is None
    g = poly_gcd(parse_poly("x^2*y + x*y^2", V), parse_poly("x*y", V))
    assert g == parse_poly("x*y", V)
    # gcd of coprime polynomials is 1
    assert poly_gcd(parse_poly("x + 1", V), parse_poly("y + 1", V)) == Poly.constant(1, V)


def test_gcd_random_products_cancel():
    rng = random.Random(11)
    for _ in range(15):
        a = _random_poly(rng)
        b = _random_poly(rng)
        c = _random_poly(rng)
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        g = poly_gcd(a * c, b * c)
        # c divides the gcd
        assert exact_div(g, c.normalized()) is not None


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = (rng.randint(0, 2), rng.randint(0, 2))
        terms[e] = Fraction(rng.randint(-3, 3))
    return Poly(V, terms)


def test_poly_det_matches_cofactors():
    x = Poly.variable("x", V)
    one = Poly.constant(1, V)
    rows = [[x, one], [one, x]]
    assert cofactor_det(rows) == parse_poly("x^2 - 1", V)


def test_rational_function_reduction_and_poles():
    r = parse_rational("(x^2 - y^2)/(x + y)", V)
    assert r.is_polynomial() and r.as_poly() == parse_poly("x - y", V)
    r2 = parse_rational("1/(x - y)", V)
    assert r2 + r2 == parse_rational("2/(x - y)", V)
    assert (r2 - r2).is_zero()
    assert r2.eval((Fraction(2), Fraction(1))) == 1
    from biham.errors import PoleAtPoint
    with pytest.raises(PoleAtPoint):
        r2.eval((Fraction(1), Fraction(1)))


def test_rational_denominator_normalization():
    # denominator stored with coprime integer coefficients, positive lead
    r = parse_rational("x/((-2)*x + 2*y)", V)
    assert r.den == parse_poly("x - y", V)
    assert r == parse_rational("(-1/2)*x/(x - y)", V)


def _count_constant_calls(monkeypatch) -> list:
    """Patch Poly.constant to record each call's value; returns the record."""
    calls = []
    build = Poly.constant.__func__

    def counted(cls, c, variables):
        calls.append(c)
        return build(cls, c, variables)

    monkeypatch.setattr(Poly, "constant", classmethod(counted))
    return calls


def test_polynomial_and_zero_results_share_one_unit_denominator(monkeypatch):
    # a polynomial or zero RationalFunction takes its variable tuple's one
    # unit as denominator, so once that exists no Poly.constant call is made
    x = Poly.variable("x", V)
    first = RationalFunction.from_poly(x)
    calls = _count_constant_calls(monkeypatch)
    square = RationalFunction.from_poly(x * x)
    zero = RationalFunction(Poly.zero(V), x)
    cancelled = RationalFunction.sum_of_products([(square, first), (-first, square)], V)
    assert calls == []
    assert cancelled.is_zero()
    assert square.den is first.den is zero.den is cancelled.den
    assert first.den == Poly.constant(1, V)


def test_certificates_build_only_explicit_zero_constants(monkeypatch):
    # fresh certificates of open_toda:k=2: Jacobi, compatibility and the
    # family.  The explicit zeros, a gradient's absent partials and the
    # family's coefficients at lambda^-1 and lambda^(degree+1), are the one
    # shared RationalFunction.zero of the variable tuple, which building the
    # model made, so no Poly.constant call is left; a new zero each made 5.
    # A group the batch zero-test finds zero, an empty one included, is
    # never summed, so no residual builds a zero; summing every relation
    # group made 8, and a new unit per polynomial result 55.
    from biham.casimir import family_check
    from biham.models import open_toda
    from biham.poisson import BihamStructure
    model = open_toda(2)
    b = BihamStructure(model.structure.p1, model.structure.p2)
    calls = _count_constant_calls(monkeypatch)
    assert b.certified() and family_check(b, model.families[0]).ok
    assert calls == []


def test_parser_errors_have_positions():
    with pytest.raises(ValidationError, match="column"):
        parse_poly("x + $", V)
    with pytest.raises(ValidationError, match="unknown variable"):
        parse_poly("x + z", V)
    with pytest.raises(ValidationError):
        parse_poly("x/(y - y)", V)
    with pytest.raises(ValidationError):
        parse_poly("1/(x+y)", V)  # not a polynomial


# -- univariate polynomials and smith form -------------------------------------

def test_upoly_divmod_gcd():
    p = univariate([2, 3, 1])      # (t+1)(t+2)
    q = univariate([1, 1])
    assert _divmod(p, q) == (univariate([2, 1]), Poly.zero(T))
    assert monic_gcd(p, univariate([1, 2, 1])) == univariate([1, 1])
    assert squarefree_decomposition([0, 0, 1]) == [(univariate([0, 1]), 2)]


def test_integer_gcd_and_yun_match_the_fraction_oracle_on_edge_inputs():
    t = Poly.variable("t", T)
    zero, three = Poly.zero(T), Poly.constant(3, T)
    quad = t * t + 1                                  # irreducible over Q
    # zero and constant inputs
    for a, b in ((zero, zero), (zero, quad), (quad, zero), (three, quad), (zero, three)):
        assert monic_gcd(a, b) == fraction_ugcd(a, b)
    assert monic_gcd(zero, zero) == zero and monic_gcd(three, quad) == Poly.constant(1, T)
    for p in (zero, three, Poly.constant(Fraction(-2, 7), T)):
        assert (squarefree_decomposition(integer_coefficients(p))
                == fraction_squarefree_decomposition(p) == [])
    assert squarefree_decomposition([]) == squarefree_decomposition([5]) == []
    assert primitive_gcd([], []) == [] and primitive_gcd([0, -4], []) == [0, 1]
    # multiplicities 1-4, content -12 and a negative leading coefficient
    p = -12 * (t + 1) * (t - 2) ** 2 * (3 * t + 1) ** 3 * quad ** 4
    expected = [(t + 1, 1), (t - 2, 2), (t + Fraction(1, 3), 3), (quad, 4)]
    assert p.leading()[1] < 0
    ints = integer_coefficients(p)
    assert squarefree_decomposition(ints) == fraction_squarefree_decomposition(p) == expected
    assert factor_monic(ints) == [(t - 2, 2), (t + Fraction(1, 3), 3), (t + 1, 1), (quad, 4)]
    # rational content on both sides of the gcd
    a = Fraction(-3, 4) * (t - 2) ** 2 * quad
    b = Fraction(5, 6) * (t - 2) * quad ** 3 * (2 * t + 7)
    assert monic_gcd(a, b) == fraction_ugcd(a, b) == (t - 2) * quad
    # the primitive gcd has a positive leading coefficient and content 1
    assert primitive_gcd([0, 0, -6], [0, -4, -8]) == [0, 1]
    assert primitive_gcd([-2, 0, -2], [4, 0, 4]) == [1, 0, 1]


def test_exact_quotient_refuses_an_inexact_division():
    assert exact_quotient([2, 3, 1], [1, 1]) == [2, 1]
    assert exact_quotient([], [1, 1]) == []
    with pytest.raises(InternalInconsistency):
        exact_quotient([1, 3, 1], [1, 1])             # remainder -1
    with pytest.raises(InternalInconsistency):
        exact_quotient([1, 1], [1, 2])                # quotient 1/2 is not integral
    with pytest.raises(InternalInconsistency):
        exact_quotient([1], [1, 1])                   # degree too low


def test_smith_identity():
    rows = [[Poly.constant(1 if i == j else 0, T) for j in range(3)] for i in range(3)]
    assert smith_invariant_factors(rows) == [Poly.constant(1, T)] * 3


def test_smith_jordan_pair_example():
    # lam*H1 + H2 for the 2x2 pair with eigenvalue 2: gcd of entries is
    # 2*lam + 1 and the determinant is (2*lam + 1)^2, so both invariant
    # factors equal lam + 1/2 after making them monic.
    lam = Poly.variable("t", T)
    z = Poly.zero(T)
    c = 2 * lam + 1
    expected_first = _monic(c)
    det = c * c
    expected_second = _monic(exact_div(det, c))
    got = smith_invariant_factors([[z, c], [-1 * c, z]])
    assert got == [expected_first, expected_second]
    assert got == [univariate([Fraction(1, 2), 1])] * 2


def test_smith_k3_pencil_is_unimodular_part():
    # the 3x3 odd Kronecker pencil has a constant 2x2 minor, so both
    # invariant factors of the rank-2 part are 1
    lam = Poly.variable("t", T)
    z = Poly.zero(T)
    one = Poly.constant(1, T)
    rows = [[z, lam, z], [-1 * lam, z, one], [z, -1 * one, z]]
    assert smith_invariant_factors(rows) == [Poly.constant(1, T)] * 2


def test_smith_divisibility_chain_random():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 4)
        rows = [[univariate([rng.randint(-3, 3), rng.randint(-2, 2)]) for _ in range(n)]
                for _ in range(n)]
        factors = smith_invariant_factors(rows)
        for a, b in zip(factors, factors[1:]):
            assert _divmod(b, a)[1].is_zero()
        # product of invariant factors equals the determinant up to a scalar
        det = _upoly_det(rows)
        if not det.is_zero() and len(factors) == n:
            prod = Poly.constant(1, T)
            for f in factors:
                prod = prod * f
            assert prod == _monic(det)


def _upoly_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Poly.zero(T)
    for k in range(n):
        sub = [r[:k] + r[k + 1:] for r in rows[1:]]
        term = rows[0][k] * _upoly_det(sub)
        total = total + (term if k % 2 == 0 else -1 * term)
    return total


# -- truncated series ------------------------------------------------------------

def test_compose_matches_subs_then_truncate():
    # truncating inside the power loop agrees with substituting in full first
    rng = random.Random(12)
    V = ("x", "y")
    for _ in range(10):
        p = Poly(V, {(i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                     for i in range(4) for j in range(4 - i)})
        qs = [Poly(V, {(i, j): Fraction(rng.randint(-2, 2))
                       for i in range(3) for j in range(3 - i) if i + j})
              for _ in V]
        order = rng.randint(0, 5)
        got = compose(p, dict(zip(V, qs)), order)
        assert got == truncate(subs(p, dict(zip(V, qs))), order)
    with pytest.raises(ValidationError):
        compose(p, {"x": qs[0] + 1}, 3)
