"""Poisson structures: brackets, certificates, point evaluation."""

import json
import random
from fractions import Fraction

import pytest

from biham.cli import export_model, parse_structure_file
from biham.errors import PoleAtPoint, ValidationError
from biham.exactalg import Matrix, PointEvaluator, Poly, parse_poly, parse_rational
from biham.models import flat_kronecker, open_toda, periodic_toda, periodic_casimirs
from biham.pencil import decompose
from biham.poisson import BihamStructure, PoissonStructure, compatibility_check

from oracles import gauss_rank, pencil_structure


V3 = open_toda(1)
V5 = open_toda(2)
K3 = flat_kronecker(2)


def _pt(*vals):
    return tuple(Fraction(v) for v in vals)


def test_bivector_at_flat_is_constant():
    s = K3.structure
    expected_a = Matrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    expected_b = Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    for pt in (_pt(0, 0, 0), _pt(1, 2, 3), _pt(-1, Fraction(1, 2), 5)):
        assert s.p1.bivector_at(pt) == expected_a
        assert s.p2.bivector_at(pt) == expected_b


def test_bivector_at_toda_zero_point():
    # every second-bracket coefficient carries a factor of an odd coordinate
    assert V3.structure.p2.bivector_at(_pt(1, 0, 2)).is_zero()


def test_bivector_skewness_random_points():
    rng = random.Random(3)
    s = V5.structure
    for _ in range(5):
        pt = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(5))
        m = s.p2.bivector_at(pt)
        assert m.transpose() == -m


def test_bracket_examples():
    s = V3.structure
    v = s.variables
    v0 = parse_poly("v0", v)
    v1 = parse_poly("v1", v)
    assert s.p2.bracket(v0, v1) == parse_rational("-v0*v1", v)
    f = parse_poly("v0^2 + 3*v1", v)
    assert s.p2.bracket(f, f).is_zero()
    # the determinant function commutes with every coordinate under bracket 2
    casimir = parse_poly("v0*v2 - v1^2", v)
    assert s.p2.bracket(casimir, v0).is_zero()


def test_bracket_bilinear_skew_leibniz():
    rng = random.Random(17)
    s = V3.structure
    vs = s.variables
    for _ in range(10):
        f = _random_poly(rng, vs)
        g = _random_poly(rng, vs)
        h = _random_poly(rng, vs)
        assert (s.p2.bracket(f, g) + s.p2.bracket(g, f)).is_zero()
        lhs = s.p2.bracket(f, g * h)
        rhs = s.p2.bracket(f, h) * g + s.p2.bracket(f, g) * h
        assert (lhs - rhs).is_zero()
        lin = s.p2.bracket(f + g, h) - s.p2.bracket(f, h) - s.p2.bracket(g, h)
        assert lin.is_zero()


def _random_poly(rng, vs):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 1) for _ in vs)
        terms[e] = Fraction(rng.randint(-3, 3))
    return Poly(vs, terms)


def test_jacobi_certificates():
    for model in (V3, V5):
        assert model.structure.jacobi(1).ok
        assert model.structure.jacobi(2).ok
    zero = PoissonStructure(("a", "b", "c"), {})
    assert zero.jacobi_check().ok


def test_jacobi_mutation_fails():
    # flipping one sign in the second Toda bracket breaks the identity
    s = V3.structure
    table = dict(s.p2.table)
    table[(0, 1)] = -table[(0, 1)]
    mutated = PoissonStructure(s.variables, table)
    cert = mutated.jacobi_check()
    assert not cert.ok and "residual" in cert.detail


def test_jacobi_pointwise_consistency():
    # identity-level pass implies the numeric jacobiator vanishes at points
    rng = random.Random(5)
    s = V3.structure
    vs = s.variables
    for _ in range(5):
        pt = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
        for _ in range(4):
            f, g, h = (_random_poly(rng, vs) for _ in range(3))
            jac = (s.p2.bracket(s.p2.bracket(f, g), h)
                   + s.p2.bracket(s.p2.bracket(g, h), f)
                   + s.p2.bracket(s.p2.bracket(h, f), g))
            assert jac.eval(pt) == 0


def test_compatibility():
    assert V3.structure.compatibility().ok
    assert V5.structure.compatibility().ok
    s = V3.structure
    assert compatibility_check(s.p2, s.p2).ok
    table = dict(s.p2.table)
    table[(0, 1)] = -table[(0, 1)]
    mutated = PoissonStructure(s.variables, table)
    assert not compatibility_check(s.p1, mutated).ok


def test_compatibility_mixed_term_failure():
    # a sign flip in the first V5 bracket keeps it Poisson (it is linear)
    # but breaks the bilinear mixed identity against the second bracket
    s = V5.structure
    table = dict(s.p1.table)
    table[(2, 3)] = -table[(2, 3)]
    mutated = PoissonStructure(s.variables, table)
    assert mutated.jacobi_check().ok
    cert = compatibility_check(mutated, s.p2)
    assert not cert.ok and "residual" in cert.detail


def test_verify_proves_each_jacobi_identity_once(monkeypatch):
    model = open_toda(2)
    b = BihamStructure(model.structure.p1, model.structure.p2)
    proved = []
    original = PoissonStructure.jacobi_check

    def counted(self, *args):
        proved.append(self)
        return original(self, *args)

    monkeypatch.setattr(PoissonStructure, "jacobi_check", counted)
    assert all(cert.ok for cert in b.verify().values())
    assert proved == [b.p1, b.p2]
    # a failing bracket still names itself in the compatibility detail
    table = dict(b.p2.table)
    table[(0, 1)] = -table[(0, 1)]
    broken = BihamStructure(b.p1, PoissonStructure(b.variables, table))
    certs = broken.verify()
    assert len(proved) == 4
    assert certs["compatibility"] == compatibility_check(broken.p1, broken.p2)
    assert "bracket 2 fails its own Jacobi identity" in certs["compatibility"].detail


def test_compatibility_implies_pencil_jacobi():
    s = V3.structure
    for lam in (1, 2, 3):
        combo = pencil_structure(s.p1, s.p2, lam)
        assert combo.jacobi_check().ok


def test_is_casimir_examples():
    s = V3.structure
    f0 = parse_poly("v0*v2 - v1^2", s.variables)
    assert s.p2.is_casimir(f0).ok
    v0 = parse_poly("v0", s.variables)
    cert = s.p1.is_casimir(v0)
    assert not cert.ok
    p6 = periodic_toda(3)
    _, odd = periodic_casimirs(p6)
    assert p6.structure.p1.is_casimir(odd).ok
    assert p6.structure.p2.is_casimir(odd).ok


def test_casimir_implies_zero_brackets():
    rng = random.Random(11)
    s = V3.structure
    f0 = parse_poly("v0*v2 - v1^2", s.variables)
    for _ in range(8):
        g = _random_poly(rng, s.variables)
        assert s.p2.bracket(f0, g).is_zero()


def test_corank_at_examples():
    s5 = V5.structure
    # one vanishing odd coordinate raises the corank of the first bracket to 3
    assert s5.p1.corank_at(_pt(1, 0, 2, 1, 1)) == 3
    assert s5.p1.corank_at(_pt(1, 1, 2, 1, 1)) == 1
    zero = PoissonStructure(("a", "b", "c"), {})
    assert zero.corank_at(_pt(1, 2, 3)) == 3


def test_corank_parity():
    rng = random.Random(23)
    s = V5.structure
    for _ in range(10):
        pt = tuple(Fraction(rng.randint(-5, 5)) for _ in range(5))
        for p in (s.p1, s.p2):
            assert (5 - p.corank_at(pt)) % 2 == 0


def test_pencil_at_examples():
    pencil = K3.structure.pencil_at(_pt(0, 0, 0))
    assert pencil.A == Matrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    assert pencil.B == Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    t = decompose(V3.structure.pencil_at(_pt(1, 0, 2)))
    assert t.label() == "{K1, K1, K1}"
    t2 = decompose(V3.structure.pencil_at(_pt(1, 1, 1)))
    assert t2.label() == "{K3}"


def test_pole_handling():
    p = PoissonStructure(("x", "y"), {(0, 1): parse_rational("1/x", ("x", "y"))})
    assert p.excluded and str(p.excluded[0]) == "x"
    with pytest.raises(PoleAtPoint, match="^denominator x vanishes at evaluation point$"):
        p.bivector_at(_pt(0, 1))
    assert p.bivector_at(_pt(2, 1))[0, 1] == Fraction(1, 2)


def test_evaluator_of_the_wrong_dimension_is_refused():
    # open Toda k = 1 has 3 coordinates; an evaluator on 2 would read the
    # power table of its denominator as a third coordinate
    b = V3.structure
    for point in (_pt(1, 2), PointEvaluator(_pt(1, 2))):
        for call in (b.pencil_at, b.point_analysis, b.p1.bivector_at):
            with pytest.raises(ValidationError, match="^point has 2 coordinates, expected 3$"):
                call(point)


def test_structure_validation():
    with pytest.raises(ValidationError):
        PoissonStructure(("x", "y"), {(0, 0): 1})
    with pytest.raises(ValidationError):
        PoissonStructure(("x", "y"), {(0, 1): "x", (1, 0): "x"})
    with pytest.raises(ValidationError):
        PoissonStructure(("x",), {(0, 5): 1})


def test_structure_json_roundtrip():
    s = V3.structure
    pair = parse_structure_file(json.dumps(export_model(V3))).structure
    assert pair.p1.table == s.p1.table and pair.p2.table == s.p2.table


def test_rank_agreement_with_oracle():
    rng = random.Random(41)
    s = V5.structure
    for _ in range(5):
        pt = tuple(Fraction(rng.randint(-4, 4)) for _ in range(5))
        m = s.p2.bivector_at(pt)
        assert m.rank() == gauss_rank(m.to_rows())
