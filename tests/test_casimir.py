"""Lambda families, the span dimension, criteria and Lax verdicts."""

import json
import random
from fractions import Fraction

import pytest

from biham.casimir import (LambdaFamily, CriterionVerdict, family_check,
                           kronecker_criterion, lax_check, w1_span_dim, web_flatness)
from biham.cli import export_model, parse_structure_file
from biham.errors import ValidationError
from biham.exactalg import RationalFunction, parse_rational
from biham.models import (flat_kronecker, jordan_model, m_f, open_toda,
                          sl2_shift, two_family_model)
from biham.pencil import decompose

from oracles import minor_rank, pencil_structure, s_generic, shifted_family


K5 = flat_kronecker(3)
V3 = open_toda(1)
V5 = open_toda(2)


def _pt(*vals):
    return tuple(Fraction(v) for v in vals)


def _family(texts, variables):
    return LambdaFamily(tuple(parse_rational(t, variables) for t in texts))


def test_family_check_flat_k5():
    assert family_check(K5.structure, K5.families[0]).ok


def test_family_check_v3_and_pointwise_oracle():
    fam = V3.families[0]
    assert family_check(V3.structure, fam).ok
    # independent point-level check: (lam*P1 + P2) grad F_lam vanishes at
    # random rational points and lambda values
    rng = random.Random(9)
    s = V3.structure
    for _ in range(6):
        pt = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3))
        lam = Fraction(rng.randint(-3, 3))
        combo = pencil_structure(s.p1, s.p2, lam)
        f_lam = sum((fam.coeffs[k] * lam**k for k in range(fam.degree + 1)),
                    RationalFunction.constant(0, s.variables))
        cov = combo.hamiltonian_covector(f_lam)
        assert all(c.eval(pt) == 0 for c in cov)


def test_family_check_failure():
    fam = _family(["v0"], V3.structure.variables)
    cert = family_check(V3.structure, fam)
    assert not cert.ok


def test_family_chain_relations():
    # the lambda coefficients of a certified family satisfy the chain:
    # P2 grad f_0 = 0, P1 grad f_{k-1} + P2 grad f_k = 0, P1 grad f_d = 0
    s = V5.structure
    fam = V5.families[0]
    assert family_check(s, fam).ok
    d = fam.degree
    cov1 = [s.p1.hamiltonian_covector(c) for c in fam.coeffs]
    cov2 = [s.p2.hamiltonian_covector(c) for c in fam.coeffs]
    assert all(c.is_zero() for c in cov2[0])
    assert all(c.is_zero() for c in cov1[d])
    for k in range(1, d + 1):
        assert all((a + b).is_zero() for a, b in zip(cov1[k - 1], cov2[k]))


def test_w1_span_dim_flat_k5():
    for pt in (_pt(0, 0, 0, 0, 0), _pt(1, 2, 3, 4, 5)):
        at = K5.structure.point_analysis(pt)
        assert w1_span_dim(K5.structure, K5.families, at) == 3


def test_w1_span_dim_toda():
    pt = _pt(1, 1, 2, 1, 3)
    assert s_generic(2, pt)
    assert w1_span_dim(V5.structure, V5.families, V5.structure.point_analysis(pt)) == 3
    # vanishing odd coordinates alone keep the rank when the run
    # polynomials stay coprime
    wall = _pt(1, 0, 2, 0, 3)
    at = V5.structure.point_analysis(wall)
    assert s_generic(2, wall) and w1_span_dim(V5.structure, V5.families, at) == 3
    # shared run-polynomial roots break the submersion; the value is pinned
    # by an independent minor-rank oracle on rows evaluated with Fractions
    degenerate = _pt(1, 0, 1, 0, 1)
    assert not s_generic(2, degenerate)
    rows = [tuple(d.eval(degenerate) for d in V5.structure.gradient(c))
            for fam in V5.families for c in fam.coeffs]
    oracle = minor_rank(rows)
    got = w1_span_dim(V5.structure, V5.families, V5.structure.point_analysis(degenerate))
    assert got == oracle
    assert got < 3


def test_criterion_flat_k5():
    at = K5.structure.point_analysis(_pt(1, 1, 1, 1, 1))
    v = kronecker_criterion(K5.structure, K5.families, at)
    assert v.outcome == "KroneckerCertified"
    assert v.type == (5,)
    assert not v.conjectural
    assert v.r == 1 and v.w1_dim == 3


def test_criterion_toda_s_generic():
    pt = _pt(1, 1, 2, 1, 3)
    v = kronecker_criterion(V5.structure, V5.families, V5.structure.point_analysis(pt))
    assert v.outcome == "KroneckerCertified" and v.type == (5,)
    assert v.cross_check == "{K5}"


def test_criterion_two_family_degree_bound():
    model = two_family_model("t^2")
    at = model.structure.point_analysis(_pt(2, 3, 1))
    v = kronecker_criterion(model.structure, model.families, at)
    assert v.outcome == "Inconclusive"
    assert "degree bound d < dim M/2 fails" in v.reason


def test_criterion_requires_certified_families():
    fam = _family(["v0"], V3.structure.variables)
    at = V3.structure.point_analysis(_pt(1, 1, 1))
    with pytest.raises(ValidationError):
        kronecker_criterion(V3.structure, [fam], at)


def test_criterion_reparametrization_invariance():
    # adding a constant-coefficient polynomial in lambda changes nothing
    at = V3.structure.point_analysis(_pt(1, 1, 1))
    base = kronecker_criterion(V3.structure, V3.families, at)
    shifted = shifted_family(V3.families[0], [Fraction(7), Fraction(-2, 3)])
    v = kronecker_criterion(V3.structure, [shifted], at)
    assert (w1_span_dim(V3.structure, [shifted], at)
            == w1_span_dim(V3.structure, V3.families, at))
    assert (v.outcome, v.type) == (base.outcome, base.type)


def test_criterion_neighborhood_consistency():
    # certified at a point: decomposition stays {K_n} in a small box
    rng = random.Random(7)
    pt = _pt(1, 1, 1)
    v = kronecker_criterion(V3.structure, V3.families, V3.structure.point_analysis(pt))
    assert v.outcome == "KroneckerCertified"
    for _ in range(20):
        nearby = tuple(x + Fraction(rng.randint(-10, 10), 100) for x in pt)
        assert decompose(V3.structure.pencil_at(nearby)).label() == "{K3}"


def test_criterion_sl2():
    model = sl2_shift((0, 1, 0))
    at = model.structure.point_analysis(_pt(1, 2, 1))
    v = kronecker_criterion(model.structure, model.families, at)
    assert v.outcome == "KroneckerCertified" and v.type == (3,)


def test_criterion_m_f_linear():
    from biham.models import m_f
    model = m_f("x + y")
    at = model.structure.point_analysis(_pt(1, 2, 3))
    v = kronecker_criterion(model.structure, model.families, at)
    assert v.outcome == "KroneckerCertified" and v.type == (3,)


def test_criterion_multi_family_product():
    # two independent odd blocks with one coordinate family each: the
    # multi-family route indicates the product type and stays conjectural
    from biham.poisson import BihamStructure, PoissonStructure

    vs = tuple(f"x{i}" for i in range(6))
    p1 = PoissonStructure(vs, {(0, 1): 1, (3, 4): 1})
    p2 = PoissonStructure(vs, {(1, 2): 1, (4, 5): 1})
    b = BihamStructure(p1, p2)
    fam1 = _family(["x0", "x2"], vs)
    fam2 = _family(["x3", "x5"], vs)
    at = b.point_analysis(tuple(Fraction(1) for _ in range(6)))
    v = kronecker_criterion(b, [fam1, fam2], at)
    assert v.outcome == "HomogeneousIndicated"
    assert v.type == (3, 3) and v.conjectural
    assert v.cross_check == "{K3, K3}" and v.reason == ""


def test_w1_span_dim_pole():
    from biham.errors import PoleAtPoint
    vs = K5.structure.variables
    fam = _family(["1/x0"], vs)
    at = K5.structure.point_analysis((0, 1, 1, 1, 1))
    with pytest.raises(PoleAtPoint):
        w1_span_dim(K5.structure, [fam], at)



def test_lax_check_v3_v5():
    v3 = lax_check(V3.structure, V3.families[0], V3.structure.point_analysis(_pt(1, 1, 1)))
    assert v3.level == "KroneckerConcluded" and v3.concluded_dim == 3
    at = V5.structure.point_analysis(_pt(1, 1, 2, 1, 3))
    v5 = lax_check(V5.structure, V5.families[0], at)
    assert v5.level == "KroneckerConcluded" and v5.concluded_dim == 5


def test_lax_check_constant_family_weak_only():
    vars_ = V3.structure.variables
    const = _family(["5"], vars_)
    v = lax_check(V3.structure, const, V3.structure.point_analysis(_pt(1, 1, 1)))
    assert v.level == "WeakLax" and v.gradient_rank == 0


def test_lax_check_jordan_negative():
    model = jordan_model(1, 2)
    const = _family(["3"], model.structure.variables)
    at = model.structure.point_analysis(_pt(1, 1))
    v = lax_check(model.structure, const, at)
    assert v.level == "WeakLax"
    bad = _family(["z0"], model.structure.variables)
    v2 = lax_check(model.structure, bad, at)
    assert v2.level == "NotApplicable"


def test_family_json_roundtrip():
    fam = V3.families[0]
    data = export_model(V3)
    assert data["families"][0]["degree"] == 1
    back = parse_structure_file(json.dumps(data)).families[0]
    assert back.coeffs == fam.coeffs


def test_family_validation():
    vars_ = V3.structure.variables
    with pytest.raises(ValidationError):
        LambdaFamily((RationalFunction.constant(1, vars_),
                      RationalFunction.constant(0, vars_)))
    with pytest.raises(ValidationError):
        LambdaFamily(())


def test_verdict_json():
    v = kronecker_criterion(V3.structure, V3.families, V3.structure.point_analysis(_pt(1, 1, 1)))
    data = v.to_json()
    assert data["outcome"] == "KroneckerCertified" and data["type"] == [3]
    assert isinstance(v, CriterionVerdict)


# -- web flatness: where it applies ---------------------------------------------------

def _structure_file(brackets1, brackets2) -> str:
    return json.dumps({"dim": 3, "vars": ["x", "y", "z"],
                       "brackets1": [{"i": i, "j": j, "coeff": c} for i, j, c in brackets1],
                       "brackets2": [{"i": i, "j": j, "coeff": c} for i, j, c in brackets2]})


def test_web_flatness_needs_dimension_3():
    assert web_flatness(V5.structure) is None


def test_web_flatness_does_not_apply_to_a_jordan_structure_file():
    # constant {x,y}_1 = 1 and {x,y}_2 = 2: one kernel for the whole pencil,
    # so ω1 ∧ ω2 = 0, the type K1 + J2
    b = parse_structure_file(_structure_file([(0, 1, "1")], [(0, 1, "2")])).structure
    assert b.certified()
    assert decompose(b.pencil_at(_pt(1, 1, 1))).label() == "{K1, J2(mu=1/2)}"
    assert web_flatness(b) is None


def test_web_flatness_does_not_apply_without_jacobi():
    # ω1 = (y, 0, 1) has ω1·curl ω1 = -1, so bracket 1 fails Jacobi though
    # ω1 × ω2 = (1, 0, -y) is nonzero
    b = parse_structure_file(_structure_file([(1, 2, "y"), (0, 1, "1")],
                                             [(0, 2, "1")])).structure
    assert not b.jacobi(1).ok
    assert web_flatness(b) is None


@pytest.mark.parametrize("model", [m_f("x + y + x^2*y"), m_f("x + y + x*y"),
                                   sl2_shift((1, 2, 3)), two_family_model("t^2")],
                         ids=lambda m: m.name)
def test_web_flatness_of_a_reloaded_export_is_the_catalog_models(model):
    reloaded = parse_structure_file(json.dumps(export_model(model)))
    assert web_flatness(reloaded.structure) == web_flatness(model.structure)
