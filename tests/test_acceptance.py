"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is exact rational arithmetic except criterion 12, whose
stated tolerance covers the floating-point ODE helper of the test oracles.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from biham.casimir import LambdaFamily, family_check, kronecker_criterion, lax_check
from biham.exactalg import Matrix, parse_poly, parse_rational
from biham.lenard import chain_from_family, integrability_verdict, involution_check, verify_chain
from biham.models import (flat_kronecker, jordan_model, m_f,
                          normal_form_phi, open_toda, periodic_casimirs,
                          periodic_toda, sl2_shift, two_family_model)
from biham.pencil import (decompose, epsilon_adjacency_pencil,
                          jordan_pencil, kronecker_pencil)
from biham.report import emit_report, run_analyze
from biham.sampling import model_inequations, sample_points

from oracles import mf_casimir_numeric, scaling_equivalent


def _line(num: int, name: str, ok: bool, note: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {note}" if note else ""
    print(f"criterion {num:02d} ({name}): {status}{suffix}")
    return ok


def _pt(*vals):
    return tuple(Fraction(v) for v in vals)


def _generic_points(model, count, seed):
    return sample_points(model.dim, count, seed,
                         inequations=model_inequations(model))


# -- 1: pencil canon -----------------------------------------------------------------

def test_criterion_01_pencil_canon():
    ok = True
    for k in range(1, 6):
        start = time.monotonic()
        t = decompose(kronecker_pencil(k))
        ok &= t.label() == "{" + f"K{2 * k - 1}" + "}"
        ok &= time.monotonic() - start < 1.0
    for k in range(1, 4):
        for mu in (0, 2, "inf"):
            start = time.monotonic()
            t = decompose(jordan_pencil(k, mu))
            mu_s = "inf" if mu == "inf" else str(mu)
            ok &= t.label() == "{" + f"J{2 * k}(mu={mu_s})" + "}"
            ok &= time.monotonic() - start < 1.0
    pieces = [kronecker_pencil(1), kronecker_pencil(2), kronecker_pencil(3),
              jordan_pencil(1, 2), jordan_pencil(2, "inf"), jordan_pencil(1, 0)]
    for a, b in itertools.combinations(range(len(pieces)), 2):
        start = time.monotonic()
        pa, pb = pieces[a], pieces[b]
        t = decompose(pa.direct_sum(pb))
        expected = sorted(decompose(pa).blocks + decompose(pb).blocks,
                          key=lambda blk: blk.sort_key())
        ok &= sorted(t.blocks, key=lambda blk: blk.sort_key()) == expected
        ok &= time.monotonic() - start < 1.0
    triple = pieces[1].direct_sum(pieces[3]).direct_sum(pieces[0])
    ok &= decompose(triple).label() == "{K1, K3, J2(mu=2)}"
    assert _line(1, "pencil canon", ok)


# -- 2: epsilon degeneration -----------------------------------------------------------

def test_criterion_02_epsilon_degeneration():
    ok = decompose(epsilon_adjacency_pencil(1)).label() == "{K3, K3}"
    ok &= decompose(epsilon_adjacency_pencil(0)).label() == "{K1, K5}"
    for eps in (Fraction(1, 2), 2, -1):
        ok &= decompose(epsilon_adjacency_pencil(eps)).label() == "{K3, K3}"
    assert _line(2, "epsilon degeneration", ok)


# -- 3: congruence invariance ------------------------------------------------------------

def test_criterion_03_congruence_invariance():
    catalog = [
        kronecker_pencil(1), kronecker_pencil(2), kronecker_pencil(3),
        kronecker_pencil(4),
        jordan_pencil(1, 0), jordan_pencil(1, 2), jordan_pencil(1, "inf"),
        jordan_pencil(2, 2), jordan_pencil(3, 0),
        kronecker_pencil(2).direct_sum(jordan_pencil(1, 2)),
        kronecker_pencil(2).direct_sum(kronecker_pencil(1)),
        epsilon_adjacency_pencil(1), epsilon_adjacency_pencil(0),
    ]
    rng = random.Random(2024)
    start = time.monotonic()
    ok = True
    for pencil in catalog:
        assert pencil.n <= 7
        base = decompose(pencil)
        for _ in range(100):
            p = _random_invertible(rng, pencil.n)
            ok &= decompose(pencil.congruence(p)) == base
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    assert _line(3, "congruence invariance", ok, f"{elapsed:.1f}s")


def _random_invertible(rng, n):
    while True:
        p = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)]
                              for _ in range(n)])
        if p.rank() == n:
            return p


# -- 4: open Toda at desk scale ------------------------------------------------------------

def test_criterion_04_open_toda():
    start = time.monotonic()
    ok = True
    for k in (1, 2, 3):
        model = open_toda(k)
        n = 2 * k + 1
        for pt in _generic_points(model, 20, seed=7 + k):
            ok &= decompose(model.structure.pencil_at(pt)).label() == \
                "{" + f"K{n}" + "}"
            at = model.structure.point_analysis(pt)
            v = kronecker_criterion(model.structure, model.families, at)
            ok &= v.outcome == "KroneckerCertified" and v.type == (n,)
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    assert _line(4, "open Toda types", ok, f"{elapsed:.1f}s")


# -- 5: periodic Toda at desk scale -----------------------------------------------------------

def test_criterion_05_periodic_toda():
    start = time.monotonic()
    model = periodic_toda(3)
    ok = True
    for pt in _generic_points(model, 20, seed=5):
        ok &= decompose(model.structure.pencil_at(pt)).label() == "{K1, K5}"
    trace_family = model.families[0]
    ok &= family_check(model.structure, trace_family).ok
    _, odd_product = periodic_casimirs(model)
    ok &= model.structure.p1.is_casimir(odd_product).ok
    ok &= model.structure.p2.is_casimir(odd_product).ok
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    assert _line(5, "periodic Toda types", ok, f"{elapsed:.1f}s")


# -- 6: corank rule under vanishing odd coordinates ----------------------------------------------

def test_criterion_06_corank_rule():
    rng = random.Random(66)
    ok = True
    for k in (2, 3):
        model = open_toda(k)
        n = 2 * k + 1
        odd_positions = [2 * l + 1 for l in range(k)]
        for r in range(k + 1):
            for zero_set in itertools.combinations(odd_positions, r):
                for _ in range(5):
                    pt = [Fraction(rng.randint(1, 9)) for _ in range(n)]
                    for i in zero_set:
                        pt[i] = Fraction(0)
                    got = model.structure.p1.corank_at(tuple(pt))
                    ok &= got == 2 * len(zero_set) + 1
    assert _line(6, "first-bracket corank rule", ok)


# -- 7: exact certificates -----------------------------------------------------------------------

ACCEPTANCE_MODELS = None


def _acceptance_models():
    global ACCEPTANCE_MODELS
    if ACCEPTANCE_MODELS is None:
        ACCEPTANCE_MODELS = [
            flat_kronecker(1), flat_kronecker(2), flat_kronecker(3), flat_kronecker(4),
            jordan_model(1, 2), jordan_model(2, 0), jordan_model(1, "inf"),
            open_toda(1), open_toda(2), open_toda(3),
            periodic_toda(3),
            m_f("x + y"), m_f("x + y + x*y"),
            two_family_model("t^2"), two_family_model("t"),
            sl2_shift((0, 1, 0)),
        ]
    return ACCEPTANCE_MODELS


def test_criterion_07_exact_certificates():
    ok = True
    for model in _acceptance_models():
        certs = model.structure.verify()
        ok &= all(certs.values())
        for fam in model.families:
            ok &= family_check(model.structure, fam).ok
    assert _line(7, "exact certificates", ok)


# -- 8: Lenard suite ------------------------------------------------------------------------------

def test_criterion_08_lenard_suite():
    ok = True
    chain_models = [flat_kronecker(1), flat_kronecker(2), flat_kronecker(3),
                    flat_kronecker(4),
                    open_toda(1), open_toda(2), periodic_toda(3), m_f("x + y")]
    for model in chain_models:
        funcs = []
        for fam in model.families:
            chain = chain_from_family(model.structure, fam)
            ok &= chain.anchored
            ok &= verify_chain(chain).ok
            funcs.extend(chain.functions)
        ok &= involution_check(funcs, model.structure).ok
    homogeneous = [(flat_kronecker(1), 1), (flat_kronecker(2), 1),
                   (flat_kronecker(3), 2), (flat_kronecker(4), 2),
                   (open_toda(1), 11), (open_toda(2), 12), (open_toda(3), 12),
                   (periodic_toda(3), 13),
                   (m_f("x + y"), 14), (two_family_model("t^2"), 15),
                   (sl2_shift((0, 1, 0)), 16)]
    for model, seed in homogeneous:
        chains = [chain_from_family(model.structure, fam) for fam in model.families]
        pt = _generic_points(model, 1, seed)[0]
        verdict = integrability_verdict(model.structure, chains,
                                        model.structure.point_analysis(pt))
        ok &= verdict.outcome == "StrictlyLenardIntegrable"
    jm = jordan_model(1, 2)
    const = LambdaFamily((parse_rational("4", jm.structure.variables),))
    chain = chain_from_family(jm.structure, const)
    at = jm.structure.point_analysis(_pt(1, 2))
    verdict = integrability_verdict(jm.structure, [chain], at)
    ok &= verdict.outcome == "JordanObstructed"
    assert _line(8, "Lenard suite", ok)


# -- 9: quadratic-family boundary ---------------------------------------------------------------

def test_criterion_09_quadratic_family_boundary():
    model = two_family_model("t^2")
    ok = family_check(model.structure, model.families[0]).ok
    count = 0
    for pt in _generic_points(model, 10, seed=9):
        ok &= decompose(model.structure.pencil_at(pt)).label() == "{K3}"
        at = model.structure.point_analysis(pt)
        v = kronecker_criterion(model.structure, model.families, at)
        ok &= v.outcome == "Inconclusive"
        ok &= "degree bound d < dim M/2 fails" in v.reason
        count += 1
    ok &= count == 10
    assert _line(9, "quadratic-family boundary", ok)


# -- 10: normal forms and scaling ------------------------------------------------------------------

def test_criterion_10a_normal_form_additive():
    res = normal_form_phi(parse_poly("x + y", ("x", "y")), 6)
    assert _line(10, "normal form of x+y is flat", res.additive)


def test_criterion_10b_normal_form_product_germ():
    # The criterion was first stated as "non-flat at truncation 6".  That
    # is false: 1 + x + y + xy = (1+x)(1+y), so d2/dxdy log(f_x/f_y) =
    # d2/dxdy [log(1+y) - log(1+x)] = 0 and the germ is functionally
    # additive.  Asserted instead: the flat normal form x' + y', reached by
    # x = e^x' - 1, y = e^y' - 1, f' = log(1 + f), i.e. A = B = the series
    # of e^s - 1 and C = the series of log(1 + s) through order 6.
    order = 6
    res = normal_form_phi(parse_poly("x + y + x*y", ("x", "y")), order)
    exp_minus_1 = {(k,): Fraction(1, math.factorial(k)) for k in range(1, order + 1)}
    log_1_plus = {(k,): Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)}
    ok = (res.additive
          and res.phi.terms == {(1, 0): 1, (0, 1): 1}
          and res.changes["A"].terms == exp_minus_1
          and res.changes["B"].terms == exp_minus_1
          and res.changes["C"].terms == log_1_plus)
    assert _line(10, "normal form of x+y+x*y is flat via log(1+x), log(1+y)", ok,
                 "stated non-flat, but the germ factors as (1+x)(1+y)-1")


def test_criterion_10c_scaling_equivalence():
    from biham.exactalg import Poly
    rng = random.Random(1010)
    ok = True
    done = 0
    while done < 5:
        terms = {(1, 0): Fraction(rng.randint(1, 3)),
                 (0, 1): Fraction(rng.randint(1, 3)),
                 (1, 1): Fraction(rng.choice([1, -1, 2]))}
        for e in ((2, 0), (0, 2), (2, 1), (1, 2), (3, 0)):
            terms[e] = Fraction(rng.randint(-2, 2))
        f = Poly(("x", "y"), terms)
        c = Fraction(rng.choice([2, 3, -2, 5]))
        fc = Poly(("x", "y"),
                  {e: v * c ** (sum(e) - 1) for e, v in f.terms.items()})
        ok &= scaling_equivalent(_phi_of(f), _phi_of(fc), 6)
        done += 1
    assert _line(10, "scaling equivalence under rescaled germs", ok)


def _phi_of(f, order: int = 6):
    return normal_form_phi(f, order).phi


# -- 11: Lax verdicts --------------------------------------------------------------------------------

def test_criterion_11_lax_verdicts():
    ok = True
    v3 = open_toda(1)
    at3 = v3.structure.point_analysis(_pt(1, 1, 1))
    verdict = lax_check(v3.structure, v3.families[0], at3)
    ok &= verdict.level == "KroneckerConcluded" and verdict.concluded_dim == 3
    v5 = open_toda(2)
    at5 = v5.structure.point_analysis(_pt(1, 1, 2, 1, 3))
    verdict = lax_check(v5.structure, v5.families[0], at5)
    ok &= verdict.level == "KroneckerConcluded" and verdict.concluded_dim == 5
    const = LambdaFamily((parse_rational("2", v3.structure.variables),))
    ok &= lax_check(v3.structure, const, at3).level == "WeakLax"
    jm = jordan_model(1, 2)
    at_jm = jm.structure.point_analysis(_pt(1, 1))
    jconst = LambdaFamily((parse_rational("2", jm.structure.variables),))
    ok &= lax_check(jm.structure, jconst, at_jm).level == "WeakLax"
    bad = LambdaFamily((parse_rational("z0", jm.structure.variables),))
    ok &= lax_check(jm.structure, bad, at_jm).level == "NotApplicable"
    assert _line(11, "Lax verdicts", ok)


# -- 12: numeric ODE cross-check ----------------------------------------------------------------------

def test_criterion_12_numeric_ode():
    start = time.monotonic()
    model = m_f("x + y")
    rng = random.Random(12)
    ok = True
    for _ in range(10):
        lam = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        x0 = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        y0 = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        got = mf_casimir_numeric(model, lam, (x0, y0), steps=1000)
        want = float(y0 + x0 / lam)
        ok &= abs(got - want) < 1e-8
    elapsed = time.monotonic() - start
    ok &= elapsed < 5.0
    assert _line(12, "numeric ODE cross-check", ok, f"{elapsed:.2f}s")


# -- 13: determinism ------------------------------------------------------------------------------------

def test_criterion_13_determinism():
    first = emit_report(run_analyze(open_toda(2), samples=6, seed=42), "json")
    second = emit_report(run_analyze(open_toda(2), samples=6, seed=42), "json")
    ok = first == second
    assert _line(13, "report determinism", ok)
