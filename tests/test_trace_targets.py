"""The benchmark's use of the library still works.

``perfbench/run.py --trace`` wraps each entry of ``perfbench/spans.py``
``TARGETS``; a deleted or renamed function would break it, and the suite
collected from ``tests/`` never runs ``perfbench/``.  This loads
``spans.py`` and ``workloads.py`` by path, resolves each trace entry the
way the tracer does, runs the small congruence and certificate workloads
with their checks, so a certificate change that flips a negative control
fails here, and compares each integer pencil at the analyze workload's
sample points with the checked pencil of its two rational bivectors.  Every
family of the benchmark's catalog specs, as given and with one coefficient
perturbed, is certified in one zero test against the per-relation loop.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from biham.casimir import LambdaFamily, family_check
from biham.cli import resolve_target
from biham.exactalg import Poly, RationalFunction
from biham.lenard import chain_from_family, verify_chain
from biham.pencil import SkewPencil
from biham.poisson import BihamStructure, relation_failure
from biham.sampling import model_inequations, sample_points

from oracles import per_relation_family_check

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = _load("spans")
    assert spans.TARGETS
    missing = []
    for name, module_name, path in spans.TARGETS:
        owner, attr = spans._resolve(module_name, path)
        if not callable(getattr(owner, attr, None)):
            missing.append(name)
    assert missing == []


def test_congruence_workload_items_check():
    # the workload builds its pencils with from_rows, direct_sum and the
    # builders, and reads A[i, j], .denominator and .n off them
    items = _load("workloads").CongruenceDecompose(0, tiny=True).items()
    assert len(items) == 13
    assert [item.check(item.run()) for item in items] == [None] * len(items)


def test_certify_workload_items_check():
    # the two catalog models pass every certificate, and the incompatible
    # pair and the non-Casimir family fail theirs
    items = _load("workloads").CertifySymbolic(0, tiny=True).items()
    assert {item.name for item in items} >= {"control:incompatible_pair",
                                             "control:non_casimir_family"}
    assert [item.check(item.run()) for item in items] == [None] * len(items)


def test_pencil_at_matches_the_checked_rational_pencil():
    # pencil_at writes the integer pair skew by construction; the oracle is
    # the checked pencil of the two rational bivectors at the same point
    workloads = _load("workloads")
    for spec in workloads.ANALYZE_SPECS:
        model = resolve_target(spec)
        s = model.structure
        for pt in sample_points(model.dim, workloads.ANALYZE_SAMPLES, 0,
                                inequations=model_inequations(model)):
            got = s.pencil_at(pt)
            expected = SkewPencil.from_rows(s.p1.bivector_at(pt).to_rows(),
                                            s.p2.bivector_at(pt).to_rows())
            assert got == expected, (spec, pt)
            assert all(type(x) is int for x in got.A.entries + got.B.entries)


def _catalog_families():
    """(spec, model, family) over the analyze and certify workloads' specs."""
    workloads = _load("workloads")
    for spec in dict.fromkeys(workloads.ANALYZE_SPECS + workloads.CERTIFY_SPECS):
        model = resolve_target(spec)
        for fam in model.families:
            yield spec, model, fam


def _perturbed(fam, variables, rng):
    """fam as given, then with c*x_j added to one coefficient at each lambda^k,
    c in 1..5 and x_j drawn, as the benchmark's non-Casimir control is built."""
    yield fam
    for k in range(fam.degree + 1):
        term = Poly.variable(rng.choice(variables), variables) * rng.randint(1, 5)
        coeffs = list(fam.coeffs)
        coeffs[k] = coeffs[k] + RationalFunction.from_poly(term)
        yield LambdaFamily(tuple(coeffs), name=f"{fam.name} + lambda^{k} term")


def _prove_first(prior, b, fam):
    """What is proved on b before the family: nothing, the chain read off it
    (its anchor and recurrences, top power down), or its middle lambda power."""
    if prior == "chain":
        verify_chain(chain_from_family(b, fam))
    elif prior == "middle":
        k = (fam.degree + 1) // 2
        b.relation(fam.coeff(k - 1), fam.coeff(k))


def _relations(b):
    return {key: result for key, result in b._certificates.items() if key[0] == "relation"}


@pytest.mark.parametrize("prior", ["none", "chain", "middle"])
def test_one_zero_test_family_matches_the_per_relation_loop(prior):
    # the certificate, detail included, is the per-relation loop's, it leaves
    # the loop's relation store, and each stored relation is relation_failure's
    # on brackets with nothing stored; a relation proved before is read
    rng = random.Random(0)
    checked = failed = 0
    for spec, model, base in _catalog_families():
        p1, p2 = model.structure.p1, model.structure.p2
        for fam in _perturbed(base, model.variables, rng):
            b, oracle = BihamStructure(p1, p2), BihamStructure(p1, p2)
            _prove_first(prior, b, fam)
            _prove_first(prior, oracle, fam)
            got = family_check(b, fam)
            want = per_relation_family_check(oracle, fam)
            assert (got.ok, got.detail) == (want.ok, want.detail), (spec, fam.name)
            assert _relations(b) == _relations(oracle), (spec, fam.name)
            for (_, f, g), result in _relations(b).items():
                terms = [(p, None if h is None else p.gradient(h))
                         for p, h in ((p1, f), (p2, g))]
                assert result == relation_failure(terms, model.variables), (spec, f, g)
                checked += 1
            failed += not got.ok
    assert checked and failed
