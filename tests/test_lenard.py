"""Lenard chains: extraction, recurrence, involution, integrability."""

import json
from dataclasses import replace
from fractions import Fraction

from biham.casimir import LambdaFamily, family_check
from biham.cli import export_model, parse_structure_file
from biham.exactalg import parse_rational
from biham.lenard import (LenardChain, chain_from_family, integrability_verdict,
                          involution_check, verify_chain)
from biham.models import (flat_kronecker, jordan_model, m_f, open_toda,
                          periodic_toda)
from biham import lenard, poisson
from biham.poisson import BihamStructure, PoissonStructure

from oracles import pairwise_involution_check


K5 = flat_kronecker(3)
V3 = open_toda(1)
V5 = open_toda(2)
MXY = m_f("x + y")


def _pt(*vals):
    return tuple(Fraction(v) for v in vals)


def test_chain_from_family_flat():
    chain = chain_from_family(K5.structure, K5.families[0])
    assert [str(h) for h in chain.functions] == ["x4", "x2", "x0"]
    assert chain.anchored
    assert verify_chain(chain).ok


def test_chain_from_family_v3():
    chain = chain_from_family(V3.structure, V3.families[0])
    assert [str(h) for h in chain.functions] == ["v0 + v2", "v0*v2 - v1^2"]
    assert chain.anchored
    assert verify_chain(chain).ok


def test_chain_from_family_mxy():
    chain = chain_from_family(MXY.structure, MXY.families[0])
    assert [str(h) for h in chain.functions] == ["y", "x"]
    assert chain.anchored
    assert verify_chain(chain).ok


def test_chain_certified_families_always_verify():
    for model in (K5, V3, V5, periodic_toda(3)):
        for fam in model.families:
            chain = chain_from_family(model.structure, fam)
            assert chain.anchored
            assert verify_chain(chain).ok


def test_chain_after_its_family_sums_nothing(monkeypatch):
    # the anchor and every recurrence step are relations the family
    # certificate already proved, so no residual is summed again
    b = BihamStructure(V5.structure.p1, V5.structure.p2)
    fam = V5.families[0]
    assert family_check(b, fam).ok
    calls = []
    monkeypatch.setattr(poisson, "first_nonzero_sum",
                        lambda groups, variables: calls.append(groups))
    chain = chain_from_family(b, fam)
    assert chain.anchored
    assert verify_chain(chain).ok
    assert calls == []


def test_verify_chain_mutation():
    # dropping the middle function breaks the recurrence at the first link
    s = K5.structure
    x4 = parse_rational("x4", s.variables)
    x0 = parse_rational("x0", s.variables)
    bad = LenardChain((x4, x0), s, anchored=True)
    cert = verify_chain(bad)
    assert not cert.ok and "i=0" in cert.detail


def test_verify_chain_singleton():
    s = K5.structure
    x4 = parse_rational("x4", s.variables)
    assert verify_chain(LenardChain((x4,), s, anchored=True)).ok


def test_involution_examples():
    chain = chain_from_family(V3.structure, V3.families[0])
    assert involution_check(chain.functions, V3.structure).ok
    f = parse_rational("v0 + v1^2", V3.structure.variables)
    assert involution_check([f, f], V3.structure).ok
    v0 = parse_rational("v0", V3.structure.variables)
    v1 = parse_rational("v1", V3.structure.variables)
    cert = involution_check([v0, v1], V3.structure)
    assert not cert.ok


def test_involution_takes_any_iterable():
    # the check indexes its functions, so a generator is read into a list once
    chain = chain_from_family(V5.structure, V5.families[0])
    v1 = parse_rational("v1", V5.structure.variables)
    for funcs in (chain.functions, chain.functions + (v1,)):
        got = involution_check((f for f in funcs), V5.structure)
        assert got == involution_check(list(funcs), V5.structure)
        assert got.ok == (funcs is chain.functions)


def _count_involution_work(monkeypatch):
    """Lists the brackets contracted and the (a, c, k) groups summed by involution_check.

    Every group is read, so the groups listed are all those no rule skips.
    """
    contracted, summed = [], []
    contract, first_nonzero_sum = PoissonStructure.contract, lenard.first_nonzero_sum

    def counted_contract(p, grad):
        contracted.append(p)
        return contract(p, grad)

    def counted_sum(groups, variables):
        groups = [(key, list(products)) for key, products in groups]
        summed.extend(key for key, _ in groups)
        return first_nonzero_sum(groups, variables)

    monkeypatch.setattr(PoissonStructure, "contract", counted_contract)
    monkeypatch.setattr(lenard, "first_nonzero_sum", counted_sum)
    return contracted, summed


def _proved_chain(model):
    """A fresh structure and its families' functions, concatenated, proved as one chain."""
    b = BihamStructure(model.structure.p1, model.structure.p2)
    assert all(family_check(b, fam).ok for fam in model.families)
    funcs = tuple(f for fam in model.families for f in chain_from_family(b, fam).functions)
    assert verify_chain(LenardChain(funcs, b, anchored=True)).ok
    return b, funcs


def test_involution_of_a_proved_chain_contracts_and_sums_nothing(monkeypatch):
    # every row is chained, so Magri's recursion proves every bracket zero
    # from the stored relations: no contraction, no group, no new relation.
    # periodic Toda's odd product R follows the trace chain's last function
    # H_d in one run, since P1 grad R = 0 and P2 grad H_d = 0
    contracted, summed = _count_involution_work(monkeypatch)
    for model in (open_toda(4), periodic_toda(3)):
        b, funcs = _proved_chain(model)
        proved = dict(b._certificates)
        assert involution_check(funcs, b).ok
        assert b._certificates == proved
        assert contracted == [] and summed == []


def test_involution_of_a_broken_run_sums_the_groups_no_rule_covers(monkeypatch):
    # H_2 + v0 breaks rows 2 and 3 of open Toda's degree-4 chain: rows 0, 1
    # and 4 stay chained.  (a, c, k) is skipped when rows a+1..c are chained
    # (here c = 1, or a = 3 and c = 4) and (0, c, 1) by the anchor; the
    # others cross a run boundary and are summed, in order
    b, funcs = _proved_chain(open_toda(4))
    funcs = list(funcs)
    funcs[2] = funcs[2] + parse_rational("v0", b.variables)
    contracted, summed = _count_involution_work(monkeypatch)
    got = involution_check(funcs, b)
    assert summed == ([(0, 2, 2), (0, 3, 2), (0, 4, 2)]
                      + [(a, c, k) for a in (1, 2) for c in range(a + 1, 5) for k in (1, 2)])
    assert contracted == [b.p2, b.p1, b.p2, b.p1, b.p2]
    want = pairwise_involution_check(funcs, b)
    assert (got.ok, got.kind, got.detail) == (want.ok, want.kind, want.detail)
    assert not got.ok


def test_involution_across_all_chains_of_one_structure():
    model = periodic_toda(3)
    funcs = []
    for fam in model.families:
        funcs.extend(chain_from_family(model.structure, fam).functions)
    assert involution_check(funcs, model.structure).ok


def test_integrability_open_toda():
    chain = chain_from_family(V5.structure, V5.families[0])
    at = V5.structure.point_analysis(_pt(1, 1, 2, 1, 3))
    verdict = integrability_verdict(V5.structure, [chain], at)
    assert verdict.outcome == "StrictlyLenardIntegrable"
    assert verdict.independent == 3 and verdict.action_dim == 3


def test_integrability_periodic():
    model = periodic_toda(3)
    chains = [chain_from_family(model.structure, fam) for fam in model.families]
    at = model.structure.point_analysis(_pt(1, 2, 1, 1, 2, 3))
    verdict = integrability_verdict(model.structure, chains, at)
    assert verdict.outcome == "StrictlyLenardIntegrable"
    assert verdict.independent == 4 and verdict.action_dim == 4


def test_integrability_jordan_obstructed():
    model = jordan_model(1, 2)
    const = LambdaFamily((parse_rational("7", model.structure.variables),))
    chain = chain_from_family(model.structure, const)
    assert chain.anchored
    at = model.structure.point_analysis(_pt(1, 1))
    verdict = integrability_verdict(model.structure, [chain], at)
    assert verdict.outcome == "JordanObstructed"
    assert verdict.independent == 0 and verdict.action_dim == 1


def test_independent_count_bounded_by_action_dim():
    # at pure-Kronecker points the gradient count never exceeds the action
    # dimension
    for model, pt in ((V3, _pt(1, 1, 1)), (V5, _pt(1, 1, 2, 1, 3))):
        chains = [chain_from_family(model.structure, fam) for fam in model.families]
        verdict = integrability_verdict(model.structure, chains,
                                        model.structure.point_analysis(pt))
        assert verdict.independent <= verdict.action_dim


def test_chain_json_roundtrip():
    chain = chain_from_family(V3.structure, V3.families[0])
    data = export_model(replace(V3, chains=[chain]))
    assert data["chains"][0]["anchored"] is True
    back = parse_structure_file(json.dumps(data)).chains[0]
    assert back.functions == chain.functions
