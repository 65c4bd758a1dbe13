"""End-to-end analyze runs across the whole catalog."""

import json
import sys
from collections import Counter
from dataclasses import MISSING, fields, replace
from functools import cached_property
from pathlib import Path

import pytest

from biham import casimir, lenard, pencil, poisson
from biham.errors import ValidationError
from biham.exactalg import RationalFunction, Record, kernels, rat
from biham.models import (flat_kronecker, jordan_model, m_f, open_toda,
                          periodic_toda, sl2_shift, two_family_model)
from biham.pencil import jordan_pencil, kronecker_pencil
from biham.lenard import chain_from_family, involution_check
from biham.poisson import BihamStructure
from biham.report import _FIELDS, AnalysisReport, emit_report, run_analyze

SCHEMAS = Path(__file__).resolve().parent.parent / "src" / "biham" / "schemas"

CATALOG = [
    (flat_kronecker(1), 4), (flat_kronecker(2), 4), (flat_kronecker(3), 4),
    (jordan_model(1, 2), 3), (jordan_model(2, "inf"), 3),
    (open_toda(1), 6), (open_toda(2), 6),
    (periodic_toda(3), 6),
    (m_f("x + y"), 5), (m_f("x + y + x*y"), 5),
    (two_family_model("t^2"), 5), (two_family_model("t"), 5),
    (sl2_shift((0, 1, 0)), 5),
]


@pytest.mark.parametrize("model,samples", CATALOG,
                         ids=[m.name for m, _ in CATALOG])
def test_analyze_matches_declared_expectations(model, samples):
    report = run_analyze(model, samples=samples, seed=17)
    assert report.matched, report.mismatches
    assert all(c["ok"] for c in report.certificates.values())
    assert all(f["certificate"]["ok"] for f in report.families)
    assert all(c["certificate"]["ok"] for c in report.chains)


def test_analyze_open_toda_k3_small_sample():
    report = run_analyze(open_toda(3), samples=3, seed=23)
    assert report.matched
    assert report.modal_type == "{K7}"
    assert report.criterion["modal_outcome"] == "KroneckerCertified"


def test_markdown_report_shape():
    report = run_analyze(periodic_toda(3), samples=4, seed=3)
    text = emit_report(report, "markdown")
    assert "| point | pencil type |" in text
    assert "conjectural path used" in text
    assert "multi-family conjectural type formula" in text


def test_explicit_points_bypass_sampling():
    report = run_analyze(open_toda(1), points=[(1, 1, 1), (2, 1, 3)], seed=0)
    assert len(report.points) == 2
    assert report.modal_type == "{K3}"


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` at every biham binding; returns the list of call args."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "biham" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_analyze_decomposes_each_point_once(monkeypatch):
    model = open_toda(3)
    b = BihamStructure(model.structure.p1, model.structure.p2, name=model.name)
    model = replace(model, structure=b)
    decomposed = _count_calls(monkeypatch, pencil, "decompose")
    proved = _count_calls(monkeypatch, casimir, "_prove_family")
    attributes = set(vars(b))
    report = run_analyze(model, samples=5, seed=0)
    assert report.matched
    assert len(report.points) == 5
    assert len(decomposed) == 5
    assert len({args[0] for args in decomposed}) == 5
    assert [args[1] for args in proved] == model.families
    # nothing per point is left behind on the structure
    assert set(vars(b)) == attributes
    families = {("family", fam.coeffs) for fam in model.families}
    # each family relation P1 grad f_{k-1} + P2 grad f_k = 0, a zero side as None;
    # the chain's anchor and recurrence steps are among them
    relations = set()
    for fam in model.families:
        sides = (None,) + tuple(None if c.is_zero() else c for c in fam.coeffs) + (None,)
        relations |= {("relation", f, g) for f, g in zip(sides, sides[1:])}
    assert set(b._certificates) == ({"jacobi1", "jacobi2", "compatibility"}
                                    | families | relations)


def test_analyze_labels_each_pencil_type_once(monkeypatch):
    # the record, the criterion's cross-check and the integrability verdict
    # each read a point's label; the type builds it on the first read only
    built = []
    build = vars(pencil.PencilType)["_label"].func

    def counted(ptype):
        built.append(ptype)
        return build(ptype)

    label = cached_property(counted)
    label.__set_name__(pencil.PencilType, "_label")
    monkeypatch.setattr(pencil.PencilType, "_label", label)
    report = run_analyze(open_toda(2), samples=5, seed=0)
    assert report.matched and all(r["criterion"] and r["integrability"] for r in report.points)
    assert len(built) == len({id(t) for t in built}) == 5
    assert [r["pencil_type"] for r in report.points] == [t.label() for t in built]


def test_analyze_decomposes_each_distinct_pencil_once_per_call(monkeypatch):
    # a constant-coefficient model has one integer pencil at every point: one
    # decompose per run_analyze call, the report of one decompose per point,
    # and a second call decomposes again, so nothing outlives the call
    model = flat_kronecker(3)
    decomposed = _count_calls(monkeypatch, pencil, "decompose")
    shared = BihamStructure.point_analysis
    monkeypatch.setattr(BihamStructure, "point_analysis",
                        lambda self, point, types=None, families=():
                        shared(self, point, families=families))
    per_point = emit_report(run_analyze(model, samples=5, seed=0))
    assert len(decomposed) == 5
    monkeypatch.setattr(BihamStructure, "point_analysis", shared)
    report = run_analyze(model, samples=5, seed=0)
    assert len(report.points) == 5 and report.matched
    assert len(decomposed) == 5 + 1
    assert emit_report(report) == per_point
    run_analyze(model, samples=5, seed=0)
    assert len(decomposed) == 5 + 2


@pytest.mark.parametrize("model,staircases", [
    (open_toda(4), 0), (periodic_toda(4), 0), (two_family_model("t^2"), 20),
], ids=["open_toda_4", "periodic_toda_4", "two_family"])
def test_analyze_reads_the_minimal_indices_off_the_families(monkeypatch, model, staircases):
    # at each seed-0 Toda point the family coefficients have independent
    # gradients and the probe's corank is the family count, so the degrees
    # are the minimal indices and no staircase runs; two_family's one family
    # (degree 2 in dimension 3) never qualifies, and every point runs it
    calls = _count_calls(monkeypatch, pencil, "minimal_indices")
    report = run_analyze(model, samples=20, seed=0)
    assert report.matched and len(report.points) == 20
    assert len(calls) == staircases


def test_analyze_sums_each_relation_once(monkeypatch):
    # family, anchor and chain share one stored result per relation, so each
    # relation is summed once, next to the two Jacobi and the compatibility
    # sums; a family's d + 2 relations are zero-tested in one sum
    model = open_toda(3)
    b = BihamStructure(model.structure.p1, model.structure.p2, name=model.name)
    calls = []
    original = poisson.first_nonzero_sum

    def counted(groups, variables):
        calls.append(groups)
        return original(groups, variables)

    monkeypatch.setattr(poisson, "first_nonzero_sum", counted)
    report = run_analyze(replace(model, structure=b), samples=3, seed=0)
    assert report.matched
    assert len(calls) == 3 + len(model.families)


def _count_partials(monkeypatch):
    """Record the function of every ``RationalFunction.partials`` call."""
    calls = []
    original = RationalFunction.partials

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RationalFunction, "partials", counted)
    return calls


def test_analyze_then_involution_differentiate_each_function_once(monkeypatch):
    # relations, point rows and involution all read the structure's stored
    # gradients, so each function is differentiated once, in one partials call
    calls = _count_partials(monkeypatch)
    model = open_toda(3)
    b = model.structure
    assert run_analyze(model, samples=2, seed=0).matched
    funcs = [f for fam in model.families for f in chain_from_family(b, fam).functions]
    assert involution_check(funcs, b).ok
    # the Jacobi and compatibility sums differentiate bracket entries instead
    entries = {id(c) for p in (b.p1, b.p2) for c in p.table.values()}
    calls = [f for f in calls if id(f) not in entries]
    assert len(calls) == len(set(calls))
    assert set(calls) == set(funcs)


def test_analyze_differentiates_independently_of_the_sample_count(monkeypatch):
    # each function's symbolic gradient is kept on the structure, so more
    # sample points evaluate more, but differentiate nothing new
    calls = _count_partials(monkeypatch)
    counts = []
    for samples in (2, 6):
        model = open_toda(3)
        calls.clear()
        assert run_analyze(model, samples=samples, seed=0).matched
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_analyze_eliminates_one_gradient_rank_per_point(monkeypatch):
    # chains are family coefficients reversed, so the criterion's W1, the
    # integrability count and the Lax check share one gradient rank per point:
    # one elimination there besides the pencil's own
    eliminated = []
    original = kernels.row_echelon_ff

    def counted(m):
        frame = sys._getframe(1)
        while frame is not None and not frame.f_code.co_filename.endswith(
                ("pencil.py", "poisson.py", "casimir.py", "lenard.py")):
            frame = frame.f_back
        if frame is not None and not frame.f_code.co_filename.endswith("pencil.py"):
            eliminated.append(frame.f_code.co_name)
        return original(m)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "biham" and getattr(mod, "row_echelon_ff", None) is original:
            monkeypatch.setattr(mod, "row_echelon_ff", counted)
    report = run_analyze(open_toda(3), samples=2, seed=0)
    assert report.matched and report.lax["level"] == "KroneckerConcluded"
    assert all("integrability" in rec and "criterion" in rec for rec in report.points)
    assert len(eliminated) == len(report.points) == 2


def test_analyze_evaluates_each_gradient_once_per_point(monkeypatch):
    # each family coefficient's gradient is evaluated once at each sample point
    evaluated = Counter()
    original = BihamStructure.gradient_row

    def counted(self, f, point):
        evaluated[(f, point.point)] += 1
        return original(self, f, point)

    monkeypatch.setattr(BihamStructure, "gradient_row", counted)
    model = open_toda(3)
    report = run_analyze(model, samples=2, seed=0)
    assert report.matched
    points = [tuple(rat(x) for x in rec["point"]) for rec in report.points]
    assert set(evaluated) == {(c, pt) for fam in model.families for c in fam.coeffs
                              for pt in points}
    assert set(evaluated.values()) == {1}


def test_analyze_does_not_prove_involution(monkeypatch):
    # the report carries no involution certificate, so none is proved
    proved = _count_calls(monkeypatch, lenard, "involution_check")
    report = run_analyze(open_toda(2), samples=2, seed=0)
    assert report.chains
    assert proved == []


@pytest.mark.parametrize("samples", [0, -3])
def test_analyze_rejects_nonpositive_samples(samples):
    with pytest.raises(ValidationError):
        run_analyze(open_toda(1), samples=samples, seed=0)


def test_records_are_plain_json(monkeypatch):
    # every result record writes its dataclass fields under their own names,
    # and no tuple reaches the JSON: it reads back equal
    written = []
    original = Record.to_json

    def recorded(self):
        written.append(self)
        return original(self)

    monkeypatch.setattr(Record, "to_json", recorded)
    report = run_analyze(open_toda(2), samples=3, seed=0)
    records = [*written, report]
    assert {type(x) for x in records} == {
        poisson.Certificate, casimir.CriterionVerdict, casimir.LaxVerdict,
        lenard.IntegrabilityVerdict, AnalysisReport}
    for x in records:
        data = x.to_json()
        assert list(data) == [f.name for f in fields(x)]
        assert json.loads(json.dumps(data)) == data


def test_report_fields_are_the_schema_properties():
    schema = json.loads((SCHEMAS / "report.schema.json").read_text(encoding="utf-8"))
    names = [f.name for f in fields(AnalysisReport)]
    assert len(names) == 15
    assert names == list(_FIELDS)
    assert set(names) == set(schema["properties"])
    assert {f.name for f in fields(AnalysisReport)
            if f.default is MISSING and f.default_factory is MISSING} == set(schema["required"])
