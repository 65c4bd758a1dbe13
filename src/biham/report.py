"""Analysis orchestration and deterministic report emission.

``run_analyze`` runs every certificate, samples generic rational points
(seed-deterministic), decomposes the pointwise pencils, applies the
criteria and the chain machinery, and aggregates everything into a report
that serializes byte-stably for a fixed (input, seed, version) triple.

Every record in a report, the certificates, the verdicts and
``AnalysisReport`` itself, is an ``exactalg.Record`` written as its
fields, so a report field's name is its JSON key.
"""

import json
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields

from . import __version__
from .casimir import family_check, kronecker_criterion, lax_check
from .errors import PoleAtPoint, ValidationError
from .exactalg import Record, is_json_int, load_json, rat, rat_str
from .lenard import chain_from_family, integrability_verdict, verify_chain
from .models import ModelSpec
from .pencil import INF
from .poisson import Certificate
from .sampling import model_inequations, sample_points

MAX_SAMPLES = 10_000    # the sample list is built before any point is analysed


@dataclass
class AnalysisReport(Record):
    structure: str
    dim: int
    vars: list
    seed: int
    version: str
    certificates: dict
    families: list
    chains: list
    points: list                      # per-point records
    modal_type: str
    criterion: dict | None
    lax: dict | None
    integrability: dict | None
    expectations: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)

    @property
    def matched(self) -> bool:
        return not self.mismatches

    @classmethod
    def from_json(cls, data) -> "AnalysisReport":
        """A stored report, as written by ``emit_report(..., "json")``.

        Every field without a default is required; the first one missing,
        in field order, is the one named.
        """
        if isinstance(data, str):
            data = load_json(data)
        try:
            report = cls(**{name: data[name] for name in _FIELDS
                            if name in _REQUIRED or name in data})
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"not an analysis report: missing or bad field {exc}") from exc
        # markdown renders whatever a field holds: a string in an array's place
        # as its characters, a number in a string's place as the number
        for name, value in report.to_json().items():
            ok, what = _FIELDS[name]
            if not ok(value):
                raise ValidationError(f"report field '{name}' is not {what}")
        return report


def _strings(x) -> bool:
    return isinstance(x, list) and all(isinstance(s, str) for s in x)


def _of(*types):
    return lambda x: isinstance(x, types)


def _certificate(c) -> bool:
    return (isinstance(c, dict) and isinstance(c.get("kind"), str)
            and isinstance(c.get("ok"), bool) and isinstance(c.get("detail", ""), str))


_POINT_FIELDS = {"point": _strings, "pencil_type": _of(str), "coranks": _of(dict),
                 "w1_dim": is_json_int, "criterion": _of(dict), "integrability": _of(dict),
                 "error": _of(str)}


def _point_record(rec) -> bool:
    return isinstance(rec, dict) and "point" in rec and all(
        ok(rec[key]) for key, ok in _POINT_FIELDS.items() if key in rec)


# Each report field's check and its description, as report.schema.json types it,
# in the dataclass's field order.
_FIELDS = {
    "structure": (_of(str), "a string"),
    "dim": (lambda x: is_json_int(x) and x >= 1, "an integer >= 1"),
    "vars": (_strings, "an array of strings"),
    "seed": (is_json_int, "an integer"),
    "version": (_of(str), "a string"),
    "certificates": (lambda x: isinstance(x, dict) and all(map(_certificate, x.values())),
                     "an object of certificates (string 'kind', boolean 'ok', string 'detail')"),
    "families": (_of(list), "an array"),
    "chains": (_of(list), "an array"),
    "points": (lambda x: isinstance(x, list) and all(map(_point_record, x)),
               "an array of point records, each with a 'point' array of strings"),
    "modal_type": (_of(str), "a string"),
    "criterion": (_of(dict, type(None)), "an object or null"),
    "lax": (_of(dict, type(None)), "an object or null"),
    "integrability": (_of(dict, type(None)), "an object or null"),
    "expectations": (_of(dict), "an object"),
    "mismatches": (_strings, "an array of strings"),
}
_REQUIRED = {f.name for f in fields(AnalysisReport)
             if f.default is MISSING and f.default_factory is MISSING}


def run_analyze(model: ModelSpec, points=None, samples: int = 20,
                seed: int = 0) -> AnalysisReport:
    """Certificates, seeded sampling, pointwise decomposition, verdicts.

    Each sample point is decomposed once; its ``PointAnalysis`` feeds the
    criterion, the integrability verdict, the Lax check and the coranks.
    Points whose integer pencils are equal share one decomposition: one dict
    from pencil to ``PencilType`` lives for this call only, so nothing is
    carried to the next call.  The constant-coefficient models give the
    same pencil at every point and are decomposed once.  When every family
    is certified, the families go to ``point_analysis`` too, which reads
    the minimal indices off them at a point where their coefficient
    gradients are independent.  The modal type and the criterion and
    integrability summaries are read off the point records after the loop.
    """
    if points is None and not 1 <= samples <= MAX_SAMPLES:
        raise ValidationError(
            f"samples must be between 1 and {MAX_SAMPLES}, got {samples}")
    b = model.structure
    certs = {k: v.to_json() for k, v in b.verify().items()}

    family_records = []
    for fam in model.families:
        cert = family_check(b, fam)
        family_records.append({"name": fam.name, "degree": fam.degree,
                               "certificate": cert.to_json()})
    # the criterion presupposes every family identity; without one it stays null
    criterion_ready = model.families and all(r["certificate"]["ok"] for r in family_records)
    chains = [chain_from_family(b, fam) for fam in model.families]
    chain_records = []
    for chain in chains:
        cert = verify_chain(chain)
        chain_records.append({"name": chain.name, "anchored": chain.anchored,
                              "length": len(chain.functions),
                              "certificate": cert.to_json()})

    if points is None:
        points = sample_points(model.dim, samples, seed,
                               inequations=model_inequations(model))
    else:
        points = [tuple(rat(x) for x in p) for p in points]

    point_records = []
    analyses = []                     # one PointAnalysis per pole-free point
    types = {}                        # integer pencil -> PencilType, for this call
    for pt in sorted(points):
        record = {"point": [rat_str(x) for x in pt]}
        try:
            at = b.point_analysis(pt, types,
                                  families=model.families if criterion_ready else ())
        except PoleAtPoint as exc:
            record["error"] = str(exc)
            point_records.append(record)
            continue
        analyses.append(at)
        record["pencil_type"] = at.ptype.label()
        record["coranks"] = {"bracket1": at.corank_profile[INF],
                             "bracket2": at.corank_profile["0"],
                             "generic": at.generic_corank}
        if criterion_ready:
            verdict = kronecker_criterion(b, model.families, at)
            record["w1_dim"] = verdict.w1_dim
            record["criterion"] = verdict.to_json()
        if chains:
            record["integrability"] = integrability_verdict(b, chains, at).to_json()
        point_records.append(record)

    record_lax = None
    if model.families and analyses:
        best_fam = max(model.families, key=lambda f: f.degree)
        record_lax = lax_check(b, best_fam, analyses[0]).to_json()

    types_seen = Counter(r["pencil_type"] for r in point_records if "pencil_type" in r)
    modal_type = types_seen.most_common(1)[0][0] if types_seen else ""
    criterion_summary = _modal_summary([r["criterion"] for r in point_records
                                        if "criterion" in r])
    integrability_summary = _modal_summary([r["integrability"] for r in point_records
                                            if "integrability" in r])
    if analyses and not chains:
        # no chains supplied: run the verdict with an empty collection so
        # Jordan obstructions still surface
        integrability_summary = _modal_summary(
            [integrability_verdict(b, [], analyses[0]).to_json()])

    mismatches = []
    exp = dict(model.expectations)
    if exp:
        if exp.get("pencil_type") and exp["pencil_type"] != modal_type:
            mismatches.append(f"pencil type: expected {exp['pencil_type']}, "
                              f"got {modal_type}")
        want = exp.get("criterion")
        got = criterion_summary["modal_outcome"] if criterion_summary else None
        if want is not None and want != got:
            mismatches.append(f"criterion: expected {want}, got {got}")
        want = exp.get("integrability")
        got = (integrability_summary or {}).get("modal_outcome")
        if want is not None and want != got:
            mismatches.append(f"integrability: expected {want}, got {got}")

    return AnalysisReport(
        structure=model.name,
        dim=model.dim,
        vars=list(model.variables),
        seed=seed,
        version=__version__,
        certificates=certs,
        families=family_records,
        chains=chain_records,
        points=point_records,
        modal_type=modal_type,
        criterion=criterion_summary,
        lax=record_lax,
        integrability=integrability_summary,
        expectations=exp,
        mismatches=mismatches,
    )


def _modal_summary(verdicts: list) -> dict | None:
    """The first point's verdict with the modal outcome and the outcome counts.

    ``verdicts`` are the points' verdict dicts in point order; a tie in the
    counts goes to the outcome of the earliest point.
    """
    if not verdicts:
        return None
    outcomes = Counter(v["outcome"] for v in verdicts)
    summary = dict(verdicts[0])
    summary["modal_outcome"] = outcomes.most_common(1)[0][0]
    summary["outcomes"] = dict(sorted(outcomes.items()))
    return summary


def _certificate_line(cert: dict) -> str:
    """A certificate record's ``Certificate.line``; a record without a detail has
    the field's default, as ``_certificate`` reads it."""
    return Certificate.line(cert["ok"], cert.get("detail", ""))


def emit_report(report: AnalysisReport, fmt: str = "json") -> str:
    """Deterministic serialization; markdown carries the per-point table
    and the provenance of every verdict."""
    if fmt == "json":
        return json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    if fmt != "markdown":
        raise ValidationError(f"unknown report format {fmt!r}")
    lines = [f"# Analysis: {report.structure}", ""]
    lines.append(f"- dimension: {report.dim}")
    lines.append(f"- seed: {report.seed}, version: {report.version}")
    for name, cert in sorted(report.certificates.items()):
        lines.append(f"- {name}: {_certificate_line(cert)}")
    for fam in report.families:
        lines.append(f"- family '{fam['name']}' (degree {fam['degree']}): "
                     f"{_certificate_line(fam['certificate'])}")
    for chain in report.chains:
        lines.append(f"- chain '{chain['name']}' (length {chain['length']}, "
                     f"anchored={chain['anchored']}): {_certificate_line(chain['certificate'])}")
    lines.append("")
    lines.append("| point | pencil type | corank1 | corank2 | W1 |")
    lines.append("|---|---|---|---|---|")
    for rec in report.points:
        pt = "(" + ", ".join(rec["point"]) + ")"
        if "error" in rec:
            lines.append(f"| {pt} | error: {rec['error']} | | | |")
            continue
        cr = rec["coranks"]
        lines.append(f"| {pt} | {rec['pencil_type']} | {cr['bracket1']} | "
                     f"{cr['bracket2']} | {rec.get('w1_dim', '')} |")
    lines.append("")
    lines.append(f"Modal pencil type: **{report.modal_type}**")
    if report.criterion:
        conj = report.criterion.get("conjectural")
        outcome = report.criterion["modal_outcome"]
        reason = report.criterion.get("reason", "")
        path = "conjectural path used" if conj else "conjectural path unused"
        detail = f" ({reason})" if reason else ""
        lines.append(f"Criterion: {path}; criterion {outcome}{detail} "
                     f"[{report.criterion['provenance']}]")
        lines.append(f"Cross-check decomposition: {report.criterion['cross_check']}")
    if report.lax:
        lines.append(f"Lax verdict: {report.lax['level']}"
                     + (f" of dimension {report.lax['concluded_dim']}"
                        if report.lax.get("concluded_dim") else ""))
    if report.integrability:
        lines.append(f"Integrability: {report.integrability['modal_outcome']} "
                     f"({report.integrability['independent']} independent, "
                     f"action dimension {report.integrability['action_dim']})")
    if report.expectations:
        if report.matched:
            lines.append("All declared expectations matched.")
        else:
            lines.append("MISMATCHES: " + "; ".join(report.mismatches))
    return "\n".join(lines) + "\n"
