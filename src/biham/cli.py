"""Command-line front end.

Subcommands: ``catalog list``, ``catalog show``, ``analyze``, ``check
{poisson|compatible|casimir|family|chain}``, ``decompose``, ``normalform``,
``report``.  Exit codes: 0 = all verdicts as expected, 1 = a verdict or
certificate mismatch, 2 = input error, 3 = internal inconsistency (a bug,
not bad input; when the failure carries the pencil it failed on, that
pencil follows the error on stderr as one JSON line that
``SkewPencil.from_json`` loads).  BIHAM_SEED provides the default sampling
seed; a value that is not an integer is an input error.
"""

import argparse
import json
import os
import sys

from .casimir import LambdaFamily, family_check
from .errors import BihamError, InternalInconsistency, ValidationError
from .exactalg import load_json, parse_poly, parse_rational, rat
from .lenard import LenardChain, verify_chain
from .models import (ModelSpec, catalog_names, make_model, normal_form_phi, web_curvature,
                     DEFAULT_TRUNCATION)
from .pencil import SkewPencil, decompose
from .poisson import BihamStructure
from .report import AnalysisReport, emit_report, run_analyze


def _parse_params(text: str) -> dict:
    """``k=2,mu=inf`` style parameter strings; alpha components use ';'."""
    params = {}
    if not text:
        return params
    for item in text.split(","):
        if "=" not in item:
            raise ValidationError(f"bad parameter {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key in params:
            raise ValidationError(f"parameter {key!r} given twice")
        if key == "k":
            try:
                params[key] = int(value)
            except ValueError as exc:
                raise ValidationError(f"parameter {key!r} needs an integer, "
                                      f"got {value!r}") from exc
        elif key == "mu":
            params[key] = "inf" if value == "inf" else rat(value)
        elif key == "alpha":
            params[key] = tuple(rat(v) for v in value.split(";"))
        elif key in ("eta", "f"):
            params[key] = value
        else:
            raise ValidationError(f"unknown parameter {key!r}")
    return params


def resolve_target(target: str) -> ModelSpec:
    """A catalog spec like ``open_toda:k=2`` or a structure JSON path."""
    if os.path.exists(target) or target.endswith(".json"):
        return parse_structure_file(target)
    name, _, params = target.partition(":")
    return make_model(name, **_parse_params(params))


def parse_structure_file(path_or_text: str) -> ModelSpec:
    """Structure JSON (two bracket tables, optional families and chains)."""
    if os.path.exists(path_or_text):
        with open(path_or_text, encoding="utf-8") as fh:
            text = fh.read()
        name = os.path.basename(path_or_text)
    else:
        text = path_or_text
        name = "<inline>"
    data = load_json(text)
    structure = BihamStructure.from_json(data, name=name)
    model = ModelSpec(name=data.get("name", name), params={},
                      structure=structure)
    for k, fam_data in enumerate(_field(data, "families", list)):
        where = f"families[{k}]"
        if not isinstance(fam_data, dict):
            raise ValidationError(f"structure field {where} is not an object")
        _expressions(fam_data.get("coeffs", []), f"{where}.coeffs")
        fam = LambdaFamily.from_json(fam_data, structure.variables,
                                     name=fam_data.get("name", ""))
        model.families.append(fam)
    model.chains.extend(LenardChain.from_json(chain_data, structure, name=f"chain {i}")
                        for i, chain_data in enumerate(_field(data, "chains", list)))
    genericity = _expressions(_field(data, "genericity", list), "genericity")
    model.genericity.extend(parse_poly(g, structure.variables) for g in genericity)
    model.expectations = _field(data, "expectations", dict)
    return model


def _field(data: dict, key: str, kind: type):
    """data[key], empty when absent; any other type is an input error."""
    value = data.get(key, kind())
    if not isinstance(value, kind):
        raise ValidationError(f"structure field {key!r} is not "
                              f"{'a list' if kind is list else 'an object'}")
    return value


def _expressions(values, where: str):
    """values when it is a list of expression strings, else an input error naming the field."""
    if not isinstance(values, list):
        raise ValidationError(f"structure field {where} is not a list")
    for v in values:
        if not isinstance(v, str):
            raise ValidationError(f"structure field {where} entry {v!r} is not "
                                  f"an expression string")
    return values


def export_model(model: ModelSpec) -> dict:
    data = model.structure.to_json()
    data["name"] = model.name
    if model.families:
        data["families"] = []
        for fam in model.families:
            fam_data = fam.to_json()
            fam_data["name"] = fam.name
            data["families"].append(fam_data)
    if model.genericity:
        data["genericity"] = [str(g) for g in model.genericity]
    if model.expectations:
        data["expectations"] = model.expectations
    return data


def _default_seed() -> int:
    value = os.environ.get("BIHAM_SEED", "0")
    try:
        return int(value)
    except ValueError as exc:
        raise ValidationError(f"BIHAM_SEED must be an integer, got {value!r}") from exc


def _point_arg(text: str) -> tuple:
    """An explicit ``--point`` 'a,b,...'; read in ``_dispatch`` so a bad one is an input error."""
    try:
        return tuple(rat(x) for x in text.split(","))
    except ValidationError as exc:
        raise ValidationError(f"--point {text!r}: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="biham",
        description="Exact analysis of bihamiltonian structures: pencil "
                    "decomposition, Poisson certificates, Casimir families, "
                    "Lenard chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="catalog access")
    catalog_sub = p_catalog.add_subparsers(dest="catalog_command", required=True)
    catalog_sub.add_parser("list", help="list catalog model names")
    p_show = catalog_sub.add_parser("show", help="export a model as JSON")
    p_show.add_argument("target", help="model spec, e.g. open_toda:k=2")

    p_analyze = sub.add_parser("analyze", help="full per-point analysis")
    p_analyze.add_argument("target", help="catalog spec (open_toda:k=2) or JSON file")
    p_analyze.add_argument("--samples", type=int, default=20)
    p_analyze.add_argument("--seed", type=int, default=None)
    p_analyze.add_argument("--point", action="append",
                           help="explicit rational point 'a,b,...' (repeatable)")
    p_analyze.add_argument("--format", choices=("json", "markdown"), default="json")

    p_check = sub.add_parser("check", help="run one certificate")
    p_check.add_argument("what", choices=("poisson", "compatible", "casimir",
                                          "family", "chain"))
    p_check.add_argument("target", help="structure JSON file or catalog spec")
    p_check.add_argument("--function", help="function for 'casimir'")
    p_check.add_argument("--bracket", choices=("1", "2", "both"), default="both")

    p_dec = sub.add_parser("decompose", help="decompose a raw pencil file")
    p_dec.add_argument("file", help="pencil JSON {n, A, B}")
    p_dec.add_argument("--format", choices=("json", "markdown"), default="markdown")

    p_nf = sub.add_parser("normalform", help="normal form of a 2-variable germ")
    p_nf.add_argument("--function", required=True, help="polynomial in x, y")
    p_nf.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)

    p_rep = sub.add_parser("report", help="re-emit a stored report")
    p_rep.add_argument("file")
    p_rep.add_argument("--format", choices=("json", "markdown"), default="markdown")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except InternalInconsistency as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        if exc.pencil is not None:
            print(json.dumps(exc.pencil, sort_keys=True), file=sys.stderr)
        return 3
    except BihamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "catalog":
        if args.catalog_command == "list":
            for name in catalog_names():
                print(name)
            return 0
        model = resolve_target(args.target)
        print(json.dumps(export_model(model), sort_keys=True, indent=2))
        return 0

    if args.command == "analyze":
        model = resolve_target(args.target)
        seed = args.seed if args.seed is not None else _default_seed()
        points = [_point_arg(text) for text in args.point] if args.point else None
        report = run_analyze(model, points=points, samples=args.samples, seed=seed)
        sys.stdout.write(emit_report(report, args.format))
        certs_ok = all(c["ok"] for c in report.certificates.values())
        fams_ok = all(f["certificate"]["ok"] for f in report.families)
        return 0 if (report.matched and certs_ok and fams_ok) else 1

    if args.command == "check":
        return _check(args)

    if args.command == "decompose":
        with open(args.file, encoding="utf-8") as fh:
            pencil = SkewPencil.from_json(fh.read())
        ptype = decompose(pencil)
        if args.format == "json":
            blocks = [{"kind": b.kind, "k": b.k, "label": b.label()}
                      for b in sorted(ptype.blocks, key=lambda b: b.sort_key())]
            print(json.dumps({"n": ptype.n, "type": ptype.label(),
                              "blocks": blocks}, sort_keys=True, indent=2))
        else:
            print(f"pencil of dimension {ptype.n}: {ptype.label()}")
        return 0

    if args.command == "normalform":
        f = parse_poly(args.function, ("x", "y"))
        result = normal_form_phi(f, args.truncation)
        # the verdict is the web curvature's, exact at every order; phi is
        # additive through the truncation whenever f is flat
        flat = web_curvature(f).is_zero()
        if flat and not result.additive:
            raise InternalInconsistency(f"web curvature of {f} vanishes, phi is not additive")
        if flat:
            note = ""
        elif result.additive:
            note = f" (phi additive through order {args.truncation})"
        else:
            note = " (scaling unfixed)"
        print(f"phi = {result.phi} + O(deg {args.truncation + 1})")
        print(f"flat: {'yes' if flat else 'no'}{note}")
        return 0

    if args.command == "report":
        with open(args.file, encoding="utf-8") as fh:
            report = AnalysisReport.from_json(fh.read())
        try:
            text = emit_report(report, args.format)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValidationError(f"malformed report {args.file}: {exc!r}") from exc
        sys.stdout.write(text)
        return 0

    raise ValidationError(f"unknown command {args.command!r}")


def _check(args) -> int:
    model = resolve_target(args.target)
    b = model.structure
    ok = True
    if args.what == "poisson":
        for which in (1, 2):
            if args.bracket in (str(which), "both"):
                cert = b.jacobi(which)
                print(f"jacobi (bracket {which}): "
                      f"{'pass' if cert.ok else 'FAIL ' + cert.detail}")
                ok = ok and cert.ok
    elif args.what == "compatible":
        cert = b.compatibility()
        print(f"compatibility: {'pass' if cert.ok else 'FAIL ' + cert.detail}")
        ok = cert.ok
    elif args.what == "casimir":
        if not args.function:
            raise ValidationError("check casimir needs --function")
        f = parse_rational(args.function, b.variables)
        for which in (1, 2):
            if args.bracket in (str(which), "both"):
                p = b.p1 if which == 1 else b.p2
                cert = p.is_casimir(f)
                print(f"casimir (bracket {which}): "
                      f"{'pass' if cert.ok else 'FAIL ' + cert.detail}")
                ok = ok and cert.ok
    elif args.what == "family":
        if not model.families:
            raise ValidationError("no families in the input")
        for fam in model.families:
            cert = family_check(b, fam)
            print(f"family '{fam.name}' (degree {fam.degree}): "
                  f"{'pass' if cert.ok else 'FAIL ' + cert.detail}")
            ok = ok and cert.ok
    elif args.what == "chain":
        if not model.chains:
            raise ValidationError("no chains in the input")
        for i, chain in enumerate(model.chains):
            cert = verify_chain(chain)
            print(f"chain {i} (anchored={chain.anchored}): "
                  f"{'pass' if cert.ok else 'FAIL ' + cert.detail}")
            ok = ok and cert.ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
