"""Command-line front end.

Subcommands: ``catalog list``, ``catalog show``, ``analyze``, ``check
{poisson|compatible|casimir|family|chain}``, ``decompose``, ``normalform``,
``report``.  Exit codes: 0 = all verdicts as expected, 1 = a verdict or
certificate mismatch, 2 = input error, 3 = internal inconsistency or any
other internal error (a bug, not bad input: an exception that is neither
a ``BihamError`` nor an ``OSError`` prints one ``error: internal error:``
line instead of a traceback; when the failure carries the pencil it failed
on, that pencil follows the error on stderr as one JSON line that
``SkewPencil.from_json`` loads).  BIHAM_SEED provides the default sampling
seed; a value that is not an integer is an input error.
"""

import argparse
import json
import os
import sys

from .casimir import LambdaFamily, family_check, web_flatness
from .errors import BihamError, InternalInconsistency, ValidationError
from .exactalg import is_json_int, load_json, parse_int, parse_poly, parse_rational, rat
from .exactalg.parser import NAME
from .lenard import LenardChain, verify_chain
from .models import (ModelSpec, catalog_names, m_f, make_model, normal_form_phi,
                     DEFAULT_TRUNCATION, MAX_GERM_DEGREE)
from .pencil import SkewPencil, decompose
from .poisson import BihamStructure, PoissonStructure
from .report import AnalysisReport, emit_report, run_analyze


def _parse_params(text: str) -> dict:
    """``k=2,mu=inf`` as {"k": "2", "mu": "inf"}; the builder reads each value."""
    params = {}
    if not text:
        return params
    for item in text.split(","):
        if "=" not in item:
            raise ValidationError(f"bad parameter {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key in params:
            raise ValidationError(f"parameter {key!r} given twice")
        params[key] = value.strip()
    return params


def _names_file(target: str) -> bool:
    """Whether a target is a file: an existing path or a name ending in .json."""
    return os.path.exists(target) or target.endswith(".json")


def resolve_target(target: str) -> ModelSpec:
    """A catalog spec like ``open_toda:k=2`` or a structure JSON path."""
    if _names_file(target):
        return parse_structure_file(target)
    name, _, params = target.partition(":")
    return make_model(name, **_parse_params(params))


def parse_structure_file(path_or_text: str) -> ModelSpec:
    """A structure file as ``structure.schema.json`` describes it, from a path
    or inline: the one reader of the format.

    One pass over the document, field by field: dim and vars, the two
    bracket tables, name, families, chains, genericity, expectations.  A
    missing .json file is an error that names it; anything the schema
    refuses is a ValidationError that names the field.
    """
    if _names_file(path_or_text):
        with open(path_or_text, encoding="utf-8") as fh:
            text = fh.read()
        name = os.path.basename(path_or_text)
    else:
        text = path_or_text
        name = "<inline>"
    data = load_json(text)
    if not isinstance(data, dict):
        raise ValidationError("structure JSON must be an object")
    dim = data.get("dim")
    if not is_json_int(dim) or dim < 1:
        raise ValidationError(f"structure dimension {dim!r} is not an integer >= 1")
    variables = tuple(_field(data, "vars", list, _REQUIRED))
    if len(variables) != dim:
        raise ValidationError("vars length disagrees with dim")
    for k, var in enumerate(variables):
        if not isinstance(var, str):
            raise ValidationError(f"variable {var!r} is not a string")
        if not NAME.fullmatch(var):
            raise ValidationError(f"variable {var!r} is not a name matching {NAME.pattern}")
        if var in variables[:k]:
            raise ValidationError(f"variable {var!r} declared twice")
    structure = BihamStructure(*(PoissonStructure(variables, _bracket_table(data, key))
                                 for key in ("brackets1", "brackets2")))
    model = ModelSpec(name=_field(data, "name", str, name), params={},
                      structure=structure)
    for k, fam_data in enumerate(_field(data, "families", list)):
        model.families.append(_family(fam_data, variables, f"families[{k}]"))
    for k, chain_data in enumerate(_field(data, "chains", list)):
        model.chains.append(_chain(chain_data, structure, f"chain {k}"))
    model.genericity.extend(parse_poly(g, variables)
                            for g in _expressions(_field(data, "genericity", list), "genericity"))
    model.expectations = _field(data, "expectations", dict)
    return model


def _bracket_table(data: dict, key: str) -> dict:
    """A bracket table as {(i, j): coefficient}; ``PoissonStructure`` checks the indices."""
    table = {}
    for entry in _field(data, key, list, _REQUIRED):
        try:
            i, j, coeff = entry["i"], entry["j"], entry["coeff"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad bracket entry {entry!r}") from exc
        if not (is_json_int(i) and is_json_int(j)):
            raise ValidationError(f"bracket indices ({i!r}, {j!r}) are not integers")
        if not (isinstance(coeff, str) or is_json_int(coeff)):
            raise ValidationError(f"bracket coefficient {coeff!r} is neither "
                                  f"an expression string nor an integer")
        if (i, j) in table:
            raise ValidationError(f"bracket entry ({i},{j}) defined twice")
        table[(i, j)] = coeff
    return table


def _family(data, variables: tuple, where: str) -> LambdaFamily:
    """A ``family.schema.json`` entry; ``LambdaFamily`` checks its leading coefficient."""
    if not isinstance(data, dict):
        raise ValidationError(f"structure field {where} is not an object")
    coeffs = _expressions(_field(data, "coeffs", list, _REQUIRED, f"{where}.coeffs"),
                          f"{where}.coeffs")
    name = _field(data, "name", str, where=f"{where}.name")
    fam = LambdaFamily(tuple(parse_rational(c, variables) for c in coeffs), name=name)
    degree = data.get("degree", fam.degree)
    if not is_json_int(degree):
        raise ValidationError(f"family field 'degree' is {degree!r}, not an integer")
    if fam.degree != degree:
        raise ValidationError("family degree field disagrees with coefficients")
    return fam


def _chain(data, structure: BihamStructure, name: str) -> LenardChain:
    """A ``chain.schema.json`` entry, read over the file's structure."""
    if not isinstance(data, dict):
        raise ValidationError("chain JSON must be an object")
    anchored, funcs = data.get("anchored"), data.get("functions")
    if not isinstance(anchored, bool):
        raise ValidationError(f"chain field 'anchored' is {anchored!r}, not a boolean")
    if not (isinstance(funcs, list) and funcs and all(isinstance(f, str) for f in funcs)):
        raise ValidationError(f"chain field 'functions' is {funcs!r}, not a non-empty "
                              f"list of expression strings")
    return LenardChain(tuple(parse_rational(f, structure.variables) for f in funcs),
                       structure, anchored, name=name)


_KINDS = {list: "a list", dict: "an object", str: "a string"}
_REQUIRED = object()


def _field(data: dict, key: str, kind: type, default=None, where=None):
    """data[key], ``default`` (else empty) when absent, an input error when
    absent and ``_REQUIRED``; any other type is an input error that names
    the field (as ``where`` when given)."""
    value = data.get(key, kind() if default is None else default)
    if value is _REQUIRED:
        raise ValidationError(f"structure field {where or repr(key)} is missing")
    if not isinstance(value, kind):
        raise ValidationError(f"structure field {where or repr(key)} is not {_KINDS[kind]}")
    return value


def _expressions(values: list, where: str) -> list:
    """values when every entry is an expression string, else an input error naming the field."""
    for v in values:
        if not isinstance(v, str):
            raise ValidationError(f"structure field {where} entry {v!r} is not "
                                  f"an expression string")
    return values


def export_model(model: ModelSpec) -> dict:
    """The structure file of a model, which ``parse_structure_file`` reads back."""
    b = model.structure
    data = {"dim": b.dim, "vars": list(b.variables)}
    for key, p in (("brackets1", b.p1), ("brackets2", b.p2)):
        data[key] = [{"i": i, "j": j, "coeff": str(c)} for (i, j), c in sorted(p.table.items())]
    data["name"] = model.name
    if model.families:
        data["families"] = [{"degree": fam.degree, "coeffs": [str(c) for c in fam.coeffs],
                             "name": fam.name} for fam in model.families]
    if model.chains:
        data["chains"] = [{"anchored": chain.anchored,
                           "functions": [str(f) for f in chain.functions]}
                          for chain in model.chains]
    if model.genericity:
        data["genericity"] = [str(g) for g in model.genericity]
    if model.expectations:
        data["expectations"] = model.expectations
    return data


def _default_seed() -> int:
    value = os.environ.get("BIHAM_SEED", "0")
    try:
        return parse_int(value)
    except ValidationError as exc:
        raise ValidationError(f"BIHAM_SEED must be an integer, got {value!r}") from exc


def _int_option(text: str) -> int:
    """An integer option's value; argparse names the option when it is refused."""
    try:
        return parse_int(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


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
    p_analyze.add_argument("--samples", type=_int_option, default=20)
    p_analyze.add_argument("--seed", type=_int_option, default=None)
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
    p_nf.add_argument("--truncation", type=_int_option, default=DEFAULT_TRUNCATION)

    p_rep = sub.add_parser("report", help="re-emit a stored report")
    p_rep.add_argument("file")
    p_rep.add_argument("--format", choices=("json", "markdown"), default="markdown")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except InternalInconsistency as exc:
        return _internal_failure(f"internal inconsistency: {exc}", exc)
    except (BihamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        return _internal_failure(f"internal error: {type(exc).__name__}: {exc}", exc)


def _internal_failure(message: str, exc: Exception) -> int:
    """Exit code 3: the error line, then the pencil the failure carries, if any."""
    print(f"error: {message}", file=sys.stderr)
    pencil = getattr(exc, "pencil", None)
    if pencil is not None:
        print(json.dumps(pencil, sort_keys=True), file=sys.stderr)
    return 3


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
        degree = max(map(sum, f.terms), default=0)
        if degree > MAX_GERM_DEGREE:
            raise ValidationError(f"germ degree must be at most {MAX_GERM_DEGREE}, got {degree}")
        result = normal_form_phi(f, args.truncation)
        # the verdict is the web curvature of m_f's brackets, exact at every
        # order; phi is additive through the truncation whenever f is flat
        flat = all(c.is_zero() for c in web_flatness(m_f(f).structure))
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
                print(f"jacobi (bracket {which}): {cert}")
                ok = ok and cert.ok
    elif args.what == "compatible":
        cert = b.compatibility()
        print(f"compatibility: {cert}")
        ok = cert.ok
    elif args.what == "casimir":
        if not args.function:
            raise ValidationError("check casimir needs --function")
        f = parse_rational(args.function, b.variables)
        for which in (1, 2):
            if args.bracket in (str(which), "both"):
                p = b.p1 if which == 1 else b.p2
                cert = p.is_casimir(f)
                print(f"casimir (bracket {which}): {cert}")
                ok = ok and cert.ok
    elif args.what == "family":
        if not model.families:
            raise ValidationError("no families in the input")
        for fam in model.families:
            cert = family_check(b, fam)
            print(f"family '{fam.name}' (degree {fam.degree}): {cert}")
            ok = ok and cert.ok
    elif args.what == "chain":
        if not model.chains:
            raise ValidationError("no chains in the input")
        for i, chain in enumerate(model.chains):
            cert = verify_chain(chain)
            print(f"chain {i} (anchored={chain.anchored}): {cert}")
            ok = ok and cert.ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
