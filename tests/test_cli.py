"""CLI: parsing, subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import biham.cli as cli_module
import biham.models as models_module
import biham.pencil as pencil_module
import biham.poisson as poisson_module
from biham.cli import export_model, main, parse_structure_file, resolve_target
from biham.errors import InternalInconsistency, NotSkewCanonical, ValidationError
from biham.exactalg import parse_poly
from biham.lenard import chain_from_family
from biham.models import (MAX_FLAT_KRONECKER_K, MAX_GERM_DEGREE, MAX_JORDAN_K, MAX_OPEN_TODA_K,
                          MAX_PERIODIC_TODA_K, catalog_names, flat_kronecker, m_f,
                          make_model, open_toda)
from biham.pencil import (SkewPencil, epsilon_adjacency_pencil, jordan_pencil,
                          kronecker_pencil)
from biham.report import MAX_SAMPLES, AnalysisReport, emit_report, run_analyze

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "src", "biham", "data")
SCHEMAS = os.path.join(os.path.dirname(__file__), os.pardir, "src", "biham", "schemas")


def _schema(name):
    with open(os.path.join(SCHEMAS, name), encoding="utf-8") as fh:
        return json.load(fh)


def test_shipped_flat_k3_matches_catalog():
    model = parse_structure_file(os.path.join(DATA, "flat_k3.json"))
    catalog = flat_kronecker(2)
    assert model.dim == 3
    assert model.structure.p1.table == catalog.structure.p1.table
    assert model.structure.p2.table == catalog.structure.p2.table
    assert [c for f in model.families for c in f.coeffs] == \
        [c for f in catalog.families for c in f.coeffs]


def test_parse_rejects_diagonal_entry():
    bad = json.dumps({"dim": 2, "vars": ["v0", "v1"],
                      "brackets1": [{"i": 0, "j": 0, "coeff": "v0"}],
                      "brackets2": []})
    with pytest.raises(ValidationError):
        parse_structure_file(bad)


def test_parse_error_reports_position():
    with pytest.raises(ValidationError, match="line"):
        parse_structure_file("{not json")


def test_catalog_export_roundtrip(tmp_path):
    model = open_toda(2)
    path = tmp_path / "v5.json"
    path.write_text(json.dumps(export_model(model)))
    back = parse_structure_file(str(path))
    assert back.structure.p1.table == model.structure.p1.table
    assert back.structure.p2.table == model.structure.p2.table
    assert back.structure.certified()
    from biham.casimir import family_check
    for fam in back.families:
        assert family_check(back.structure, fam).ok


def test_resolve_target_with_params():
    model = resolve_target("jordan_model:k=1,mu=inf")
    assert model.dim == 2
    model2 = resolve_target("sl2_shift:alpha=0;1;0")
    assert model2.dim == 3
    with pytest.raises(ValidationError):
        resolve_target("jordan_model:k=1,mu=inf,bogus=2")


def test_every_catalog_name_constructible_from_strings():
    specs = ["flat_kronecker:k=3", "jordan_model:k=2,mu=inf", "open_toda:k=2",
             "periodic_toda:k=3", "m_f:f=x+y", "two_family:eta=t^2",
             "sl2_shift:alpha=1;2;1"]
    dims = [resolve_target(s).dim for s in specs]
    assert dims == [5, 4, 5, 6, 3, 3, 3]


# one spec and the same parameters as Python values, for every catalog name
SPEC_AND_VALUES = {
    "flat_kronecker": ("k=3", {"k": 3}),
    "jordan_model": ("k=2,mu=-1/2", {"k": 2, "mu": Fraction(-1, 2)}),
    "open_toda": ("k=2", {"k": 2}),
    "periodic_toda": ("k=3", {"k": 3}),
    "m_f": ("f=x+y+x^2*y", {"f": parse_poly("x + y + x^2*y", ("x", "y"))}),
    "two_family": ("eta=t^2", {"eta": parse_poly("t^2", ("t",))}),
    "sl2_shift": ("alpha=1;2;3", {"alpha": (1, 2, 3)}),
}


def test_catalog_spec_text_builds_what_python_values_build():
    assert sorted(SPEC_AND_VALUES) == catalog_names()
    for name, (text, values) in SPEC_AND_VALUES.items():
        from_spec = resolve_target(f"{name}:{text}")
        direct = make_model(name, **values)
        assert from_spec.name == direct.name
        assert export_model(from_spec) == export_model(direct)


# Specs that cover every builder, with the JSON text `catalog show` printed
# for each, recorded from the hand-assembled builders: the shared assembly
# must export the same bytes.
PINNED_SPECS = [
    "jordan_model:k=2,mu=inf", "jordan_model:k=2,mu=0", "jordan_model:k=2,mu=2",
    "jordan_model:k=2,mu=-1/3", "periodic_toda:k=3", "periodic_toda:k=5",
    "m_f:f=x+y", "m_f:f=x+y+x^2*y", "two_family:eta=t^2", "two_family:eta=t^3",
    "sl2_shift:alpha=0;1;0", "sl2_shift:alpha=1;2;3", "flat_kronecker:k=1",
    "flat_kronecker:k=5", "open_toda:k=1", "open_toda:k=4",
]


def test_catalog_exports_are_pinned():
    with open(os.path.join(os.path.dirname(__file__), "data", "catalog_exports.json"),
              encoding="utf-8") as fh:
        recorded = fh.read()
    exports = {spec: export_model(resolve_target(spec)) for spec in PINNED_SPECS}
    assert json.dumps(exports, indent=2, sort_keys=True) + "\n" == recorded


def test_a_new_builder_needs_no_cli_change(monkeypatch, capsys):
    seen = []

    def toy(n: int):
        seen.append(n)
        return flat_kronecker(int(n))

    monkeypatch.setitem(models_module.CATALOG_BUILDERS, "toy", toy)
    assert resolve_target("toy:n=3").dim == 5
    assert main(["catalog", "show", "toy:n=3"]) == 0
    assert json.loads(capsys.readouterr().out) == export_model(flat_kronecker(3))
    assert seen == ["3", "3"]
    assert main(["catalog", "show", "toy:k=3"]) == 2
    assert capsys.readouterr().err.startswith("error: toy has no parameter 'k'")


def test_cli_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "open_toda" in out and "periodic_toda" in out


def test_cli_catalog_show_roundtrips(capsys):
    assert main(["catalog", "show", "open_toda:k=1"]) == 0
    out = capsys.readouterr().out
    model = parse_structure_file(out)
    assert model.structure.certified()
    assert model.dim == 3


def test_cli_catalog_show_keeps_a_files_chains(tmp_path, capsys):
    source = tmp_path / "chained.json"
    source.write_text(json.dumps(FLAT_K3))
    assert main(["catalog", "show", str(source)]) == 0
    exported = tmp_path / "exported.json"
    exported.write_text(capsys.readouterr().out)
    chains, outputs = [], []
    for path in (source, exported):
        chains.append([(c.functions, c.anchored, c.name)
                       for c in parse_structure_file(str(path)).chains])
        assert main(["check", "chain", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert chains[0] == chains[1] and len(chains[0]) == 1
    assert outputs[0] == outputs[1] == "chain 0 (anchored=True): pass\n"


def test_sampling_exhaustion():
    from biham.errors import SamplingExhausted
    from biham.exactalg import Poly
    from biham.sampling import sample_points

    never = Poly.zero(("x", "y"))     # the inequation 0 != 0 rejects everything
    with pytest.raises(SamplingExhausted):
        sample_points(2, 5, seed=1, inequations=[never])


def test_cli_analyze_exit_codes(capsys):
    code = main(["analyze", "flat_kronecker:k=2", "--samples", "3",
                 "--seed", "1", "--format", "markdown"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Modal pencil type: **{K3}**" in out
    assert "All declared expectations matched." in out


def test_cli_analyze_jordan(capsys):
    code = main(["analyze", "jordan_model:k=1,mu=2", "--samples", "2",
                 "--seed", "3", "--format", "markdown"])
    out = capsys.readouterr().out
    assert code == 0
    assert "J2(mu=2)" in out
    assert "JordanObstructed" in out


def test_cli_analyze_two_family_markdown_flags(capsys):
    code = main(["analyze", "two_family:eta=t^2", "--samples", "4",
                 "--seed", "5", "--format", "markdown"])
    out = capsys.readouterr().out
    assert code == 0
    assert "conjectural path unused" in out
    assert "criterion Inconclusive (degree bound d < dim M/2 fails)" in out


def test_cli_check_commands(tmp_path, capsys):
    path = tmp_path / "v3.json"
    path.write_text(json.dumps(export_model(open_toda(1))))
    assert main(["check", "poisson", str(path)]) == 0
    assert main(["check", "compatible", str(path)]) == 0
    assert main(["check", "casimir", str(path), "--function", "v0*v2 - v1^2",
                 "--bracket", "2"]) == 0
    assert main(["check", "family", str(path)]) == 0
    capsys.readouterr()
    # v0 is not a Casimir of the first bracket
    assert main(["check", "casimir", str(path), "--function", "v0",
                 "--bracket", "1"]) == 1


def test_cli_check_chain(tmp_path):
    model = open_toda(1)
    model.chains.append(chain_from_family(model.structure, model.families[0]))
    data = export_model(model)
    path = tmp_path / "v3c.json"
    path.write_text(json.dumps(data))
    assert main(["check", "chain", str(path)]) == 0
    data["chains"] = [{"anchored": True, "functions": ["v0", "v1"]}]
    path.write_text(json.dumps(data))
    assert main(["check", "chain", str(path)]) == 1


@pytest.mark.parametrize("spec", [spec for spec in PINNED_SPECS
                                  if resolve_target(spec).families])
def test_cli_check_chain_derives_a_chain_per_family(spec, capsys):
    # a catalog spec lists no chains; each family's is checked, as analyze derives it
    model = resolve_target(spec)
    assert not model.chains
    assert main(["check", "chain", spec]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"chain {i} (anchored={chain_from_family(model.structure, fam).anchored}): "
                     "pass" for i, fam in enumerate(model.families)]


def test_cli_check_chain_without_chains_or_families_is_exit_2(capsys):
    assert not resolve_target("jordan_model:k=1,mu=2").families
    assert main(["check", "chain", "jordan_model:k=1,mu=2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no chains and no families in the input\n"


@pytest.mark.parametrize("chain,message", [
    ({"anchored": "false", "functions": ["y", "x"]}, "field 'anchored' is 'false'"),
    ({"functions": ["y", "x"]}, "field 'anchored' is None"),
    ({"anchored": True, "functions": "yx"}, "field 'functions' is 'yx'"),
    ({"anchored": True, "functions": []}, "field 'functions' is []"),
    ({"anchored": True, "functions": ["y", 5]}, "field 'functions' is ['y', 5]"),
    (["y", "x"], "chain JSON must be an object"),
    ({"anchored": "false", "functions": 5}, "field 'anchored' is 'false'"),
], ids=["anchored_string", "anchored_missing", "functions_string", "functions_empty",
        "integer_function", "chain_not_object", "anchored_string_functions_integer"])
def test_cli_malformed_chain_is_exit_2(tmp_path, capsys, chain, message):
    # (y, x) is the chain of m_f(x + y), so a string "yx" read letter by
    # letter would pass the recurrence; analyze, which derives its chains
    # from the families, refuses the file as check chain does
    data = export_model(m_f("x + y"))
    data["chains"] = [chain]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(data))
    for argv in (["check", "chain", str(path)], ["analyze", str(path), "--samples", "1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


def test_cli_analyze_with_a_failing_family_reports_and_exits_1(tmp_path, capsys):
    # v0 + lam*v1 is no Casimir family of open Toda: the report is written
    # with the family failure and no criterion
    data = export_model(open_toda(1))
    data["families"] = [{"degree": 1, "coeffs": ["v0", "v1"], "name": "bad"}]
    data.pop("expectations", None)
    path = tmp_path / "bad_family.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path), "--samples", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["families"][0]["certificate"]["ok"] is False
    assert report["criterion"] is None
    assert main(["check", "family", str(path)]) == 1


def test_markdown_failure_lines_carry_the_certificate_detail(tmp_path, capsys):
    # a perturbed family's markdown line is the line `biham check family`
    # prints, and its chain's ends with the chain certificate's detail, in
    # the analysis and when a stored report is re-emitted
    data = export_model(open_toda(2))
    data["families"][0]["coeffs"][0] += " + v1"
    data.pop("expectations", None)
    path = tmp_path / "perturbed_family.json"
    path.write_text(json.dumps(data))
    assert main(["check", "family", str(path)]) == 1
    family_line = "- " + capsys.readouterr().out.strip()
    assert main(["analyze", str(path), "--samples", "2"]) == 1
    stored = capsys.readouterr().out
    chain = json.loads(stored)["chains"][0]
    assert not chain["certificate"]["ok"]
    chain_line = (f"- chain '{chain['name']}' (length {chain['length']}, "
                  f"anchored={chain['anchored']}): FAIL {chain['certificate']['detail']}")
    report_path = tmp_path / "report.json"
    report_path.write_text(stored)
    for argv in (["analyze", str(path), "--samples", "2"], ["report", str(report_path)]):
        code = main(argv + ["--format", "markdown"])
        lines = capsys.readouterr().out.splitlines()
        assert code == (1 if argv[0] == "analyze" else 0)
        assert family_line.startswith("- family '") and ": FAIL lambda^" in family_line
        assert family_line in lines and chain_line in lines


def test_cli_decompose(tmp_path, capsys):
    path = tmp_path / "k5.json"
    path.write_text(json.dumps(kronecker_pencil(3).to_json()))
    assert main(["decompose", str(path)]) == 0
    out = capsys.readouterr().out
    assert "{K5}" in out


def test_cli_decompose_string_rows_is_exit_2_and_spaced_entries_load(tmp_path, capsys):
    # a row written as a string is refused, naming the field, where it was
    # read as a row of characters ({K1, K1}, exit 0); entries with the
    # whitespace rat strips load as the entries themselves
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"n": 2, "A": ["00", "00"], "B": ["00", "00"]}))
    assert main(["decompose", str(path)]) == 2
    assert "pencil field 'A' is not a list of lists" in capsys.readouterr().err
    path.write_text(json.dumps({"n": 2, "A": [[" 0", "1 "], ["-1", "0"]],
                                "B": [["0", " 2/3"], ["-2/3 ", "0"]]}))
    assert main(["decompose", str(path)]) == 0
    assert "{J2(mu=3/2)}" in capsys.readouterr().out


def _pencil_file(tmp_path):
    pencil = kronecker_pencil(2).direct_sum(jordan_pencil(1, "1/2"))
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(pencil.to_json()))
    return pencil, str(path)


def _raising(error, message, attach):
    def failing(p):
        exc = error(message)
        if attach:
            exc.pencil = p.to_json()
        raise exc

    return failing


def test_cli_internal_inconsistency_is_exit_3_with_its_pencil(tmp_path, capsys, monkeypatch):
    # an internal failure is a bug, not an input error: it exits 3, and the
    # pencil it carries follows the error on stderr as one JSON line that
    # loads back as the pencil
    pencil, path = _pencil_file(tmp_path)
    monkeypatch.setattr(cli_module, "decompose", _raising(
        InternalInconsistency, "found 0 minimal indices for generic corank 1", True))
    assert main(["decompose", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error, line = captured.err.splitlines()
    assert error == "error: internal inconsistency: found 0 minimal indices for generic corank 1"
    assert SkewPencil.from_json(line) == pencil
    # without a pencil attached, the error line alone
    monkeypatch.setattr(cli_module, "decompose", _raising(
        InternalInconsistency, "no pencil", False))
    assert main(["decompose", path]) == 3
    assert capsys.readouterr().err == "error: internal inconsistency: no pencil\n"


def test_cli_kernel_degrees_that_overfill_n_are_exit_3_with_the_pencil(capsys, monkeypatch):
    # degrees handed to decompose that a certified family could never have
    # (K9 in dimension 7) are an internal inconsistency: exit 3, and the
    # point's pencil follows the error line
    original = pencil_module.decompose
    monkeypatch.setattr(poisson_module, "decompose",
                        lambda pencil, kernel_degrees=None: original(pencil, [4]))
    assert main(["analyze", "open_toda:k=3", "--samples", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error, line = captured.err.splitlines()
    assert error == "error: internal inconsistency: minimal indices [4] fill dimension 9 > 7"
    assert SkewPencil.from_json(line).n == 7


def test_cli_internal_error_is_exit_3_without_a_traceback(tmp_path, capsys, monkeypatch):
    # any exception that is neither a BihamError nor an OSError is a bug: it
    # exits 3 with one error line, not a traceback with exit 1 (a mismatch)
    _, path = _pencil_file(tmp_path)
    monkeypatch.setattr(cli_module, "decompose", _raising(
        ZeroDivisionError, "division by zero", False))
    assert main(["decompose", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: ZeroDivisionError: division by zero\n"


def test_cli_internal_error_in_decompose_carries_its_pencil(tmp_path, capsys, monkeypatch):
    # decompose attaches the pencil to any exception raised while decomposing,
    # so an internal error prints it on stderr as one JSON line too
    pencil, path = _pencil_file(tmp_path)

    def failing(a, b, c):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(pencil_module, "minimal_indices", failing)
    assert main(["decompose", path]) == 3
    error, line = capsys.readouterr().err.splitlines()
    assert error == "error: internal error: ZeroDivisionError: division by zero"
    assert SkewPencil.from_json(line) == pencil


def test_cli_normalform_internal_inconsistency_is_exit_3(capsys, monkeypatch):
    # a zero web curvature for a germ whose phi is not additive contradicts
    # the normal form: a bug, so exit 3
    monkeypatch.setattr(cli_module, "web_flatness", lambda b: ())
    assert main(["normalform", "--function", "x + y + x^2*y"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal inconsistency: web curvature of ")


def test_cli_not_skew_canonical_stays_exit_2(tmp_path, capsys, monkeypatch):
    # unpaired elementary divisors mean corrupted input, an input error
    _, path = _pencil_file(tmp_path)
    monkeypatch.setattr(cli_module, "decompose", _raising(
        NotSkewCanonical, "elementary divisor occurs 1 times", True))
    assert main(["decompose", path]) == 2
    assert capsys.readouterr().err == "error: elementary divisor occurs 1 times\n"


def _exit_code(argv) -> int:
    """main's exit code, also when argparse refuses the arguments."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, seed, named", [
    (["catalog", "show", "open_toda:k=1_0"], "0", "parameter 'k'"),
    (["catalog", "show", "open_toda:k=\u0661"], "0", "parameter 'k'"),
    (["analyze", "open_toda:k=1", "--samples", "1_0"], "0", "argument --samples"),
    (["analyze", "open_toda:k=1", "--samples", "1", "--seed", "1_0"], "0", "argument --seed"),
    (["analyze", "open_toda:k=1", "--samples", "1"], "1_0", "BIHAM_SEED"),
    (["normalform", "--function", "x + y", "--truncation", "1_0"], "0",
     "argument --truncation"),
], ids=["k_separator", "k_arabic_indic", "samples", "seed", "env_seed", "truncation"])
def test_cli_integers_are_a_sign_and_ascii_digits(argv, seed, named, monkeypatch, capsys):
    # int() alone reads "1_0" as 10 and the Arabic-Indic one as 1
    monkeypatch.setenv("BIHAM_SEED", seed)
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert named in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_missing_json_file_is_named(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file") and str(path) in err


def test_cli_normalform(capsys):
    assert main(["normalform", "--function", "x + y"]) == 0
    out = capsys.readouterr().out
    assert "flat: yes" in out
    assert main(["normalform", "--function", "x + y + x^2*y"]) == 0
    out = capsys.readouterr().out
    assert "flat: no" in out


@pytest.mark.parametrize("truncation", ["3", "4"])
def test_cli_normalform_flat_verdict_is_exact_beyond_the_truncation(capsys, truncation):
    # phi = x' + y' through orders 3 and 4, but the web curvature is nonzero
    assert main(["normalform", "--function", "x + y + x^3*y^3",
                 "--truncation", truncation]) == 0
    out = capsys.readouterr().out
    assert f"flat: no (phi additive through order {truncation})" in out
    assert "flat: yes" not in out


@pytest.mark.parametrize("truncation", ["0", "-2"])
def test_cli_normalform_truncation_below_one_is_exit_2(capsys, truncation):
    assert main(["normalform", "--function", "x + y", "--truncation", truncation]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"truncation order must be at least 1, got {truncation}" in captured.err


def test_cli_normalform_truncation_above_the_bound_is_exit_2(capsys):
    assert main(["normalform", "--function", "x + y", "--truncation", "20"]) == 0
    capsys.readouterr()
    assert main(["normalform", "--function", "x + y", "--truncation", "21"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "truncation order must be at most 20, got 21" in captured.err


def test_cli_normalform_germ_degree_above_the_bound_is_exit_2(capsys):
    # the flatness step reads the whole germ, whatever the truncation
    assert MAX_GERM_DEGREE == 20
    assert main(["normalform", "--function", "x + y + x^10*y^10"]) == 0
    assert "flat: no" in capsys.readouterr().out
    assert main(["normalform", "--function", "x + y + x^10*y^11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "germ degree must be at most 20, got 21" in captured.err


def test_cli_samples_above_the_bound_is_exit_2(capsys):
    start = time.monotonic()
    for samples in (MAX_SAMPLES + 1, 1_000_000_000):
        assert main(["analyze", "open_toda:k=1", "--samples", str(samples)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"samples must be between 1 and {MAX_SAMPLES}, got {samples}" in captured.err
    assert time.monotonic() - start < 5
    with pytest.raises(ValidationError, match="samples must be between"):
        run_analyze(open_toda(1), samples=MAX_SAMPLES + 1)
    # explicit points are not sampled, so the bound does not apply to them
    assert run_analyze(open_toda(1), points=[(1, 2, 3)], samples=MAX_SAMPLES + 1).points


@pytest.mark.parametrize("spec,bound", [
    ("open_toda:k=100000000", MAX_OPEN_TODA_K),
    ("periodic_toda:k=100000000", MAX_PERIODIC_TODA_K),
    ("flat_kronecker:k=100000000", MAX_FLAT_KRONECKER_K),
    ("jordan_model:k=100000000,mu=2", MAX_JORDAN_K),
], ids=["open_toda", "periodic_toda", "flat_kronecker", "jordan_model"])
def test_cli_catalog_size_above_the_bound_is_exit_2(spec, bound, capsys):
    # refused before any construction, which at this k would never finish
    start = time.monotonic()
    assert main(["analyze", spec, "--samples", "1"]) == 2
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"k must be at most {bound}, got 100000000" in captured.err
    assert main(["catalog", "show", spec.replace("100000000", str(bound + 1))]) == 2


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "biham", "analyze", "open_toda:k=2",
                           "--samples", "2", "--seed", "0"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["structure"].startswith("open_toda")


@pytest.mark.parametrize("argv,message", [
    (["analyze", "open_toda:mu=2", "--samples", "1"], "open_toda has no parameter 'mu'"),
    (["catalog", "show", "open_toda"], "open_toda needs parameter 'k'"),
    (["catalog", "show", "m_f:f=x+y,k=2"], "m_f has no parameter 'k'"),
    (["catalog", "show", "jordan_model:k=2"], "jordan_model needs parameter 'mu'"),
    (["analyze", "two_family:eta=t^2,order=8", "--samples", "1"],
     "two_family has no parameter 'order'"),
    (["analyze", "volterra:n=5", "--samples", "1"], "unknown catalog model 'volterra'"),
    (["catalog", "show", "open_toda:name=x"], "open_toda has no parameter 'name'"),
], ids=["analyze_unknown", "show_missing", "show_unknown", "show_missing_mu",
        "two_family_order", "unknown_model", "name_key"])
def test_cli_bad_catalog_parameter_is_exit_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_cli_bad_input_is_exit_2(capsys):
    assert main(["analyze", "no_such_model:k=1"]) == 2
    assert main(["decompose", "/nonexistent/file.json"]) == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "open_toda:k=2", "--samples", "0"],
    ["analyze", "open_toda:k=2", "--samples", "-3"],
    ["analyze", "open_toda:k=2,k=3"],
    ["analyze", "open_toda:k=x"],
])
def test_cli_bad_analyze_arguments_are_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("point,message", [
    ("1/0,1,1,1,1,1,1", "bad rational literal '1/0'"),
    ("1e5,1,1,1,1,1,1", "cannot interpret '1e5' as a rational"),
    ("a,b", "cannot interpret 'a' as a rational"),
    ("", "cannot interpret '' as a rational"),
    ("1,,2", "cannot interpret '' as a rational"),
], ids=["zero_denominator", "exponent", "letters", "empty", "empty_coordinate"])
def test_cli_malformed_point_is_exit_2(point, message, capsys):
    # argparse catches only ValueError/TypeError from a type function, so the
    # point is read after parsing and a bad one is a one-line input error
    assert main(["analyze", "open_toda:k=3", "--samples", "1", "--point", point]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --point {point!r}: {message}\n"


def test_cli_non_integer_seed_variable_is_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("BIHAM_SEED", "abc")
    assert main(["analyze", "open_toda:k=1", "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: BIHAM_SEED must be an integer, got 'abc'\n"
    # an integer value is the default seed, and --seed overrides the variable
    monkeypatch.setenv("BIHAM_SEED", "3")
    assert main(["analyze", "open_toda:k=1", "--samples", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 3
    monkeypatch.setenv("BIHAM_SEED", "abc")
    assert main(["analyze", "open_toda:k=1", "--samples", "1", "--seed", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2


@pytest.mark.parametrize("function", [
    "x^999999999 + y",
    "(" * 5000 + "x" + ")" * 5000 + " + y",
    "-" * 5000 + "x + y",
    "1" * 5000 + "*x + y",
], ids=["exponent", "parentheses", "unary_minus", "long_literal"])
def test_cli_normalform_input_limits_are_exit_2(function, capsys):
    assert main(["normalform", "--function", function]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_term_limit_is_exit_2(tmp_path, capsys):
    # the 64th power of a six-variable sum has C(69, 5) = 11.2M terms; the
    # parser refuses it once a product may exceed MAX_TERMS terms
    data = {"dim": 6, "vars": [f"x{i}" for i in range(6)],
            "brackets1": [{"i": 0, "j": 1, "coeff": "1"}], "brackets2": []}
    path = tmp_path / "six.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code = main(["check", "casimir", str(path), "--function",
                 "(x0+x1+x2+x3+x4+x5)^64", "--bracket", "1"])
    elapsed = time.perf_counter() - start
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "maximum 10000" in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("text", ["[1, 2]", '"vars"', "null",
                                  "[" * 100000 + "]" * 100000],
                         ids=["list", "string", "null", "deep_nesting"])
def test_cli_non_object_structure_is_exit_2(tmp_path, capsys, text):
    path = tmp_path / "list.json"
    path.write_text(text)
    assert main(["analyze", str(path), "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("command,text", [
    ("decompose", '{"n": 2, "A": [[0, 1], [-1, 0]'),
    ("decompose", '{"n": 2, "A": [[0, 1], [-1]], "B": [[0, 0], [0, 0]]}'),
    ("decompose", DEEP),
    ("decompose", '{"n": 2, "A": [[0, true], [-1, 0]], "B": [[0, 0], [0, 0]]}'),
    ("decompose", '{"n": true, "A": [["0"]], "B": [["0"]]}'),
    ("decompose", '{"n": 1.0, "A": [["0"]], "B": [["0"]]}'),
    ("report", DEEP),
], ids=["decompose_malformed", "decompose_ragged", "decompose_deep_nesting",
        "decompose_bool_entry", "decompose_bool_dimension", "decompose_float_dimension",
        "report_deep_nesting"])
def test_cli_malformed_input_file_is_exit_2(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _with_literal(data, literal: str) -> str:
    """JSON text of data with its one "@" string replaced by a raw literal."""
    return json.dumps(data).replace('"@"', literal)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1.5e999"])
@pytest.mark.parametrize("command", ["analyze", "report", "decompose"])
def test_cli_non_finite_number_is_exit_2(tmp_path, capsys, command, literal):
    # RFC 8259 has no NaN or infinity: a structure's expectations, copied
    # into the report and the export as they stand, would print them
    if command == "analyze":
        data = export_model(open_toda(1))
        data["expectations"] = {"deep": [1.5, {"big": "@"}]}
    elif command == "report":
        data = json.loads(emit_report(run_analyze(open_toda(1), samples=1, seed=0)))
        data["expectations"] = {"deep": ["@"]}
    else:
        data = {"n": 2, "A": [[0, "@"], [-1, 0]], "B": [[0, 0], [0, 0]]}
    path = tmp_path / "input.json"
    path.write_text(_with_literal(data, literal))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: JSON ") and literal in captured.err


def test_cli_finite_float_expectations_are_kept(tmp_path, capsys):
    data = export_model(open_toda(1))
    data["expectations"] = {"deep": [1.5, {"big": 1e300}]}
    path = tmp_path / "floats.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path), "--samples", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["expectations"] == data["expectations"]


@pytest.mark.parametrize("spec", ["sl2_shift:alpha=1e99999999;1;0",
                                  "jordan_model:k=1,mu=1e99999999",
                                  "jordan_model:k=1,mu=0.5"])
def test_cli_rational_beyond_integer_or_fraction_is_exit_2(capsys, spec):
    # only an integer or p/q is a rational; exponent notation would build the power
    start = time.perf_counter()
    code = main(["analyze", spec, "--samples", "1"])
    elapsed = time.perf_counter() - start
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "as a rational" in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("field,value,message", [
    ("families", [[1]], "families[0] is not an object"),
    ("expectations", 5, "'expectations' is not an object"),
    ("families", [{"degree": 0, "coeffs": [1]}], "families[0].coeffs entry 1 is not"),
    ("genericity", [2], "genericity entry 2 is not"),
    ("families", 5, "'families' is not a list"),
], ids=["family_not_object", "expectations_not_object", "integer_coefficient",
        "integer_genericity", "families_not_list"])
def test_cli_malformed_structure_field_is_exit_2(tmp_path, capsys, field, value, message):
    data = export_model(open_toda(1))
    data[field] = value
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path), "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("name,family_name,code,message", [
    ("s", "f", 0, ""),
    (5, "f", 2, "structure field 'name' is not a string"),
    ("s", 7, 2, "structure field families[0].name is not a string"),
], ids=["strings", "structure_name", "family_name"])
def test_cli_structure_or_family_name_not_a_string_is_exit_2(
        tmp_path, capsys, name, family_name, code, message):
    # the structure and family schemas make both names strings
    path = tmp_path / "structure.json"
    path.write_text(json.dumps({"name": name, "dim": 3, "vars": ["x", "y", "z"],
                                "brackets1": [], "brackets2": [],
                                "families": [{"name": family_name, "coeffs": ["x"]}]}))
    assert main(["analyze", str(path), "--samples", "1"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
    else:
        assert json.loads(captured.out)["structure"] == "s"


@pytest.mark.parametrize("power", [24, 64])
def test_cli_high_power_quotient_is_fast(capsys, power):
    # reducing the quotient is one gcd of two coprime univariate powers, which
    # the primitive PRS gcd took minutes over; the heuristic gcd proves it at once
    start = time.perf_counter()
    code = main(["check", "casimir", "open_toda:k=2", "--function",
                 f"(v1+1)^{power}/(v1+2)^{power}", "--bracket", "1"])
    elapsed = time.perf_counter() - start
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    assert elapsed < 2.0


def test_cli_duplicate_variable_is_exit_2(tmp_path, capsys):
    data = export_model(open_toda(1))
    data["vars"] = [data["vars"][0]] * len(data["vars"])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path), "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "declared twice" in captured.err


def test_parse_params_rejects_repeated_key():
    with pytest.raises(ValidationError, match="twice"):
        resolve_target("open_toda:k=2,k=3")


@pytest.mark.parametrize("text", ['{"structure": "x"}', "[1, 2]", "{not json",
                                  '{"structure": "x", "dim": 1, "vars": [], '
                                  '"seed": 0, "version": "0", "certificates": 3, '
                                  '"families": [], "chains": [], "points": [], '
                                  '"modal_type": "", "criterion": null, '
                                  '"lax": null, "integrability": null}'])
def test_cli_report_on_non_report_is_exit_2(tmp_path, capsys, text):
    path = tmp_path / "other.json"
    path.write_text(text)
    assert main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_report_roundtrip(tmp_path, capsys):
    report = run_analyze(flat_kronecker(2), samples=2, seed=9)
    path = tmp_path / "report.json"
    path.write_text(emit_report(report, "json"))
    assert main(["report", str(path), "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert "Modal pencil type" in out


def test_report_determinism():
    a = emit_report(run_analyze(open_toda(1), samples=5, seed=11), "json")
    b = emit_report(run_analyze(open_toda(1), samples=5, seed=11), "json")
    assert a == b
    c = emit_report(run_analyze(open_toda(1), samples=5, seed=12), "json")
    assert a != c


def _with(field, value):
    return lambda data: {**data, field: value}


def _with_point(key, value):
    return lambda data: {**data, "points": [{**data["points"][0], key: value}]}


def _with_certificate(cert):
    return lambda data: {**data, "certificates": {**data["certificates"], "jacobi1": cert}}


# Per field of report.schema.json, reports that break its type.  Markdown
# would render a string in an array's place as its characters ("abc" as
# a; b; c, "12" as the point (1, 2)) and a number in a string's place as
# the number.
BAD_REPORTS = [
    ("structure", _with("structure", 5)),
    ("dim", _with("dim", "seven")),
    ("dim", _with("dim", 0)),
    ("dim", _with("dim", True)),
    ("vars", _with("vars", "abc")),
    ("vars", _with("vars", [1])),
    ("seed", _with("seed", "0")),
    ("version", _with("version", 1)),
    ("certificates", _with("certificates", [])),
    ("certificates", _with_certificate({"kind": "jacobi", "ok": "yes"})),
    ("certificates", _with_certificate({"ok": True})),
    ("certificates", _with_certificate({"kind": "jacobi", "ok": False, "detail": 3})),
    ("families", _with("families", "abc")),
    ("chains", _with("chains", {})),
    ("points", _with_point("point", "12")),
    ("points", _with("points", "abc")),
    ("points", _with_point("point", [1, 2])),
    ("points", _with_point("pencil_type", 3)),
    ("points", _with_point("coranks", [])),
    ("points", _with_point("w1_dim", "2")),
    ("points", _with_point("criterion", "abc")),
    ("points", _with_point("integrability", [])),
    ("points", _with_point("error", 5)),
    ("points", lambda data: {**data, "points": [{"pencil_type": "{K3}"}]}),
    ("modal_type", _with("modal_type", 5)),
    ("criterion", _with("criterion", "abc")),
    ("lax", _with("lax", [])),
    ("integrability", _with("integrability", 1)),
    ("expectations", _with("expectations", "abc")),
    ("mismatches", _with("mismatches", "abc")),
    ("mismatches", _with("mismatches", [5])),
]


def test_report_validates_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = _schema("report.schema.json")
    report = run_analyze(open_toda(1), samples=3, seed=2)
    jsonschema.validate(report.to_json(), schema)
    assert {field for field, _ in BAD_REPORTS} == set(schema["properties"])
    for field, bad in BAD_REPORTS:
        bad = bad(report.to_json())
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)
        with pytest.raises(ValidationError, match=f"report field '{field}'"):
            AnalysisReport.from_json(json.dumps(bad))
    # the fields the loader needs are the fields the schema requires
    for field in schema["required"]:
        missing = {k: v for k, v in report.to_json().items() if k != field}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(missing, schema)
        with pytest.raises(ValidationError, match=f"missing or bad field '{field}'"):
            AnalysisReport.from_json(json.dumps(missing))


def _report_ids():
    seen: dict = {}
    for field, _ in BAD_REPORTS:
        k = seen[field] = seen.get(field, -1) + 1
        yield f"{field}-{k}" if k else field


@pytest.mark.parametrize("field, bad", BAD_REPORTS, ids=list(_report_ids()))
def test_cli_report_with_a_field_of_the_wrong_type_is_exit_2(tmp_path, capsys, field, bad):
    data = run_analyze(open_toda(1), samples=3, seed=2).to_json()
    path = tmp_path / "report.json"
    path.write_text(json.dumps(bad(data)))
    assert main(["report", str(path), "--format", "markdown"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: report field '{field}'")


def test_pencils_validate_against_schema():
    # the schema accepts what the loader accepts: integer entries, n = 0,
    # entries with the surrounding whitespace rat strips, and every pencil
    # the library writes
    jsonschema = pytest.importorskip("jsonschema")
    schema = _schema("pencil.schema.json")
    rational = {"n": 2, "A": [["0", "1/2"], ["-1/2", "0"]], "B": [[0, 3], [-3, 0]]}
    empty = {"n": 0, "A": [], "B": []}
    spaced = {"n": 2, "A": [[" 0", "1/2 "], ["\t-1/2", "0\n"]], "B": [[0, " 3 "], [-3, 0]]}
    for data in (rational, empty, spaced):
        jsonschema.validate(data, schema)
    assert SkewPencil.from_json(spaced) == SkewPencil.from_json(rational)
    point = (1, 2, "1/2", 3, "-1/3")
    pencils = [kronecker_pencil(3), jordan_pencil(2, "-1/2"), jordan_pencil(1, "inf"),
               epsilon_adjacency_pencil("1/2"),
               kronecker_pencil(2).direct_sum(jordan_pencil(1, 2)),
               SkewPencil.from_json(rational), SkewPencil.from_json(empty),
               open_toda(2).structure.pencil_at(point)]
    for p in pencils:
        jsonschema.validate(p.to_json(), schema)
    # a row written as a string is not a row of characters
    string_rows = {"n": 2, "A": ["00", "00"], "B": ["00", "00"]}
    for bad in ({**empty, "n": True}, {**rational, "A": [["0", "1/2"], ["-1/2", "1.5"]]},
                {**rational, "A": [["0", "1/0"], ["-1/0", "0"]]}, string_rows,
                {**rational, "B": "03"}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)
        with pytest.raises(ValidationError):
            SkewPencil.from_json(bad)


CATALOG_SMALL = ["flat_kronecker:k=2", "jordan_model:k=1,mu=1/2", "jordan_model:k=1,mu=inf",
                 "open_toda:k=2", "periodic_toda:k=3", "m_f:f=x+y", "m_f:f=x+y+x^2*y",
                 "two_family:eta=t^2", "sl2_shift:alpha=1;2;1"]
FLAT_K3 = {"dim": 3, "vars": ["x0", "x1", "x2"],
           "brackets1": [{"i": 0, "j": 1, "coeff": 1}],
           "brackets2": [{"i": 1, "j": 2, "coeff": "1"}],
           "families": [{"degree": 1, "coeffs": ["x0", "x2"]}],
           "chains": [{"anchored": True, "functions": ["x2", "x0"]}]}


# documents the schema refuses that a reader could still take for a
# structure: a string's characters or an object's keys as the variables, a
# missing, object or string bracket table as a table, and a JSON string that
# holds a structure document as the document
XY = {"dim": 2, "vars": ["x", "y"], "brackets1": [{"i": 0, "j": 1, "coeff": "x"}],
      "brackets2": []}
REFUSED_STRUCTURES = {
    "vars_string": ({**XY, "vars": "xy"}, "structure field 'vars' is not a list"),
    "vars_object": ({**XY, "vars": {"x": 0, "y": 1}}, "structure field 'vars' is not a list"),
    "brackets2_missing": ({key: value for key, value in XY.items() if key != "brackets2"},
                          "structure field 'brackets2' is missing"),
    "brackets2_object": ({**XY, "brackets2": {}}, "structure field 'brackets2' is not a list"),
    "brackets2_string": ({**XY, "brackets2": ""}, "structure field 'brackets2' is not a list"),
    "json_string": (json.dumps(XY), "structure JSON must be an object"),
}


@pytest.mark.parametrize("document,message", list(REFUSED_STRUCTURES.values()),
                         ids=list(REFUSED_STRUCTURES))
def test_cli_structure_the_schema_refuses_is_exit_2(tmp_path, capsys, document, message):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(document))
    for argv in (["check", "poisson", str(path)], ["analyze", str(path), "--samples", "1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_structure_files_validate_against_schema():
    # the structure schema, with its family and chain refs resolved to the
    # shipped schemas, accepts what the loader accepts and refuses what it refuses
    jsonschema = pytest.importorskip("jsonschema")
    referencing = pytest.importorskip("referencing")
    schema = _schema("structure.schema.json")
    # every shipped schema is registered under its own $id, as shipped: the
    # refs "family.schema.json" and "chain.schema.json" resolve against the
    # structure's $id "biham/structure.schema.json" to two of those ids
    registry = referencing.Registry().with_resources(
        (contents["$id"], referencing.Resource.from_contents(contents))
        for contents in map(_schema, sorted(os.listdir(SCHEMAS))))
    validator = jsonschema.Draft202012Validator(schema, registry=registry)
    assert {spec.partition(":")[0] for spec in CATALOG_SMALL} == set(catalog_names())
    no_degree = {**FLAT_K3, "brackets1": [{"i": 0, "j": 1, "coeff": "1"}],
               "families": [{"coeffs": ["x0", "x2"]}]}
    files = [export_model(resolve_target(spec)) for spec in CATALOG_SMALL]
    for data in files + [FLAT_K3, no_degree]:
        parse_structure_file(json.dumps(data))
        validator.validate(data)
    empty = {"brackets1": [], "brackets2": [], "families": [], "chains": []}
    for bad in ({**FLAT_K3, **empty, "dim": True, "vars": ["x0"]},
                {**FLAT_K3, **empty, "dim": 0, "vars": []},
                {**FLAT_K3, "families": [{"degree": 1, "coeffs": ["x0", 1]}]},
                {**FLAT_K3, "chains": [{"anchored": 1, "functions": ["x2"]}]},
                {**FLAT_K3, "name": 5},
                {**FLAT_K3, "families": [{"name": 7, "degree": 1, "coeffs": ["x0", "x2"]}]},
                {**FLAT_K3, "families": [{"degree": True, "coeffs": ["x0", "x2"]}]},
                {**FLAT_K3, **empty, "vars": ["x0", "x1", "x 2"]},
                {**FLAT_K3, **empty, "vars": ["x0", "x1", "x0"]},
                *(document for document, _ in REFUSED_STRUCTURES.values())):
        with pytest.raises(jsonschema.ValidationError):
            validator.validate(bad)
        with pytest.raises(ValidationError):
            parse_structure_file(json.dumps(bad))
    # JSON Schema's "integer" admits 1.0, a number with a zero fraction, so
    # the schema cannot refuse it; the loader, which sees a float, does
    with pytest.raises(ValidationError):
        parse_structure_file(json.dumps(
            {**FLAT_K3, "families": [{"degree": 1.0, "coeffs": ["x0", "x2"]}]}))


@pytest.mark.parametrize("dim,variables", [(True, ["x"]), (0, []), (1.0, ["x"])],
                         ids=["bool", "zero", "float"])
def test_cli_structure_dimension_not_an_integer_of_at_least_one_is_exit_2(
        tmp_path, capsys, dim, variables):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps({"dim": dim, "vars": variables,
                                "brackets1": [], "brackets2": []}))
    assert main(["analyze", str(path), "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not an integer >= 1" in captured.err


@pytest.mark.parametrize("degree", [True, 1.0], ids=["bool", "float"])
def test_cli_family_degree_not_an_integer_is_exit_2(tmp_path, capsys, degree):
    # True == 1 == 1.0, so only the type tells these from the family's degree 1
    path = tmp_path / "structure.json"
    path.write_text(json.dumps({**FLAT_K3, "families": [{"degree": degree,
                                                         "coeffs": ["x0", "x2"]}]}))
    assert main(["check", "family", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"family field 'degree' is {degree!r}, not an integer" in captured.err


@pytest.mark.parametrize("variables", [["a", "b c"], ["a", ""]], ids=["space", "empty"])
def test_cli_variable_that_is_not_a_name_is_exit_2(tmp_path, capsys, variables):
    # no expression can name such a variable; the structure schema refuses it too
    path = tmp_path / "structure.json"
    path.write_text(json.dumps({"dim": 2, "vars": variables, "brackets1": [], "brackets2": []}))
    for argv in (["analyze", str(path), "--samples", "1"], ["check", "poisson", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: variable {variables[1]!r} is not a name")


FAMILY_POLE = {"dim": 2, "vars": ["x", "y"], "brackets1": [], "brackets2": [],
               "families": [{"name": "f", "degree": 0, "coeffs": ["1/x"]}]}


@pytest.mark.parametrize("seed", range(8))
def test_cli_samples_avoid_a_family_coefficient_pole(tmp_path, capsys, seed):
    # the criterion evaluates grad(1/x) at every sample, so sampling avoids
    # x = 0 as it avoids a bracket's pole; an explicit point there stays an
    # input error
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(FAMILY_POLE))
    assert main(["analyze", str(path), "--samples", "20", "--seed", str(seed)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["points"]) == 20
    assert all(rec["point"][0] != "0" and "error" not in rec for rec in report["points"])
    assert main(["analyze", str(path), "--point", "0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: denominator x^2 vanishes at evaluation point\n"
