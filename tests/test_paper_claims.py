"""The paper's claims, one row each, checked at the sizes README's table states.

Each row names the claim, the catalog specs, the report field (or the
certificate) that carries the verdict, the verdict, and its status: proved
by certificates, proved with a cited step, evidence at sampled points, or
not in the catalog.  Reports are ``biham analyze <spec> --samples 20
--seed 0``.  README's "Paper claims" table must hold every row as written
here, so the table and the test cannot drift apart.
"""

import functools
from pathlib import Path

import pytest

from biham.cli import resolve_target
from biham.lenard import chain_from_family, involution_check
from biham.models import catalog_names
from biham.report import run_analyze

README = Path(__file__).resolve().parent.parent / "README.md"
OPEN = [(f"open_toda:k={k}", k) for k in range(1, 5)]
PERIODIC = [(f"periodic_toda:k={k}", k) for k in range(3, 6)]

PROVED = "proved by certificates"
CITED = "proved with a cited step"
SAMPLED = "evidence at sampled points"
ABSENT = "not in the catalog"


@functools.cache
def _report(spec):
    return run_analyze(resolve_target(spec), samples=20, seed=0)


# Each check gives (got, wanted) for one spec of its row.

def _kronecker(spec, k):
    criterion = _report(spec).criterion
    return ((criterion["modal_outcome"], criterion["type"]),
            ("KroneckerCertified", [2 * k + 1]))


def _one_block(spec, k):
    return _report(spec).modal_type, f"{{K{2 * k + 1}}}"


def _lax(spec, k):
    lax = _report(spec).lax
    return (lax["level"], lax["concluded_dim"]), ("KroneckerConcluded", 2 * k + 1)


def _product(spec, k):
    report = _report(spec)
    return ((report.criterion["modal_outcome"], report.criterion["type"], report.modal_type),
            ("HomogeneousIndicated", [2 * k - 1, 1], f"{{K1, K{2 * k - 1}}}"))


def _lenard(spec, k):
    return _report(spec).integrability["modal_outcome"], "StrictlyLenardIntegrable"


def _involution(spec, k):
    model = resolve_target(spec)
    funcs = [f for fam in model.families
             for f in chain_from_family(model.structure, fam).functions]
    return involution_check(funcs, model.structure).ok, True


# (claim, specs, field, verdict, status; the specs with their k, the check)
CLAIMS = [
    ("Open Toda is locally a constant-coefficient Kronecker pair", "open_toda:k=1..4",
     "`criterion.modal_outcome`", "`KroneckerCertified`, type (2k+1)", CITED,
     OPEN, _kronecker),
    ("Open Toda is not locally a product", "open_toda:k=1..4",
     "`modal_type`", "`{K_{2k+1}}`, one block", SAMPLED, OPEN, _one_block),
    ("A non-degenerate Lax structure is locally open Toda", "open_toda:k=1..4",
     "`lax.level`", "`KroneckerConcluded` of dimension 2k+1", CITED, OPEN, _lax),
    ("Periodic Toda is K1 times open Toda at a generic point", "periodic_toda:k=3..5",
     "`criterion.modal_outcome`", "`HomogeneousIndicated {K1, K_{2k-1}}`", SAMPLED,
     PERIODIC, _product),
    ("Homogeneous structures are integrable by the Lenard scheme",
     "open_toda:k=1..4, periodic_toda:k=3..5", "`integrability.modal_outcome`",
     "`StrictlyLenardIntegrable`", SAMPLED, OPEN + PERIODIC, _lenard),
    ("The Lenard chain functions are in involution",
     "open_toda:k=1..4, periodic_toda:k=3..5", "`lenard.involution_check`",
     "ok, every bracket zero", PROVED, OPEN + PERIODIC, _involution),
]

# The paper's four conjectured decompositions, with the catalog names
# ROADMAP plans for them; a row must change when its model is added.
CONJECTURED = [
    ("The Volterra system decomposes like periodic Toda", ("volterra", "periodic_volterra")),
    ("The complete Toda lattice decomposes like periodic Toda", ("complete_toda",)),
    ("The multidimensional Euler top decomposes like periodic Toda", ("euler_top", "lie_shift")),
    ("A regular bihamiltonian Lie coalgebra decomposes like periodic Toda", ("lie_shift",)),
]


def _table_row(*cells):
    return "| " + " | ".join(cells) + " |"


@pytest.mark.parametrize("row", CLAIMS, ids=[row[-1].__name__.lstrip("_") for row in CLAIMS])
def test_claim_holds_at_every_stated_size(row):
    claim, *_, specs, check = row
    for spec, k in specs:
        got, wanted = check(spec, k)
        assert got == wanted, (claim, spec)


def test_conjectured_cases_are_not_in_the_catalog():
    names = set(catalog_names())
    for claim, planned in CONJECTURED:
        assert names.isdisjoint(planned), claim


def test_readme_table_holds_every_row():
    text = README.read_text(encoding="utf-8")
    for claim, specs, field, verdict, status, *_ in CLAIMS:
        assert _table_row(claim, specs, field, verdict, status) in text, claim
    for claim, _ in CONJECTURED:
        assert _table_row(claim, "-", "-", "-", ABSENT) in text, claim
