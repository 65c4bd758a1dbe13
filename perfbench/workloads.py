"""The benchmark's three seeded workloads, each checked against its own reference.

A workload is built once (set-up: import, model construction, seeded
inputs) and then yields a fresh list of items for every pass.  Each item is
one timed call into biham's public API plus an untimed check of its output
against a reference that does not come from the code under test: declared
model expectations, certificates and a recorded report digest for
``analyze_catalog``, hand-written block labels for ``congruence_decompose``
and hand-written verdicts, two of them negative, for ``certify_symbolic``.
"""

import functools
import hashlib
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from biham import casimir, lenard, pencil, report, sampling
from biham.casimir import LambdaFamily
from biham.cli import resolve_target
from biham.exactalg import Matrix, parse_rational
from biham.pencil import (SkewPencil, epsilon_adjacency_pencil, jordan_pencil,
                          kronecker_pencil)
from biham.poisson import BihamStructure, PoissonStructure

# Public functions are looked up on their module when a pass is built, so a
# tracer installed on the module sees the calls the benchmark itself makes.
GOLDEN = Path(__file__).with_name("golden_reports.json")

# Why these specs: pure-Kronecker Toda and flat models, Jordan models with no
# families (casimir and lenard bypassed) and rational-coefficient models.
ANALYZE_SPECS = [
    "open_toda:k=3", "open_toda:k=4", "periodic_toda:k=4", "flat_kronecker:k=5",
    "jordan_model:k=3,mu=inf", "jordan_model:k=2,mu=2", "two_family:eta=t^2",
    "sl2_shift:alpha=0;1;0", "m_f:f=x+y",
]
ANALYZE_SAMPLES = 20

# The constant pencils of acceptance criterion 03, each with its block label
# written by hand from the construction, not computed by decompose.
BASE_PENCILS = [
    ("K1", lambda: kronecker_pencil(1), "{K1}"),
    ("K3", lambda: kronecker_pencil(2), "{K3}"),
    ("K5", lambda: kronecker_pencil(3), "{K5}"),
    ("K7", lambda: kronecker_pencil(4), "{K7}"),
    ("J2(0)", lambda: jordan_pencil(1, 0), "{J2(mu=0)}"),
    ("J2(2)", lambda: jordan_pencil(1, 2), "{J2(mu=2)}"),
    ("J2(inf)", lambda: jordan_pencil(1, "inf"), "{J2(mu=inf)}"),
    ("J4(2)", lambda: jordan_pencil(2, 2), "{J4(mu=2)}"),
    ("J6(0)", lambda: jordan_pencil(3, 0), "{J6(mu=0)}"),
    ("K3+J2(2)", lambda: kronecker_pencil(2).direct_sum(jordan_pencil(1, 2)),
     "{K3, J2(mu=2)}"),
    ("K3+K1", lambda: kronecker_pencil(2).direct_sum(kronecker_pencil(1)), "{K1, K3}"),
    ("eps=1", lambda: epsilon_adjacency_pencil(1), "{K3, K3}"),
    ("eps=0", lambda: epsilon_adjacency_pencil(0), "{K1, K5}"),
]
CONGRUENCE_COPIES = 100

# Every certificate of these catalog models must pass.
CERTIFY_SPECS = [
    "open_toda:k=5", "open_toda:k=6", "periodic_toda:k=5", "periodic_toda:k=6",
    "flat_kronecker:k=7", "two_family:eta=t^3", "sl2_shift:alpha=1;2;3",
]

TINY = {
    "analyze_catalog": {"specs": ["jordan_model:k=2,mu=2", "sl2_shift:alpha=0;1;0"],
                        "samples": 2},
    "congruence_decompose": {"copies": 1},
    "certify_symbolic": {"specs": ["two_family:eta=t^3", "sl2_shift:alpha=1;2;3"]},
}


@dataclass
class Item:
    """One timed call and the untimed check of its output (None = correct)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _fresh(structure):
    """A new BihamStructure on the same brackets: no cached certificates."""
    return BihamStructure(structure.p1, structure.p2, name=structure.name)


class AnalyzeCatalog:
    """``run_analyze`` plus JSON emission per catalog spec; one item per spec."""

    name = "analyze_catalog"

    def __init__(self, seed, tiny=False):
        size = TINY[self.name] if tiny else {"specs": ANALYZE_SPECS,
                                             "samples": ANALYZE_SAMPLES}
        self.seed = seed
        self.models = []
        for spec in size["specs"]:
            model = resolve_target(spec)
            points = sampling.sample_points(model.dim, size["samples"], seed,
                                            inequations=sampling.model_inequations(model))
            self.models.append((spec, model, points))
        golden = (json.loads(GOLDEN.read_text()) if GOLDEN.is_file()
                  else {"seed": 0, "samples": ANALYZE_SAMPLES, "sha256": {}})
        self.golden = (golden["sha256"] if not tiny and seed == golden["seed"]
                       and size["samples"] == golden["samples"] else None)
        self.points_per_pass = len(size["specs"]) * size["samples"]
        self.models_per_pass = len(size["specs"])
        self.sizes = {"specs": len(size["specs"]), "samples": size["samples"]}

    def items(self):
        return [Item(spec,
                     functools.partial(self._analyze,
                                       replace(model, structure=_fresh(model.structure)),
                                       points),
                     functools.partial(self._check, spec))
                for spec, model, points in self.models]

    def _analyze(self, model, points):
        result = report.run_analyze(model, points=points, seed=self.seed)
        return result, report.emit_report(result, "json")

    def _check(self, spec, output):
        result, text = output
        if not result.expectations:
            return "no declared expectations"
        if result.mismatches:
            return "; ".join(result.mismatches)
        certs = [(name, c) for name, c in result.certificates.items()]
        certs += [(f"family {f['name']}", f["certificate"]) for f in result.families]
        certs += [(f"chain {c['name']}", c["certificate"]) for c in result.chains]
        failed = [name for name, c in certs if not c["ok"]]
        if failed:
            return "certificate failed: " + ", ".join(failed)
        if self.golden is not None:
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest != self.golden.get(spec):
                return f"report sha256 {digest} differs from the recorded golden"
        return None


class CongruenceDecompose:
    """``decompose`` on seeded integer congruences of the criterion-03 pencils.

    Isolates pencil and exactalg (rank, nullspace, Smith form) with
    coefficient growth and a heavy tail; nothing symbolic runs.
    """

    name = "congruence_decompose"

    def __init__(self, seed, tiny=False):
        copies = TINY[self.name]["copies"] if tiny else CONGRUENCE_COPIES
        rng = random.Random(seed)
        self.pencils = []
        for name, build, label in BASE_PENCILS:
            base = build()
            for i in range(copies):
                self.pencils.append((f"{name}#{i}", _congruent(base, _invertible(rng, base.n)),
                                     label))
        self.points_per_pass = len(self.pencils)
        self.models_per_pass = 0
        self.sizes = {"base_pencils": len(BASE_PENCILS), "copies": copies}

    def items(self):
        return [Item(name, functools.partial(pencil.decompose, p),
                     functools.partial(_check_label, label))
                for name, p, label in self.pencils]


def _invertible(rng, n):
    """Random integer matrix (rows) with entries in [-3, 3] and full rank."""
    while True:
        p = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if Matrix.from_rows(p).rank() == n:
            return p


def _congruent(base, p):
    """The pencil P^T (lam*A + B) P, in integer arithmetic (the base is integral)."""
    n = base.n

    def transform(m):
        rows = [[m[i, j] for j in range(n)] for i in range(n)]
        if any(x.denominator != 1 for row in rows for x in row):
            raise ValueError("base pencil must have integer entries")
        mp = [[sum(int(rows[i][k]) * p[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        return [[sum(p[k][i] * mp[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    return SkewPencil.from_rows(transform(base.A), transform(base.B))


def _check_label(label, ptype):
    got = ptype.label()
    return None if got == label else f"expected {label}, got {got}"


class CertifySymbolic:
    """Exact symbolic certificates on fresh structures; one item per certificate.

    Stresses RationalFunction arithmetic in poisson, casimir and lenard, what
    ``biham check`` and model construction pay; pencil never runs.
    Two negative controls must fail: an incompatible pair of Poisson
    brackets and a family that is not a Casimir family.
    """

    name = "certify_symbolic"

    def __init__(self, seed, tiny=False):
        specs = TINY[self.name]["specs"] if tiny else CERTIFY_SPECS
        rng = random.Random(seed)
        self.models = [(spec, resolve_target(spec)) for spec in specs]
        rng.shuffle(self.models)
        # {x,y}_1 = a x and {y,z}_2 = b y are each Poisson; their mixed
        # Jacobiator is -ab x, so the pair is incompatible.
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        variables = ("x", "y", "z")
        self.incompatible = BihamStructure(
            PoissonStructure(variables, {(0, 1): f"{a}*x"}),
            PoissonStructure(variables, {(1, 2): f"{b}*y"}), name="incompatible")
        # x0 + lam x2 + lam^2 x4 is the Casimir family of flat K5; adding
        # c x_j with j in 1..4 breaks {f_0, .}_2 = 0.
        flat = resolve_target("flat_kronecker:k=3")
        self.flat = flat.structure
        coeffs = flat.families[0].coeffs
        perturbed = parse_rational(f"x0 + {rng.randint(1, 5)}*x{rng.randint(1, 4)}",
                                   self.flat.variables)
        self.non_casimir = LambdaFamily((perturbed,) + coeffs[1:], name="non-Casimir")
        self.points_per_pass = 0
        self.models_per_pass = len(self.models) + 2
        self.sizes = {"models": len(self.models), "negative_controls": 2}

    def items(self):
        items = []
        for spec, model in self.models:
            b = _fresh(model.structure)
            chain_functions = []
            items.append(Item(f"{spec}:verify", b.verify,
                              functools.partial(_check_verify, dict.fromkeys(
                                  ("jacobi1", "jacobi2", "compatibility"), True))))
            for i, fam in enumerate(model.families):
                items.append(Item(f"{spec}:family{i}",
                                  functools.partial(casimir.family_check, b, fam),
                                  functools.partial(_check_ok, True)))
                items.append(Item(f"{spec}:chain{i}",
                                  functools.partial(_chain, b, fam, chain_functions),
                                  functools.partial(_check_ok, True)))
            items.append(Item(f"{spec}:involution",
                              functools.partial(lenard.involution_check, chain_functions, b),
                              functools.partial(_check_ok, True)))
        items.append(Item("control:incompatible_pair", _fresh(self.incompatible).verify,
                          functools.partial(_check_verify, {
                              "jacobi1": True, "jacobi2": True, "compatibility": False})))
        items.append(Item("control:non_casimir_family",
                          functools.partial(casimir.family_check, _fresh(self.flat),
                                            self.non_casimir),
                          functools.partial(_check_ok, False)))
        return items


def _chain(b, fam, sink):
    chain = lenard.chain_from_family(b, fam)
    sink.extend(chain.functions)
    return lenard.verify_chain(chain)


def _check_ok(expected, cert):
    return None if cert.ok == expected else f"expected ok={expected}: {cert.detail}"


def _check_verify(expected, certs):
    got = {name: cert.ok for name, cert in certs.items()}
    return None if got == expected else f"expected {expected}, got {got}"


WORKLOADS = {w.name: w for w in (AnalyzeCatalog, CongruenceDecompose, CertifySymbolic)}
