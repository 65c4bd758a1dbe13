"""Bivector fields with exact Poisson certificates.

A structure is a table of rational-function coefficients
Pi^{ij} = {x_i, x_j} for i < j, skew-extended by construction.  All
identity-level checks (Jacobi, compatibility, Casimir) clear denominators
and compare numerators exactly; point evaluations are a secondary layer
and refuse points on recorded denominator zero loci.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .exactalg import Matrix, Poly, RationalFunction, parse_rational, rat, rat_str
from .pencil import PointAnalysis, SkewPencil


@dataclass(frozen=True)
class Certificate:
    """Outcome of an exact identity check; failure is a result, not an error."""

    ok: bool
    kind: str
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {"kind": self.kind, "ok": self.ok, "detail": self.detail}


def as_point(values, dim: int) -> tuple:
    pt = tuple(rat(v) for v in values)
    if len(pt) != dim:
        raise ValidationError(f"point has {len(pt)} coordinates, expected {dim}")
    return pt


class PoissonStructure:
    """Skew table of bracket coefficients on a coordinate space."""

    def __init__(self, variables, table, name: str = ""):
        self.variables = tuple(variables)
        self.dim = len(self.variables)
        self.name = name
        folded: dict = {}
        for (i, j), coeff in table.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValidationError(f"bracket index ({i},{j}) out of range")
            if i == j:
                raise ValidationError(f"diagonal bracket entry ({i},{i}) is not skew")
            coeff = self._coerce(coeff)
            if coeff.is_zero():
                continue
            key, value = ((i, j), coeff) if i < j else ((j, i), -coeff)
            if key in folded:
                raise ValidationError(f"bracket entry {key} defined twice")
            folded[key] = value
        self.table = folded
        excluded = []
        for coeff in folded.values():
            if not coeff.den.is_constant() and coeff.den not in excluded:
                excluded.append(coeff.den)
        self.excluded = tuple(excluded)

    def _coerce(self, coeff) -> RationalFunction:
        if isinstance(coeff, str):
            return parse_rational(coeff, self.variables)
        if isinstance(coeff, Poly):
            return RationalFunction.from_poly(coeff)
        if isinstance(coeff, (int, Fraction)):
            return RationalFunction.constant(coeff, self.variables)
        return coeff

    def coeff(self, i: int, j: int) -> RationalFunction:
        """Pi^{ij} with the skew extension (zero on the diagonal)."""
        if i == j:
            return RationalFunction.constant(0, self.variables)
        if i < j:
            entry = self.table.get((i, j))
            return entry if entry is not None else RationalFunction.constant(0, self.variables)
        entry = self.table.get((j, i))
        return -entry if entry is not None else RationalFunction.constant(0, self.variables)

    def zero_function(self) -> RationalFunction:
        return RationalFunction.constant(0, self.variables)

    def gradient(self, f: RationalFunction) -> tuple:
        f = self._coerce(f)
        return tuple(f.diff(v) for v in self.variables)

    def hamiltonian_covector(self, f) -> tuple:
        """Component j is {f, x_j} = sum_i Pi^{ij} d_i f."""
        grad = self.gradient(f)
        out = []
        for j in range(self.dim):
            acc = self.zero_function()
            for i in range(self.dim):
                if i != j:
                    c = self.coeff(i, j)
                    if not c.is_zero() and not grad[i].is_zero():
                        acc = acc + c * grad[i]
            out.append(acc)
        return tuple(out)

    def bracket(self, f, g) -> RationalFunction:
        """{f, g} = sum_{i,j} Pi^{ij} d_i f d_j g, exact."""
        f = self._coerce(f)
        g = self._coerce(g)
        df = self.gradient(f)
        dg = self.gradient(g)
        acc = self.zero_function()
        for (i, j), c in self.table.items():
            term = df[i] * dg[j] - df[j] * dg[i]
            if not term.is_zero():
                acc = acc + c * term
        return acc

    def bivector_at(self, point) -> Matrix:
        point = as_point(point, self.dim)
        rows = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for (i, j), c in self.table.items():
            v = c.eval(point)
            rows[i][j] = v
            rows[j][i] = -v
        return Matrix.from_rows(rows)

    def corank_at(self, point) -> int:
        return self.dim - self.bivector_at(point).rank()

    def jacobi_check(self) -> Certificate:
        """Exact Jacobi identity for every coordinate triple i < j < k."""
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    residual = self._jacobiator(i, j, k)
                    if not residual.is_zero():
                        return Certificate(
                            False, "jacobi",
                            f"triple ({self.variables[i]},{self.variables[j]},"
                            f"{self.variables[k]}): residual {residual}")
        return Certificate(True, "jacobi")

    def _jacobiator(self, i: int, j: int, k: int) -> RationalFunction:
        acc = self.zero_function()
        for l in range(self.dim):
            dl = self.variables[l]
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                pla = self.coeff(l, a)
                if pla.is_zero():
                    continue
                dbc = self.coeff(b, c).diff(dl)
                if not dbc.is_zero():
                    acc = acc + pla * dbc
        return acc

    def is_casimir(self, f) -> Certificate:
        """{F, x_j} = 0 for every coordinate, exactly."""
        cov = self.hamiltonian_covector(f)
        for j, entry in enumerate(cov):
            if not entry.is_zero():
                return Certificate(False, "casimir",
                                   f"{{F, {self.variables[j]}}} = {entry}")
        return Certificate(True, "casimir")

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "vars": list(self.variables),
            "brackets": [{"i": i, "j": j, "coeff": str(c)}
                         for (i, j), c in sorted(self.table.items())],
        }

    @classmethod
    def from_json(cls, data, name: str = "") -> "PoissonStructure":
        if isinstance(data, str):
            data = json.loads(data)
        try:
            variables = tuple(data["vars"])
            entries = data["brackets"]
            dim = data["dim"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad structure JSON: {exc}") from exc
        if len(variables) != dim:
            raise ValidationError("vars length disagrees with dim")
        table = {}
        for entry in entries:
            try:
                i, j, coeff = entry["i"], entry["j"], entry["coeff"]
            except (KeyError, TypeError) as exc:
                raise ValidationError(f"bad bracket entry {entry!r}") from exc
            if (i, j) in table:
                raise ValidationError(f"bracket entry ({i},{j}) defined twice")
            table[(i, j)] = coeff
        return cls(variables, table, name=name)


def compatibility_check(p1: PoissonStructure, p2: PoissonStructure) -> Certificate:
    """Mixed Jacobi identity, equivalent to the whole pencil being Poisson.

    The Jacobiator is quadratic in the bivector, so with both summands
    Poisson the pencil lam1*P1 + lam2*P2 satisfies Jacobi for all lam iff
    the bilinear mixed term vanishes identically.  Each summand must be
    Poisson on its own, so that is checked first.
    """
    if p1.variables != p2.variables:
        raise ValidationError("structures live on different variable tuples")
    for which, p in ((1, p1), (2, p2)):
        own = p.jacobi_check()
        if not own.ok:
            return Certificate(False, "compatibility",
                               f"bracket {which} fails its own Jacobi identity "
                               f"({own.detail})")
    n = p1.dim
    zero = p1.zero_function()
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = zero
                for l in range(n):
                    dl = p1.variables[l]
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        p1la = p1.coeff(l, a)
                        p2la = p2.coeff(l, a)
                        if not p1la.is_zero():
                            d2 = p2.coeff(b, c).diff(dl)
                            if not d2.is_zero():
                                acc = acc + p1la * d2
                        if not p2la.is_zero():
                            d1 = p1.coeff(b, c).diff(dl)
                            if not d1.is_zero():
                                acc = acc + p2la * d1
                if not acc.is_zero():
                    return Certificate(
                        False, "compatibility",
                        f"triple ({p1.variables[i]},{p1.variables[j]},"
                        f"{p1.variables[k]}): residual {acc}")
    return Certificate(True, "compatibility")


def pencil_structure(p1: PoissonStructure, p2: PoissonStructure, lam) -> PoissonStructure:
    """The combination lam*P1 + P2, assembled explicitly."""
    lam = rat(lam)
    table = {}
    keys = set(p1.table) | set(p2.table)
    for key in keys:
        table[key] = p1.coeff(*key) * lam + p2.coeff(*key)
    return PoissonStructure(p1.variables, table, name=f"{rat_str(lam)}*P1+P2")


# function-style aliases for the method surface


def bivector_at(p: PoissonStructure, point) -> Matrix:
    return p.bivector_at(point)


def bracket_of(p: PoissonStructure, f, g) -> RationalFunction:
    return p.bracket(f, g)


def jacobi_check(p: PoissonStructure) -> Certificate:
    return p.jacobi_check()


def is_casimir(p: PoissonStructure, f) -> Certificate:
    return p.is_casimir(f)


def corank_at(p: PoissonStructure, point) -> int:
    return p.corank_at(point)


class BihamStructure:
    """A pair of compatible Poisson structures on the same coordinates."""

    def __init__(self, p1: PoissonStructure, p2: PoissonStructure, name: str = ""):
        if p1.variables != p2.variables:
            raise ValidationError("bracket pair must share the variable tuple")
        self.p1 = p1
        self.p2 = p2
        self.name = name
        self.variables = p1.variables
        self.dim = p1.dim
        self._certificates: dict = {}

    def certificate(self, key, prove) -> Certificate:
        """The certificate stored under ``key``, proved by ``prove()`` on first use."""
        if key not in self._certificates:
            self._certificates[key] = prove()
        return self._certificates[key]

    def jacobi(self, which: int) -> Certificate:
        p = self.p1 if which == 1 else self.p2
        return self.certificate(f"jacobi{which}", p.jacobi_check)

    def compatibility(self) -> Certificate:
        return self.certificate("compatibility",
                                lambda: compatibility_check(self.p1, self.p2))

    def verify(self) -> dict:
        """Run and cache all three certificates."""
        return {"jacobi1": self.jacobi(1), "jacobi2": self.jacobi(2),
                "compatibility": self.compatibility()}

    def certified(self) -> bool:
        return all(self.verify().values())

    def pencil_at(self, point) -> SkewPencil:
        a = self.p1.bivector_at(point)
        b = self.p2.bivector_at(point)
        return SkewPencil(self.dim, a, b)

    def point_analysis(self, point) -> PointAnalysis:
        """Pencil, coranks and block type at a point; a record passes through.

        Nothing is kept on the structure: the caller owns the record.
        """
        if isinstance(point, PointAnalysis):
            return point
        point = as_point(point, self.dim)
        return PointAnalysis.of(self.pencil_at(point), point)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "vars": list(self.variables),
            "brackets1": self.p1.to_json()["brackets"],
            "brackets2": self.p2.to_json()["brackets"],
        }

    @classmethod
    def from_json(cls, data, name: str = "") -> "BihamStructure":
        if isinstance(data, str):
            data = json.loads(data)
        base = {"dim": data.get("dim"), "vars": data.get("vars")}
        p1 = PoissonStructure.from_json({**base, "brackets": data.get("brackets1", [])})
        p2 = PoissonStructure.from_json({**base, "brackets": data.get("brackets2", [])})
        return cls(p1, p2, name=name)


def pencil_at(b: BihamStructure, point):
    return b.pencil_at(point)
