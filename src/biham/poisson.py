"""Bivector fields with exact Poisson certificates.

A structure is a table of rational-function coefficients
Pi^{ij} = {x_i, x_j} for i < j, skew-extended by construction.  All
identity-level checks (Jacobi, compatibility, Casimir) clear denominators
and compare numerators exactly; point evaluations are a secondary layer
and refuse points on recorded denominator zero loci.  A point is
evaluated on integers by one ``PointEvaluator``; each structure compiles
its table entries' (``values_at``) and its stored gradients' ``IntegerForm``s
once, on first use at a point.  ``pencil_at`` writes both tables' values
over one denominator, skew by construction.  Exact products read each
factor's packed integer form, which a ``Poly`` builds once; so a structure
keeps its skew rows (``skew_rows``, the entries with their negatives) and a
``BihamStructure`` its gradients and its two tables' partials
(``schouten_partials``, which its Jacobi and compatibility certificates
share), and every product reuses those objects.

``first_nonzero_sum`` sums and zero-tests every certificate residual, one
``RationalFunction.sum_of_products`` per (key, products) group: by
coordinate triple for Jacobi and compatibility, by coordinate for the
relations sum P grad f = 0 (a Casimir, a family's lambda coefficient, a
Lenard step).  A ``BihamStructure`` keeps each function's gradient and each
relation's result, never a covector.  The stored relations are read by
``casimir.family_check`` (one per lambda coefficient), by
``lenard.chain_from_family`` and ``lenard.verify_chain`` (the anchor and the
recurrence steps) and by ``lenard.involution_check``, which skips every
bracket the proved Lenard steps make zero by Magri's recursion and sums
only the brackets between two chained runs.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .exactalg import (IntegerForm, Matrix, PointEvaluator, Poly, RationalFunction,
                       clear_denominators, load_json, parse_rational, rat)
from .exactalg.parser import NAME
from .pencil import PointAnalysis, SkewPencil, decompose


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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def as_point(values, dim: int) -> tuple:
    pt = tuple(rat(v) for v in values)
    if len(pt) != dim:
        raise ValidationError(f"point has {len(pt)} coordinates, expected {dim}")
    return pt


def evaluator_at(point, dim: int) -> PointEvaluator:
    """The point's evaluator: passed through, or built from coordinates checked by ``as_point``."""
    if isinstance(point, PointEvaluator):
        return point
    return PointEvaluator(as_point(point, dim))


class PoissonStructure:
    """Skew table of bracket coefficients on a coordinate space."""

    def __init__(self, variables, table):
        self.variables = tuple(variables)
        self.dim = len(self.variables)
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
        self._forms = None
        self._rows = None
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

    def skew_rows(self) -> dict:
        """Row i of the skew table: [(j, Pi^{ij})] over its nonzero entries.

        Built once per structure, so every contraction and Schouten residual
        multiplies the same entry objects, whose integer forms are cached.
        """
        if self._rows is None:
            rows: dict = {}
            for (i, j), c in self.table.items():
                rows.setdefault(i, []).append((j, c))
                rows.setdefault(j, []).append((i, -c))
            self._rows = rows
        return self._rows

    def gradient(self, f: RationalFunction) -> tuple:
        f = self._coerce(f)
        return tuple(f.diff(v) for v in self.variables)

    def hamiltonian_covector(self, f) -> tuple:
        """Component j is {f, x_j} = sum_i Pi^{ij} d_i f."""
        return self.contract(self.gradient(f))

    def contract(self, grad) -> tuple:
        """P grad: component j is sum_i Pi^{ij} grad_i."""
        return tuple(RationalFunction.sum_of_products(g, self.variables)
                     for g in _contraction(((self, grad),), self.dim))

    def bracket(self, f, g) -> RationalFunction:
        """{f, g} = sum_j {f, x_j} d_j g, exact."""
        return self.pairing(self.hamiltonian_covector(f), self.gradient(g))

    def pairing(self, covector, grad) -> RationalFunction:
        """sum_j covector_j grad_j; with f's covector and g's gradient, {f, g}."""
        return RationalFunction.sum_of_products(zip(covector, grad), self.variables)

    def values_at(self, ev: PointEvaluator) -> list:
        """The table's entries at the evaluator's point, in table order.

        The entries' integer forms are compiled here on first use, once per structure.
        """
        if self._forms is None:
            self._forms = [IntegerForm(c) for c in self.table.values()]
        return [ev.value(form) for form in self._forms]

    def bivector_at(self, point) -> Matrix:
        """The table at a point (coordinates or its ``PointEvaluator``), as rationals."""
        return _skew_matrix(self.dim, self.table,
                            self.values_at(evaluator_at(point, self.dim)))

    def corank_at(self, point) -> int:
        """Corank of the bivector at ``point``; for the tests and the ``perfbench`` trace."""
        return self.dim - self.bivector_at(point).rank()

    def jacobi_check(self, partials=None) -> Certificate:
        """Exact Jacobi identity [P, P] = 0 for every coordinate triple i < j < k.

        ``partials`` passes the table's ``schouten_partials`` when the
        caller already holds them.
        """
        if partials is None:
            partials = schouten_partials(self)
        failure = _schouten_failure(((self, partials),), self.variables)
        return Certificate(failure is None, "jacobi", failure or "")

    def is_casimir(self, f) -> Certificate:
        """{F, x_j} = 0 for every coordinate, exactly."""
        failure = relation_failure(((self, self.gradient(f)),), self.variables)
        if failure is None:
            return Certificate(True, "casimir")
        j, residual = failure
        return Certificate(False, "casimir", f"{{F, {self.variables[j]}}} = {residual}")

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "vars": list(self.variables),
            "brackets": [{"i": i, "j": j, "coeff": str(c)}
                         for (i, j), c in sorted(self.table.items())],
        }

    @classmethod
    def from_json(cls, data) -> "PoissonStructure":
        """Structure from its JSON text or object; any malformed input is a ValidationError.

        The dimension is an integer >= 1, variables are names that an
        expression can use, bracket indices integers and coefficients
        expression strings or integers.
        """
        if isinstance(data, str):
            data = load_json(data)
        try:
            variables = tuple(data["vars"])
            entries = list(data["brackets"])
            dim = data["dim"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad structure JSON: {exc}") from exc
        if not _is_int(dim) or dim < 1:
            raise ValidationError(f"structure dimension {dim!r} is not an integer >= 1")
        if len(variables) != dim:
            raise ValidationError("vars length disagrees with dim")
        for k, var in enumerate(variables):
            if not isinstance(var, str):
                raise ValidationError(f"variable {var!r} is not a string")
            if not NAME.fullmatch(var):
                raise ValidationError(f"variable {var!r} is not a name matching {NAME.pattern}")
            if var in variables[:k]:
                raise ValidationError(f"variable {var!r} declared twice")
        table = {}
        for entry in entries:
            try:
                i, j, coeff = entry["i"], entry["j"], entry["coeff"]
            except (KeyError, TypeError) as exc:
                raise ValidationError(f"bad bracket entry {entry!r}") from exc
            if not (_is_int(i) and _is_int(j)):
                raise ValidationError(f"bracket indices ({i!r}, {j!r}) are not integers")
            if not (isinstance(coeff, str) or _is_int(coeff)):
                raise ValidationError(f"bracket coefficient {coeff!r} is neither "
                                      f"an expression string nor an integer")
            if (i, j) in table:
                raise ValidationError(f"bracket entry ({i},{j}) defined twice")
            table[(i, j)] = coeff
        return cls(variables, table)


def _skew_matrix(n: int, keys, values) -> Matrix:
    """The n x n matrix with each value at its key (i, j) and its negative at (j, i)."""
    entries = [0] * (n * n)
    for (i, j), v in zip(keys, values):
        entries[i * n + j] = v
        entries[j * n + i] = -v
    return Matrix(n, n, tuple(entries))


def _present(p: PoissonStructure, f):
    """f as a rational function, or None when it is absent or zero."""
    if f is None:
        return None
    f = p._coerce(f)
    return None if f.is_zero() else f


def first_nonzero_sum(groups, variables):
    """First (key, residual) of the (key, products) groups whose sum is nonzero, else None.

    Groups are summed in the order given, each only when reached.
    """
    for key, products in groups:
        residual = RationalFunction.sum_of_products(products, variables)
        if not residual.is_zero():
            return key, residual
    return None


def _contraction(terms, dim: int) -> list:
    """Per coordinate j, the products (Pi^{ij}, grad_i) of sum over (P, grad) of P grad.

    A None gradient (an absent or zero function) contributes nothing.
    """
    groups = [[] for _ in range(dim)]
    for p, grad in terms:
        if grad is None:
            continue
        for i, row in p.skew_rows().items():
            if not grad[i].is_zero():
                for j, c in row:
                    groups[j].append((c, grad[i]))
    return groups


def relation_failure(terms, variables):
    """First (coordinate index, residual) where sum over (P, grad f) of P grad f is nonzero."""
    return first_nonzero_sum(enumerate(_contraction(terms, len(variables))), variables)


def compatibility_check(p1: PoissonStructure, p2: PoissonStructure,
                        own=None, partials=None) -> Certificate:
    """Mixed Jacobi identity, equivalent to the whole pencil being Poisson.

    The Jacobiator is quadratic in the bivector, so with both summands
    Poisson the pencil lam1*P1 + lam2*P2 satisfies Jacobi for all lam iff
    the bilinear mixed term [P1, P2] + [P2, P1] vanishes identically.  Each
    summand must be Poisson on its own, so that is checked first; ``own``
    passes the two Jacobi certificates and ``partials`` the two tables'
    ``schouten_partials`` when the caller already holds them.
    """
    if p1.variables != p2.variables:
        raise ValidationError("structures live on different variable tuples")
    for which, p in ((1, p1), (2, p2)):
        cert = own[which - 1] if own is not None else p.jacobi_check()
        if not cert.ok:
            return Certificate(False, "compatibility",
                               f"bracket {which} fails its own Jacobi identity "
                               f"({cert.detail})")
    d1, d2 = partials if partials is not None else (schouten_partials(p1),
                                                    schouten_partials(p2))
    failure = _schouten_failure(((p1, d2), (p2, d1)), p1.variables)
    return Certificate(failure is None, "compatibility", failure or "")


def schouten_partials(q: PoissonStructure) -> list:
    """[((b, c), [(l, d_l Q^{bc})])]: each table entry's nonzero partials, in table order.

    The Jacobiator of Q and the mixed term of a pencil with Q both read
    them, so a ``BihamStructure`` differentiates each entry once.
    """
    out = []
    for key, entry in q.table.items():
        derivs = ((l, entry.diff(name)) for l, name in enumerate(q.variables))
        out.append((key, [(l, dl) for l, dl in derivs if not dl.is_zero()]))
    return out


def _schouten_failure(pairs, variables):
    """Detail of the first triple, in sorted order, whose residual is nonzero, else None.

    ``pairs`` holds (P, the ``schouten_partials`` of Q).  The residual of
    the sorted triple (i, j, k) is the sum over (P, Q) in pairs of sum_cyc
    sum_l P^{la} d_l Q^{bc}, the cyclic sum running over the even
    permutations (a, b, c) of it.  Only nonzero entries Q^{bc} (b < c),
    their nonzero derivatives and the nonzero P^{la} contribute, each once,
    as the product (+-P^{la}, d_l Q^{bc}) with the sign of (a, b, c) as a
    permutation of the sorted triple.  [P, P] is the Jacobiator; (P1, P2)
    with (P2, P1) is the mixed term of the pencil.
    """
    terms: dict = {}
    for p, partials in pairs:
        rows = p.skew_rows()
        for (b, c), derivs in partials:
            for l, dl in derivs:
                if l not in rows:
                    continue
                for a, pla in rows[l]:
                    if a < b:
                        key = (a, b, c)
                    elif b < a < c:
                        key, pla = (b, a, c), -pla
                    elif a > c:
                        key = (b, c, a)
                    else:
                        continue
                    terms.setdefault(key, []).append((pla, dl))
    failure = first_nonzero_sum(sorted(terms.items()), variables)
    if failure is None:
        return None
    (i, j, k), residual = failure
    return f"triple ({variables[i]},{variables[j]},{variables[k]}): residual {residual}"


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
        self._partials = None
        self._gradients: dict = {}
        self._gradient_forms: dict = {}

    def certificate(self, key, prove):
        """The result stored under ``key``, proved by ``prove()`` on first use."""
        if key not in self._certificates:
            self._certificates[key] = prove()
        return self._certificates[key]

    def gradient(self, f) -> tuple:
        """f's gradient over the structure's variables, differentiated once per structure."""
        f = self.p1._coerce(f)
        if f not in self._gradients:
            self._gradients[f] = self.p1.gradient(f)
        return self._gradients[f]

    def gradient_at(self, f, evaluator: PointEvaluator) -> tuple:
        """grad f at the evaluator's point.

        The integer forms of the stored gradient are built once per structure.
        """
        f = self.p1._coerce(f)
        forms = self._gradient_forms.get(f)
        if forms is None:
            forms = self._gradient_forms[f] = tuple(IntegerForm(d) for d in self.gradient(f))
        return tuple(evaluator.value(form) for form in forms)

    def relation(self, f, g):
        """``relation_failure`` of P1 grad f + P2 grad g, proved once per structure.

        An absent or zero side is None in the key, so a family's top
        relation (f_d, 0) and a chain's anchor (H_0, None) share one result.
        Only the result is kept, never a covector.
        """
        f, g = _present(self.p1, f), _present(self.p1, g)
        return self.certificate(("relation", f, g), lambda: relation_failure(
            ((p, None if h is None else self.gradient(h))
             for p, h in ((self.p1, f), (self.p2, g))), self.variables))

    def partials(self) -> tuple:
        """The two brackets' ``schouten_partials``, differentiated once per structure.

        The Jacobi certificates and the compatibility certificate share them.
        """
        if self._partials is None:
            self._partials = (schouten_partials(self.p1), schouten_partials(self.p2))
        return self._partials

    def jacobi(self, which: int) -> Certificate:
        p = self.p1 if which == 1 else self.p2
        return self.certificate(f"jacobi{which}",
                                lambda: p.jacobi_check(self.partials()[which - 1]))

    def compatibility(self) -> Certificate:
        return self.certificate("compatibility", lambda: compatibility_check(
            self.p1, self.p2, own=(self.jacobi(1), self.jacobi(2)), partials=self.partials()))

    def verify(self) -> dict:
        """Run and cache all three certificates."""
        return {"jacobi1": self.jacobi(1), "jacobi2": self.jacobi(2),
                "compatibility": self.compatibility()}

    def certified(self) -> bool:
        return all(self.verify().values())

    def pencil_at(self, point) -> SkewPencil:
        """The integer pencil at a point: both tables' values over one denominator."""
        ev = evaluator_at(point, self.dim)
        v1 = self.p1.values_at(ev)
        ints, _ = clear_denominators(v1 + self.p2.values_at(ev))
        n = self.dim
        return SkewPencil(n, _skew_matrix(n, self.p1.table, ints[:len(v1)]),
                          _skew_matrix(n, self.p2.table, ints[len(v1):]))

    def point_analysis(self, point, types=None) -> PointAnalysis:
        """Coranks and block type at a point, from one evaluator.

        The point is scaled to integers once: its ``PointEvaluator`` evaluates
        the pencil here and, kept on the record, every gradient row later.
        ``types`` is the caller's dict from integer pencil to ``PencilType``:
        a pencil found there is not decomposed again, and one decomposed here
        is added, so points whose pencils are equal share one ``decompose``.
        Nothing is kept on the structure: the caller owns the record and the
        dict.
        """
        ev = evaluator_at(point, self.dim)
        pencil = self.pencil_at(ev)
        types = {} if types is None else types
        ptype = types.get(pencil)
        if ptype is None:
            ptype = types[pencil] = decompose(pencil)
        return PointAnalysis(ev, ptype)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "vars": list(self.variables),
            "brackets1": self.p1.to_json()["brackets"],
            "brackets2": self.p2.to_json()["brackets"],
        }

    @classmethod
    def from_json(cls, data) -> "BihamStructure":
        if isinstance(data, str):
            data = load_json(data)
        if not isinstance(data, dict):
            raise ValidationError("structure JSON must be an object")
        base = {"dim": data.get("dim"), "vars": data.get("vars")}
        p1 = PoissonStructure.from_json({**base, "brackets": data.get("brackets1", [])})
        p2 = PoissonStructure.from_json({**base, "brackets": data.get("brackets2", [])})
        return cls(p1, p2)

