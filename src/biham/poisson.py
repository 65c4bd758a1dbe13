"""Bivector fields with exact Poisson certificates.

A structure is a table of rational-function coefficients
Pi^{ij} = {x_i, x_j} for i < j, skew-extended by construction.  All
identity-level checks (Jacobi, compatibility, Casimir) clear denominators
and compare numerators exactly; point evaluations are a secondary layer
and refuse points on recorded denominator zero loci.  A point is
evaluated on integers by one ``PointEvaluator``, straight to integer rows:
a structure compiles its table (``row_form``) and a ``BihamStructure`` each
stored gradient into one ``RowForm`` once, on first use at a point, and
``PointEvaluator.row`` gives the row's cleared ints with no ``Fraction`` per
entry.  ``pencil_at`` reads both tables' rows over one denominator and
writes the pair skew by construction; ``gradient_row`` is the row that
``gradient_rank`` eliminates, once per point and set of functions, for
``casimir.w1_span_dim`` and for ``point_analysis``, which hands the degrees
of families with a stored, passing ``family_check`` to ``decompose`` when
their coefficient gradients are independent.  ``bivector_at`` evaluates
each table entry with ``RationalFunction.eval``, sharing no code with
``pencil_at``, and stays the pencil's oracle.  Exact products read each
factor's packed integer form, which a ``Poly`` builds once; so a structure
keeps its skew rows (``skew_rows``, {i: {j: Pi^{ij}}} with both signs of
every entry, which the Schouten terms and ``coeff`` read instead of
negating an entry) and a ``BihamStructure`` its gradients and its two
tables' partials (``schouten_partials``, which its Jacobi and
compatibility certificates share), and every product reuses those
objects.  Every derivative comes from one ``RationalFunction.partials``
call per function: a table entry's nonzero partials, or a gradient with
the variable tuple's shared ``RationalFunction.zero`` in the other slots;
a polynomial's partials are their packed forms only, wrapped as built, so
no zero partial is built and no partial is packed again, and none is
unpacked: the products, the zero test and the gradient rows all read the
packed form.  Once a polynomial structure's skew rows are built, a passing
certificate on it builds no ``RationalFunction``.

``first_nonzero_sum`` zero-tests every certificate residual, one (key,
products) group by coordinate triple for Jacobi and compatibility, by
coordinate for the relations sum P grad f = 0 (a Casimir, a family's lambda
coefficient, a Lenard step).  A certificate's groups are summed in order by
one ``RationalFunction.sums_of_products`` call, which packs their factors
once and sums each group on packed monomials in its own accumulator, so a
group that vanishes builds no ``RationalFunction``, a nonzero group is
summed once, exactly, giving the residual of a failure, and no group after
it is summed.  A ``BihamStructure`` keeps each function's gradient and each
relation's result, never a covector; ``first_failing_relation`` zero-tests
all the relations it is given that are not stored yet in one
``first_nonzero_sum`` and stores each it decides.  The stored relations are
written by ``casimir.family_check`` (one zero test for the family's lambda
coefficients) and read by
``lenard.chain_from_family`` and ``lenard.verify_chain`` (the anchor and the
recurrence steps) and by ``lenard.involution_check``, which skips every
bracket the proved Lenard steps make zero by Magri's recursion and sums
only the brackets between two chained runs.  Every check returns a
``Certificate``, an ``exactalg.Record`` written as its fields; its ``str``
is the ``pass`` or ``FAIL <detail>`` line of ``biham check``.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import PoleAtPoint, ValidationError
from .exactalg import (Matrix, PointEvaluator, Poly, RationalFunction, Record, RowForm,
                       parse_rational, rat)
from .exactalg.kernels import row_echelon_ff
from .pencil import PointAnalysis, SkewPencil, decompose


@dataclass(frozen=True)
class Certificate(Record):
    """Outcome of an exact identity check; failure is a result, not an error."""

    ok: bool
    kind: str
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        return self.line(self.ok, self.detail)

    @staticmethod
    def line(ok: bool, detail: str = "") -> str:
        """``pass`` or ``FAIL <detail>``, as ``biham check`` and markdown reports print it."""
        return "pass" if ok else "FAIL " + detail


def as_point(values, dim: int) -> tuple:
    """The coordinates as rationals, refused unless there are ``dim`` of them."""
    pt = tuple(rat(v) for v in values)
    _check_dim(pt, dim)
    return pt


def _check_dim(pt: tuple, dim: int) -> None:
    if len(pt) != dim:
        raise ValidationError(f"point has {len(pt)} coordinates, expected {dim}")


def evaluator_at(point, dim: int) -> PointEvaluator:
    """The point's evaluator: passed through, or built from coordinates, either
    refused unless the point has ``dim`` coordinates."""
    if isinstance(point, PointEvaluator):
        _check_dim(point.point, dim)
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
        self._row_form = None
        self._rows = None
        self.excluded = tuple(dict.fromkeys(c.den for c in folded.values()
                                            if not c.den.is_constant()))

    def _coerce(self, coeff) -> RationalFunction:
        if isinstance(coeff, str):
            return parse_rational(coeff, self.variables)
        if isinstance(coeff, Poly):
            return RationalFunction.from_poly(coeff)
        if isinstance(coeff, (int, Fraction)):
            return RationalFunction.constant(coeff, self.variables)
        return coeff

    def coeff(self, i: int, j: int) -> RationalFunction:
        """Pi^{ij} with the skew extension, read off the skew rows (zero on the diagonal)."""
        entry = self.skew_rows().get(i, {}).get(j)
        return RationalFunction.zero(self.variables) if entry is None else entry

    def skew_rows(self) -> dict:
        """{i: {j: Pi^{ij}}} over the nonzero entries, both signs of each.

        Built once per structure, so every contraction and Schouten residual
        multiplies the same entry objects, whose integer forms are cached;
        a caller reads -Pi^{ij} as the stored Pi^{ji} and negates no entry.
        """
        if self._rows is None:
            rows: dict = {}
            for (i, j), c in self.table.items():
                rows.setdefault(i, {})[j] = c
                rows.setdefault(j, {})[i] = -c
            self._rows = rows
        return self._rows

    def gradient(self, f: RationalFunction) -> tuple:
        """(d_0 f, ..., d_{n-1} f): f's nonzero ``partials``, the shared zero elsewhere."""
        partials = self._coerce(f).partials()
        zero = RationalFunction.zero(self.variables)
        return tuple(partials.get(i, zero) for i in range(self.dim))

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

    def row_form(self) -> RowForm:
        """The table's entries, in table order, as one ``RowForm``, compiled once per structure."""
        if self._row_form is None:
            self._row_form = RowForm(self.table.values())
        return self._row_form

    def bivector_at(self, point) -> Matrix:
        """The table at a point (coordinates or its ``PointEvaluator``), as rationals.

        Each entry goes through ``RationalFunction.eval``: the pencil's oracle.
        """
        if isinstance(point, PointEvaluator):
            point = point.point
        pt = as_point(point, self.dim)
        return _skew_matrix(self.dim, self.table, [c.eval(pt) for c in self.table.values()])

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

    The groups' sums come from one ``RationalFunction.sums_of_products``
    call, which packs every factor once and sums each group exactly in
    its own accumulator when it is reached, so the search stops at the
    first nonzero group and sums none after it.  The loop that sums every
    group in turn stays the oracle in the tests.
    """
    groups = [(key, list(products)) for key, products in groups]
    sums = RationalFunction.sums_of_products([products for _, products in groups], variables)
    return next(((key, residual) for (key, _), residual in zip(groups, sums)
                 if not residual.is_zero()), None)


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
                for j, c in row.items():
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
    return [(key, list(entry.partials().items())) for key, entry in q.table.items()]


def _schouten_failure(pairs, variables):
    """Detail of the first triple, in sorted order, whose residual is nonzero, else None.

    ``pairs`` holds (P, the ``schouten_partials`` of Q).  The residual of
    the sorted triple (i, j, k) is the sum over (P, Q) in pairs of sum_cyc
    sum_l P^{la} d_l Q^{bc}, the cyclic sum running over the even
    permutations (a, b, c) of it.  Only nonzero entries Q^{bc} (b < c),
    their nonzero derivatives and the nonzero P^{la} contribute, each once,
    as the product (+-P^{la}, d_l Q^{bc}) with the sign of (a, b, c) as a
    permutation of the sorted triple.  The odd sign's -P^{la} is P^{al},
    read off P's ``skew_rows``, which hold both signs of every entry, so no
    entry is negated and every factor's packed form is built once per
    structure.  [P, P] is the Jacobiator; (P1, P2) with (P2, P1) is the
    mixed term of the pencil.
    """
    terms: dict = {}
    for p, partials in pairs:
        rows = p.skew_rows()
        for (b, c), derivs in partials:
            for l, dl in derivs:
                if l not in rows:
                    continue
                for a, pla in rows[l].items():
                    if a < b:
                        key = (a, b, c)
                    elif b < a < c:
                        key, pla = (b, a, c), rows[a][l]
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

    def gradient_row(self, f, evaluator: PointEvaluator) -> list:
        """grad f at the evaluator's point, as the ints ``clear_denominators`` gives.

        The stored gradient's ``RowForm`` is compiled once per structure.
        """
        f = self.p1._coerce(f)
        form = self._gradient_forms.get(f)
        if form is None:
            form = self._gradient_forms[f] = RowForm(self.gradient(f))
        return evaluator.row(form)[0]

    def gradient_rank(self, functions, evaluator: PointEvaluator, ranks: dict) -> int:
        """Rank of the functions' gradient rows at the evaluator's point, kept in ``ranks``.

        ``ranks`` is the point's dict from the set of functions to its rank,
        so each set is evaluated and eliminated once per point; a repeated
        function is one row.
        """
        functions = dict.fromkeys(functions)
        key = frozenset(functions)
        if key not in ranks:
            ranks[key] = row_echelon_ff([self.gradient_row(f, evaluator) for f in functions])[0]
        return ranks[key]

    def relation(self, f, g):
        """``relation_failure`` of P1 grad f + P2 grad g, proved once per structure.

        An absent or zero side is None in the key, so a family's top
        relation (f_d, 0) and a chain's anchor (H_0, None) share one result.
        Only the result is kept, never a covector.
        """
        key = self._relation_key(f, g)
        if key not in self._certificates:
            self._prove_relations([key])
        return self._certificates[key]

    def first_failing_relation(self, pairs):
        """First (index, ``relation``) over the (f, g) pairs that fails, else None.

        The relations not stored yet are proved in one zero test
        (``_prove_relations``), so the result and the store are those of
        ``relation`` called on the pairs in order until one fails.
        """
        keys = [self._relation_key(f, g) for f, g in pairs]
        self._prove_relations(keys)
        stored = self._certificates
        return next(((i, stored[key]) for i, key in enumerate(keys)
                     if stored[key] is not None), None)

    def _relation_key(self, f, g) -> tuple:
        return ("relation", _present(self.p1, f), _present(self.p1, g))

    def _prove_relations(self, keys) -> None:
        """Store the result of every relation key up to the first failing one.

        The keys not stored yet, up to the first stored failure, are
        zero-tested in one ``first_nonzero_sum``, their coordinate groups
        keyed (index, coordinate) in that order, so the first nonzero group
        is the first failing relation's ``relation_failure``.  Every relation
        that call decides, each one before that failure and the failure, is
        stored; none after it is.
        """
        stored = self._certificates
        open_keys: dict = {}            # key not stored yet -> its first index
        for i, key in enumerate(keys):
            if key not in stored:
                open_keys.setdefault(key, i)
            elif stored[key] is not None:
                break
        if not open_keys:
            return
        groups = (((i, j), products) for (_, f, g), i in open_keys.items()
                  for j, products in enumerate(_contraction(
                      ((p, None if h is None else self.gradient(h))
                       for p, h in ((self.p1, f), (self.p2, g))), self.dim)))
        failure = first_nonzero_sum(groups, self.variables)
        decided = len(keys) if failure is None else failure[0][0]
        for key, i in open_keys.items():
            if i < decided:
                stored[key] = None
        if failure is not None:
            (i, j), residual = failure
            stored[keys[i]] = (j, residual)

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
        """The integer pencil at a point: both tables' rows over one denominator."""
        ints, _ = evaluator_at(point, self.dim).row(self.p1.row_form(), self.p2.row_form())
        n, m = self.dim, len(self.p1.table)
        return SkewPencil(n, _skew_matrix(n, self.p1.table, ints[:m]),
                          _skew_matrix(n, self.p2.table, ints[m:]))

    def point_analysis(self, point, types=None, families=()) -> PointAnalysis:
        """Coranks and block type at a point, from one evaluator.

        The point is scaled to integers once: its ``PointEvaluator`` evaluates
        the pencil here and, kept on the record, every gradient row later.
        ``types`` is the caller's dict from integer pencil to ``PencilType``:
        a pencil found there is not decomposed again, and one decomposed here
        is added, so points whose pencils are equal share one ``decompose``.
        Nothing is kept on the structure: the caller owns the record and the
        dict.

        ``families`` are lambda-Casimir families; ``run_analyze`` passes them
        when every family is certified.  Before a pencil is decomposed, the
        rank of their coefficient gradients is taken here, under the key the
        criterion and integrability read later (``gradient_rank``).  The minimal indices
        at the point are sorted(d_l), and ``decompose`` skips the staircase,
        when four hypotheses hold: (1) the L families are certified; (2) the
        point is no pole of the brackets or of a coefficient gradient; (3)
        the coefficient gradients have rank sum(d_l + 1), ROADMAP item 5's
        w1 = sum(d_l + 1); (4) the corank c at the sample ``decompose``
        eliminates is L.  By (1) and (2) each F_l(lam) = sum_k lam^k
        grad f_{l,k} is a polynomial kernel vector of degree d_l of the
        pencil at the point; by (3) the F_l are independent over Q(lam), so
        r >= L, and (4) gives r = L; their sum(d_l + 1) independent
        coefficients lie in the span of a minimal basis's sum(e_i + 1), so
        sum(d_l) <= sum(e_i), and Forney's minimal-basis theorem (SIAM J.
        Control 13, 1975) gives e_(i) <= d_(i) with both sorted, so
        e_(i) = d_(i) (in full in ``decompose``).  (1) is read off each
        family's stored ``family_check`` result, (2) and (3) are tested here
        and (4) by ``decompose`` at each sample.  Where (1), (2) or (3) fails
        no degrees are passed, and a pole surfaces where the verdicts
        evaluate the gradients, as without families.
        """
        ev = evaluator_at(point, self.dim)
        pencil = self.pencil_at(ev)
        ranks = {}
        types = {} if types is None else types
        ptype = types.get(pencil)
        if ptype is None:
            ptype = types[pencil] = decompose(pencil, self._kernel_degrees(families, ev, ranks))
        return PointAnalysis(ev, ptype, ranks)

    def _kernel_degrees(self, families, evaluator: PointEvaluator, ranks: dict):
        """The families' degrees if each has a stored, passing ``family_check``
        and their coefficient gradients are independent at the point."""
        # a stored Certificate is truthy when it passed; casimir imports this module
        if not families or not all(self._certificates.get(("family", fam.coeffs))
                                   for fam in families):
            return None
        try:
            rank = self.gradient_rank([f for fam in families for f in fam.coeffs],
                                      evaluator, ranks)
        except PoleAtPoint:
            return None
        degrees = [fam.degree for fam in families]
        return degrees if rank == sum(d + 1 for d in degrees) else None
