"""Lambda-Casimir families and the flatness criteria they feed.

A family F_lam = sum f_k lam^k is checked exactly: the defining identity
(lam*P1 + P2) grad F_lam = 0 splits into coefficient chain relations that
are verified one lambda power at a time.  The span of the coefficient
differentials at a point drives the certified single-family criterion
(theorem strength, corank 1) and the multi-family path, which is reported
as conjectural and always cross-validated against a direct pencil
decomposition.
"""

from dataclasses import dataclass

from .errors import InternalInconsistency, ValidationError
from .exactalg import RationalFunction, clear_denominators, load_json, parse_rational
from .exactalg.kernels import row_echelon_ff
from .pencil import PointAnalysis, action_dimension
from .poisson import BihamStructure, Certificate


@dataclass(frozen=True)
class LambdaFamily:
    """Polynomial family of functions, Casimir for lam*{,}_1 + {,}_2.

    coeffs[k] is the coefficient of lam^k; the leading coefficient must be
    nonzero.
    """

    coeffs: tuple
    name: str = ""

    def __post_init__(self):
        if not self.coeffs:
            raise ValidationError("family needs at least one coefficient")
        if self.coeffs[-1].is_zero():
            raise ValidationError("leading family coefficient is identically zero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> RationalFunction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return RationalFunction.constant(0, self.coeffs[0].variables)

    def to_json(self) -> dict:
        return {"degree": self.degree, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data, variables, name: str = "") -> "LambdaFamily":
        if isinstance(data, str):
            data = load_json(data)
        try:
            coeffs = tuple(parse_rational(c, variables) for c in data["coeffs"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad family JSON: {exc}") from exc
        fam = cls(coeffs, name=name)
        degree = data.get("degree", fam.degree)
        if isinstance(degree, bool) or not isinstance(degree, int):
            raise ValidationError(f"family field 'degree' is {degree!r}, not an integer")
        if fam.degree != degree:
            raise ValidationError("family degree field disagrees with coefficients")
        return fam


def family_check(b: BihamStructure, fam: LambdaFamily) -> Certificate:
    """Exact identity (lam*P1 + P2) grad F_lam = 0, coefficient-wise in lam.

    The lambda coefficients are the chain relations: P2 grad f_0 = 0,
    P1 grad f_{k-1} + P2 grad f_k = 0, and P1 grad f_d = 0.  The
    certificate is proved once per structure and family coefficients, and
    each relation once per structure (``BihamStructure.relation``).
    """
    return b.certificate(("family", fam.coeffs), lambda: _prove_family(b, fam))


def _prove_family(b: BihamStructure, fam: LambdaFamily) -> Certificate:
    for k in range(fam.degree + 2):
        failure = b.relation(fam.coeff(k - 1), fam.coeff(k))
        if failure is not None:
            j, residual = failure
            return Certificate(
                False, "family",
                f"lambda^{k} coefficient fails at {b.variables[j]}: {residual}")
    return Certificate(True, "family")


def w1_span_dim(b: BihamStructure, families, at: PointAnalysis) -> int:
    """Rank of the differentials of the families' functions at a point.

    A ``LambdaFamily`` gives its coefficients, which span the same space as
    dF_lam over varying lam; any other entry is a sequence of functions (a
    chain's).  This is the one gradient rank: the criterion's W1, the
    integrability count and the Lax submersion test all read it.  Each row
    is b's stored gradient evaluated on integers (``BihamStructure.gradient_at``)
    by the point's evaluator.  The point's ``PointAnalysis`` keeps the rank
    per set of functions; chains are family coefficients reversed, so the
    criterion and integrability share one evaluation and one elimination per
    point.
    """
    functions = dict.fromkeys(f for fam in families
                              for f in (fam.coeffs if isinstance(fam, LambdaFamily) else fam))
    key = frozenset(functions)
    if key not in at.ranks:
        at.ranks[key] = row_echelon_ff([clear_denominators(b.gradient_at(f, at.evaluator))[0]
                                        for f in functions])[0]
    return at.ranks[key]


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of the flatness/homogeneity criterion at a point."""

    outcome: str                      # KroneckerCertified | HomogeneousIndicated | Inconclusive
    type_dims: tuple | None
    conjectural: bool
    provenance: str
    reason: str
    n: int
    r: int
    w1_dim: int
    degrees: tuple
    corank_profile: dict
    cross_check: str = ""

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "type": list(self.type_dims) if self.type_dims else None,
            "conjectural": self.conjectural,
            "provenance": self.provenance,
            "reason": self.reason,
            "n": self.n, "r": self.r, "w1_dim": self.w1_dim,
            "degrees": list(self.degrees),
            "corank_profile": self.corank_profile,
            "cross_check": self.cross_check,
        }


def kronecker_criterion(b: BihamStructure, families, at: PointAnalysis) -> CriterionVerdict:
    """Criterion run at one point, cross-validated against decompose.

    The single-family corank-1 route is theorem strength; the multi-family
    route rests on the conjectural type formula and is flagged as such.
    """
    for fam in families:
        cert = family_check(b, fam)
        if not cert.ok:
            raise ValidationError(f"family failed its certificate: {cert.detail}")
    r = at.generic_corank
    ptype = at.ptype
    cross = ptype.label()
    w1 = w1_span_dim(b, families, at)
    degrees = tuple(f.degree for f in families)
    n = b.dim
    prof = at.corank_profile

    common = dict(n=n, r=r, w1_dim=w1, degrees=degrees, corank_profile=prof,
                  cross_check=cross)

    single = len(families) == 1 and r == 1
    path = "single-family path" if single else "multi-family path"
    if 2 * w1 < n + r:
        return CriterionVerdict("Inconclusive", None, False, path,
                                "span bound dim W1 >= (n+r)/2 fails", **common)
    if single:
        if 2 * degrees[0] >= n:
            return CriterionVerdict("Inconclusive", None, False, path,
                                    "degree bound d < dim M/2 fails", **common)
        if not ptype.is_pure_kronecker() or ptype.kronecker_dims() != (n,):
            raise InternalInconsistency(
                f"criterion certifies (type ({n})) but decomposition gives {cross}")
        return CriterionVerdict("KroneckerCertified", (n,), False,
                                "single-family flatness criterion (corank 1)",
                                "", **common)

    if len(families) < r:
        return CriterionVerdict("Inconclusive", None, False, path,
                                "family count below the number of Kronecker blocks",
                                **common)
    dim_sum = sum(2 * d + 1 for d in degrees)
    if dim_sum > n:
        return CriterionVerdict("Inconclusive", None, False, path,
                                "degree bound sum(2*d_l + 1) <= dim M fails", **common)
    indicated = tuple(sorted((2 * d + 1 for d in degrees), reverse=True))
    reason = ""
    if ptype.kronecker_dims() != indicated or not ptype.is_pure_kronecker():
        reason = f"decomposition {cross} disagrees with indicated type"
    return CriterionVerdict("HomogeneousIndicated", indicated, True,
                            "multi-family conjectural type formula", reason, **common)


@dataclass(frozen=True)
class LaxVerdict:
    """Graded conclusion for a polynomial map into the space of degree n-1 polynomials."""

    level: str            # NotApplicable | WeakLax | Lax | KroneckerConcluded
    rank: int             # n, the rank of the would-be Lax structure
    gradient_rank: int
    action_dim: int | None
    concluded_dim: int | None = None
    detail: str = ""

    def to_json(self) -> dict:
        return {"level": self.level, "rank": self.rank,
                "gradient_rank": self.gradient_rank,
                "action_dim": self.action_dim,
                "concluded_dim": self.concluded_dim, "detail": self.detail}


def lax_check(b: BihamStructure, fam: LambdaFamily, at: PointAnalysis) -> LaxVerdict:
    """Weak Lax / Lax / Kronecker-concluded verdict at a point.

    Weak Lax needs only the family identity.  Lax needs the coefficient map
    to be submersive at the point with action dimension equal to the rank.
    The Kronecker type of dimension 2n - 1 is concluded when the generic
    corank of the pencil at the point is 1.  That proves the corank-1
    hypothesis on a neighbourhood: a skew pencil of generic corank 1 has odd
    dimension, so nearby its corank is at least 1 by parity and at most 1
    by semicontinuity.
    """
    n_rank = fam.degree + 1
    cert = family_check(b, fam)
    if not cert.ok:
        return LaxVerdict("NotApplicable", n_rank, 0, None,
                          detail=f"family identity fails: {cert.detail}")
    grad_rank = w1_span_dim(b, [fam], at)
    adim = action_dimension(at.ptype)
    if grad_rank != n_rank or adim != n_rank:
        return LaxVerdict("WeakLax", n_rank, grad_rank, adim,
                          detail="submersion or action-dimension condition fails")
    if at.generic_corank != 1:
        return LaxVerdict("Lax", n_rank, grad_rank, adim,
                          detail="corank-1 hypothesis failed at a sampled point")
    return LaxVerdict("KroneckerConcluded", n_rank, grad_rank, adim,
                      concluded_dim=2 * n_rank - 1)
