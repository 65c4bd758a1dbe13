"""Lambda-Casimir families and the flatness criteria they feed.

A family F_lam = sum f_k lam^k is checked exactly: the defining identity
(lam*P1 + P2) grad F_lam = 0 splits into coefficient chain relations that
are verified one lambda power at a time.  The span of the coefficient
differentials at a point drives the certified single-family criterion
(theorem strength, corank 1) and the multi-family path, which is reported
as conjectural and always cross-validated against a direct pencil
decomposition.  ``web_flatness`` decides the flatness of a 3-dimensional
structure from its two bracket tables, through its 3-web.  The verdicts,
``CriterionVerdict`` and ``LaxVerdict``, are ``exactalg.Record``s: their
JSON is their fields under their own names.
"""

from dataclasses import dataclass

from .errors import InternalInconsistency, ValidationError
from .exactalg import RationalFunction, Record
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
        return RationalFunction.zero(self.coeffs[0].variables)


def family_check(b: BihamStructure, fam: LambdaFamily) -> Certificate:
    """Exact identity (lam*P1 + P2) grad F_lam = 0, coefficient-wise in lam.

    The lambda coefficients are the chain relations: P2 grad f_0 = 0,
    P1 grad f_{k-1} + P2 grad f_k = 0, and P1 grad f_d = 0.  The
    certificate is proved once per structure and family coefficients.  Its
    d + 2 relations are zero-tested in one ``first_nonzero_sum``, grouped (k,
    coordinate) in that order, so the first failing group is the first
    failing lambda power's first failing coordinate and no group after it
    is summed, and each relation it decides is stored under
    ``BihamStructure.relation``'s key, where chains and anchors read it
    (``BihamStructure.first_failing_relation``).
    """
    return b.certificate(("family", fam.coeffs), lambda: _prove_family(b, fam))


def _prove_family(b: BihamStructure, fam: LambdaFamily) -> Certificate:
    failure = b.first_failing_relation([(fam.coeff(k - 1), fam.coeff(k))
                                        for k in range(fam.degree + 2)])
    if failure is None:
        return Certificate(True, "family")
    k, (j, residual) = failure
    return Certificate(False, "family",
                       f"lambda^{k} coefficient fails at {b.variables[j]}: {residual}")


def w1_span_dim(b: BihamStructure, families, at: PointAnalysis) -> int:
    """Rank of the differentials of the families' functions at a point.

    A ``LambdaFamily`` gives its coefficients, which span the same space as
    dF_lam over varying lam; any other entry is a sequence of functions (a
    chain's).  This is the one gradient rank: the criterion's W1, the
    integrability count and the Lax submersion test all read it.  Each row
    is b's stored gradient at the point as cleared integers
    (``BihamStructure.gradient_row``): the point's evaluator sums the
    gradient's ``RowForm`` and clears it, with one gcd for a polynomial
    gradient and no ``Fraction`` per entry, and the rows go to the
    elimination as they are
    (``BihamStructure.gradient_rank``).  The point's ``PointAnalysis`` keeps
    the rank per set of functions; chains are family coefficients reversed,
    so the criterion and integrability share one evaluation and one
    elimination per point, and when ``point_analysis`` was given the
    families it has already taken this rank, before decomposing.
    """
    return b.gradient_rank((f for fam in families
                            for f in (fam.coeffs if isinstance(fam, LambdaFamily) else fam)),
                           at.evaluator, at.ranks)


@dataclass(frozen=True)
class CriterionVerdict(Record):
    """Outcome of the flatness/homogeneity criterion at a point."""

    outcome: str                      # KroneckerCertified | HomogeneousIndicated | Inconclusive
    type: tuple | None                # the indicated Kronecker dimensions
    conjectural: bool
    provenance: str
    reason: str
    n: int
    r: int
    w1_dim: int
    degrees: tuple
    corank_profile: dict
    cross_check: str = ""


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
class LaxVerdict(Record):
    """Graded conclusion for a polynomial map into the space of degree n-1 polynomials."""

    level: str            # NotApplicable | WeakLax | Lax | KroneckerConcluded
    rank: int             # n, the rank of the would-be Lax structure
    gradient_rank: int
    action_dim: int | None
    concluded_dim: int | None = None
    detail: str = ""


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


def web_flatness(b: BihamStructure):
    """dγ of the 3-web cut out by ker ω1, ker ω2 and ker(ω1 + ω2), as the
    components of curl γ, which are all zero exactly when b is flat; None
    when b.dim != 3, b fails a certificate or ω1 ∧ ω2 ≡ 0.

    ω_k = (P^{12}, -P^{02}, P^{01}) is bracket k's kernel covector and γ the
    unique 1-form with dω_k = ω_k ∧ γ (derived in README).  With N = ω1 × ω2
    and N_j its first nonzero component, γ = [(curl ω1)_j ω2 - (curl ω2)_j ω1
    - (curl ω1·ω2) e_j] / N_j: the same γ as
    [(curl ω1·N) ω2 - (curl ω2·N) ω1 - (curl ω1·ω2) N] / |N|^2, over a
    denominator of half the degree.
    """
    if b.dim != 3 or not b.certified():
        return None
    w1, w2 = ((p.coeff(1, 2), p.coeff(2, 0), p.coeff(0, 1)) for p in (b.p1, b.p2))
    n = _cross(w1, w2)
    j = next((j for j in range(3) if not n[j].is_zero()), None)
    if j is None:
        return None
    c1, c2 = _curl(w1), _curl(w2)
    gamma = [_dot((c1[j], -c2[j]), (u, v)) / n[j] for u, v in zip(w2, w1)]
    gamma[j] -= _dot(c1, w2) / n[j]
    return _curl(gamma)


_CYCLE = ((1, 2), (2, 0), (0, 1))


def _dot(u, v) -> RationalFunction:
    return RationalFunction.sum_of_products(zip(u, v), u[0].variables)


def _cross(u, v) -> tuple:
    return tuple(u[i] * v[j] - u[j] * v[i] for i, j in _CYCLE)


def _curl(w) -> tuple:
    zero = RationalFunction.zero(w[0].variables)
    d = [c.partials() for c in w]
    return tuple(d[j].get(i, zero) - d[i].get(j, zero) for i, j in _CYCLE)
