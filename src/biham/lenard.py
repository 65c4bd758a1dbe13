"""Anchored Lenard chains: extraction, verification, involution, integrability.

Chains are never produced by solving the recurrence for unknown functions;
they are read off closed-form polynomial families by coefficient reversal,
which bridges the lambda-polynomial convention of the criteria and the
1/lambda expansion convention of the recursion scheme exactly.  Relations
and brackets read the structure's stored gradients.  The involution check
reads the stored relations and sums only the brackets they leave open: by
Magri's recursion a bracket whose two functions lie in one chained run is
zero, so a proved chain costs no contraction and no sum.  The integrability
count is ``casimir.w1_span_dim`` of the chain functions at the point's
``PointAnalysis``: a chain read off a family has the family's coefficients
as its functions, so the count is the criterion's W1, evaluated and
eliminated once per point.  ``IntegrabilityVerdict`` is an
``exactalg.Record``, written as its fields.
"""

from dataclasses import dataclass

from .casimir import LambdaFamily, w1_span_dim
from .exactalg import Record
from .pencil import PointAnalysis, action_dimension
from .poisson import BihamStructure, Certificate, first_nonzero_sum


@dataclass(frozen=True)
class LenardChain:
    """Functions H_0..H_n tied to a bracket pair by the chain recurrence.

    anchored means H_0 is a Casimir of the first bracket, verified exactly.
    """

    functions: tuple
    structure: BihamStructure
    anchored: bool
    name: str = ""


def chain_from_family(b: BihamStructure, fam: LambdaFamily, name: str = "") -> LenardChain:
    """H_i := f_{d-i}; reversal maps the polynomial family to the 1/lambda expansion.

    The anchor P1 grad H_0 = 0 is the family's top relation (f_d, 0).
    """
    funcs = tuple(reversed(fam.coeffs))
    anchored = b.relation(funcs[0], None) is None
    return LenardChain(funcs, b, anchored, name=name or fam.name)


def verify_chain(chain: LenardChain) -> Certificate:
    """Exact recurrence P2 grad H_i + P1 grad H_{i+1} = 0 for consecutive pairs.

    These are the relations of ``BihamStructure.relation``, so a chain read
    off a family whose certificate is already proved computes nothing new.
    """
    b = chain.structure
    fs = chain.functions
    if chain.anchored:
        failure = b.relation(fs[0], None)
        if failure is not None:
            j, residual = failure
            return Certificate(False, "chain",
                               f"anchor fails: {{H0, {b.variables[j]}}}_1 = {residual}")
    for i in range(len(fs) - 1):
        failure = b.relation(fs[i + 1], fs[i])
        if failure is not None:
            j, residual = failure
            return Certificate(
                False, "chain",
                f"recurrence fails at i={i}, coordinate {b.variables[j]}: {residual}")
    return Certificate(True, "chain")


def involution_check(funcs, b: BihamStructure) -> Certificate:
    """All pairwise brackets vanish under both structures, exactly.

    Gradients are b's (``BihamStructure.gradient``).  {H_a, H_c}_k pairs the
    covector P_k grad H_a with grad H_c, one group of ``first_nonzero_sum``,
    in the order (a, c, k).  Row c is chained when R_c holds: the stored
    ``BihamStructure.relation`` P1 grad H_c + P2 grad H_{c-1} = 0, or
    P1 grad H_0 = 0 for row 0, already proved for a chain read off a
    certified family.  Magri's recursion (J. Math. Phys. 19, 1978) proves
    from these relations alone that a group is zero:

    - R_{a+1} and R_c give {H_a, H_c}_2 = {H_{a+1}, H_{c-1}}_2.  Repeated,
      the pair meets at {H_m, H_m}_2 = 0 or at {H_m, H_{m+1}}_2 =
      -<P1 grad H_{m+1}, grad H_{m+1}> = 0 by R_{m+1}, so (a, c, 2) is zero
      when rows a+1..c are chained;
    - R_c gives {H_a, H_c}_1 = -{H_a, H_{c-1}}_2, zero by the same rule (or
      by skew-symmetry when c = a + 1), so (a, c, 1) is zero when rows
      a+1..c are chained; and (0, c, 1) is zero when row 0 is chained.

    Each row keeps the first row of the chained run that ends there.  A row
    is contracted under P_k only when a group (a, c, k) is left, and only
    those groups, the ones that cross a run boundary, go to
    ``first_nonzero_sum``, which sums them in order and stops at the first
    nonzero one.  Every skipped group is zero, so the first nonzero group is
    the one the all-pairs loop would find; on a chained list the check reads
    the stored relations and sums nothing.
    """
    funcs = list(funcs)
    grads = [b.gradient(f) for f in funcs]
    start = []      # start[c]: first row of the chained run ending at row c, else c + 1
    for c, f in enumerate(funcs):
        chained = b.relation(f, funcs[c - 1] if c else None) is None
        start.append((start[-1] if c else 0) if chained else c + 1)

    def brackets():
        for a in range(len(grads) - 1):
            covectors = {}
            for c in range(a + 1, len(grads)):
                if start[c] <= a + 1:       # rows a+1..c are chained
                    continue
                for which, p in ((1, b.p1), (2, b.p2)):
                    if which == 1 and a == 0 and start[0] == 0:     # the anchor
                        continue
                    if which not in covectors:
                        covectors[which] = p.contract(grads[a])
                    yield (a, c, which), zip(covectors[which], grads[c])

    failure = first_nonzero_sum(brackets(), b.variables)
    if failure is None:
        return Certificate(True, "involution")
    (a, c, which), res = failure
    return Certificate(False, "involution", f"{{H_{a}, H_{c}}}_{which} = {res}")


@dataclass(frozen=True)
class IntegrabilityVerdict(Record):
    """Count of independent chain functions at a point versus the action dimension."""

    independent: int
    action_dim: int
    outcome: str       # StrictlyLenardIntegrable | Insufficient | JordanObstructed
    pencil_type: str


def integrability_verdict(b: BihamStructure, chains, at: PointAnalysis) -> IntegrabilityVerdict:
    """Gradient rank of all chain functions at the point versus action dimension.

    A Jordan block in the pointwise pencil absorbs no chain gradients, so a
    shortfall in the presence of Jordan blocks is reported as the
    obstruction rather than plain insufficiency.
    """
    count = w1_span_dim(b, [chain.functions for chain in chains], at)
    ptype = at.ptype
    adim = action_dimension(ptype)
    if count == adim:
        outcome = "StrictlyLenardIntegrable"
    elif not ptype.is_pure_kronecker():
        outcome = "JordanObstructed"
    else:
        outcome = "Insufficient"
    return IntegrabilityVerdict(count, adim, outcome, ptype.label())

