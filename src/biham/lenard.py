"""Anchored Lenard chains: extraction, verification, involution, integrability.

Chains are never produced by solving the recurrence for unknown functions;
they are read off closed-form polynomial families by coefficient reversal,
which bridges the lambda-polynomial convention of the criteria and the
1/lambda expansion convention of the recursion scheme exactly.
"""

from dataclasses import dataclass

from .casimir import LambdaFamily, gradient_rows
from .errors import ValidationError
from .exactalg import load_json, parse_rational, stack_rows
from .pencil import action_dimension
from .poisson import BihamStructure, Certificate


@dataclass(frozen=True)
class LenardChain:
    """Functions H_0..H_n tied to a bracket pair by the chain recurrence.

    anchored means H_0 is a Casimir of the first bracket, verified exactly.
    """

    functions: tuple
    structure: BihamStructure
    anchored: bool
    name: str = ""

    def to_json(self) -> dict:
        return {"anchored": self.anchored,
                "functions": [str(f) for f in self.functions]}

    @classmethod
    def from_json(cls, data, structure: BihamStructure, name: str = "") -> "LenardChain":
        if isinstance(data, str):
            data = load_json(data)
        try:
            funcs = tuple(parse_rational(f, structure.variables)
                          for f in data["functions"])
            anchored = bool(data["anchored"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad chain JSON: {exc}") from exc
        return cls(funcs, structure, anchored, name=name)


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

    Each function is differentiated once, and H_a is contracted once per
    structure, for row a only; {H_a, H_c} is then the pairing of H_a's
    covector with grad H_c.
    """
    funcs = list(funcs)
    grads = [b.p1.gradient(f) for f in funcs]
    for a in range(len(funcs) - 1):
        covectors = (b.p1.hamiltonian_covector(funcs[a]), b.p2.hamiltonian_covector(funcs[a]))
        for c in range(a + 1, len(funcs)):
            for which, p in ((1, b.p1), (2, b.p2)):
                res = p.pairing(covectors[which - 1], grads[c])
                if not res.is_zero():
                    return Certificate(
                        False, "involution",
                        f"{{H_{a}, H_{c}}}_{which} = {res}")
    return Certificate(True, "involution")


@dataclass(frozen=True)
class IntegrabilityVerdict:
    """Count of independent chain functions at a point versus the action dimension."""

    independent: int
    action_dim: int
    outcome: str       # StrictlyLenardIntegrable | Insufficient | JordanObstructed
    pencil_type: str

    def to_json(self) -> dict:
        return {"independent": self.independent, "action_dim": self.action_dim,
                "outcome": self.outcome, "pencil_type": self.pencil_type}


def integrability_verdict(b: BihamStructure, chains, point) -> IntegrabilityVerdict:
    """Gradient rank of all chain functions at the point versus action dimension.

    A Jordan block in the pointwise pencil absorbs no chain gradients, so a
    shortfall in the presence of Jordan blocks is reported as the
    obstruction rather than plain insufficiency.  ``point`` is coordinates
    or the point's ``PointAnalysis``.
    """
    at = b.point_analysis(point)
    rows = gradient_rows(b, [f for chain in chains for f in chain.functions], at.point)
    count = stack_rows(rows).rank() if rows else 0
    ptype = at.ptype
    adim = action_dimension(ptype)
    if count == adim:
        outcome = "StrictlyLenardIntegrable"
    elif not ptype.is_pure_kronecker():
        outcome = "JordanObstructed"
    else:
        outcome = "Insufficient"
    return IntegrabilityVerdict(count, adim, outcome, ptype.label())


def telescoping_check(chain: LenardChain) -> Certificate:
    """{H_i, H_j}_1 = {H_{i-1}, H_{j+1}}_1 for all valid index pairs."""
    b = chain.structure
    fs = chain.functions
    for i in range(1, len(fs)):
        for j in range(len(fs) - 1):
            left = b.p1.bracket(fs[i], fs[j])
            right = b.p1.bracket(fs[i - 1], fs[j + 1])
            if not (left - right).is_zero():
                return Certificate(False, "telescoping",
                                   f"failure at (i,j)=({i},{j})")
    return Certificate(True, "telescoping")
