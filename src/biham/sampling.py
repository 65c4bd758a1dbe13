"""Seeded rational point sampling on the generic locus of a model.

Numerators are uniform in [-10, 10] and denominators in [1, 5]; candidates
hitting a genericity inequation or a recorded denominator zero locus (a
bracket entry's or a family coefficient's) are rejected, with a 10x budget
before giving up.
"""

import random
from fractions import Fraction

from .errors import SamplingExhausted

BUDGET_FACTOR = 10      # candidates drawn per requested point before giving up


def sample_points(dim: int, count: int, seed: int, inequations=()) -> list:
    """Deterministic list of rational points avoiding the zero loci of the
    given polynomials."""
    rng = random.Random(seed)
    points = []
    attempts = 0
    budget = max(1, BUDGET_FACTOR * count)
    while len(points) < count and attempts < budget:
        attempts += 1
        candidate = tuple(Fraction(rng.randint(-10, 10), rng.randint(1, 5))
                          for _ in range(dim))
        if all(g.eval(candidate) != 0 for g in inequations):
            points.append(candidate)
    if len(points) < count:
        raise SamplingExhausted(
            f"found {len(points)} generic points in {budget} attempts")
    return points


def model_inequations(model) -> list:
    """Genericity inequations plus every recorded denominator locus.

    The loci are the bracket tables' denominators and those of the family
    coefficients, whose gradients the criterion and integrability evaluate
    at every sample.
    """
    polys = list(model.genericity)
    dens = [*model.structure.p1.excluded, *model.structure.p2.excluded,
            *(c.den for fam in model.families for c in fam.coeffs)]
    for den in dens:
        if not den.is_constant() and den not in polys:
            polys.append(den)
    return polys
