"""Smith normal form for matrices of univariate polynomials over Q.

Entries are one-variable Polys.  Elementary row and column operations with
degree-minimal pivot selection and Fraction long division (``_divmod``);
no modular arithmetic, no randomization.  The inputs of interest are
pencils (entry degree at most one), where coefficient growth stays mild.
It serves the Jordan-part oracle and the ``perfbench`` trace only: the
package reads Jordan parts from integer eliminations.
"""

from ..errors import ValidationError
from .poly import Poly


def smith_invariant_factors(rows) -> list:
    """Invariant factors s_1 | s_2 | ... | s_rho of a polynomial matrix.

    Returns the nonzero diagonal of the Smith normal form, monic, with the
    divisibility chain guaranteed by construction.  ``rho`` is the rank of
    the matrix over the field of rational functions.
    """
    m = [list(r) for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    if any(len(r) != n_cols for r in m):
        raise ValidationError("ragged polynomial matrix")
    if n_rows != n_cols:
        raise ValidationError("smith form expects a square matrix")

    factors = []
    t = 0
    while t < min(n_rows, n_cols):
        pivot = _min_degree_entry(m, t)
        if pivot is None:
            break
        while True:
            pi, pj = _min_degree_entry(m, t)
            if (pi, pj) != (t, t):
                if pi != t:
                    m[t], m[pi] = m[pi], m[t]
                if pj != t:
                    for r in m:
                        r[t], r[pj] = r[pj], r[t]
            piv = m[t][t]
            dirty = False
            for i in range(t + 1, n_rows):
                if not m[i][t].is_zero():
                    q = _divmod(m[i][t], piv)[0]
                    for j in range(t, n_cols):
                        m[i][j] = m[i][j] - q * m[t][j]
                    if not m[i][t].is_zero():
                        dirty = True
            for j in range(t + 1, n_cols):
                if not m[t][j].is_zero():
                    q = _divmod(m[t][j], piv)[0]
                    for i in range(t, n_rows):
                        m[i][j] = m[i][j] - q * m[i][t]
                    if not m[t][j].is_zero():
                        dirty = True
            if dirty:
                continue
            # pivot now alone in its row and column; force divisibility
            offender = None
            for i in range(t + 1, n_rows):
                for j in range(t + 1, n_cols):
                    if not _divmod(m[i][j], piv)[1].is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, n_cols):
                m[t][j] = m[t][j] + m[offender][j]
        factors.append(_monic(m[t][t]))
        t += 1
    return factors


def _min_degree_entry(m, t):
    best = None
    best_deg = None
    for i in range(t, len(m)):
        for j in range(t, len(m[0])):
            p = m[i][j]
            if p.is_zero():
                continue
            (d,), _ = p.leading()
            if best_deg is None or d < best_deg:
                best, best_deg = (i, j), d
                if d == 0:
                    return best
    return best


def _divmod(a: Poly, b: Poly) -> tuple:
    """Quotient and remainder of a by a nonzero b, both univariate, over Q."""
    (db,), lead = b.leading()
    q: dict = {}
    r = dict(a.terms)
    while r:
        top = max(r)
        shift = top[0] - db
        if shift < 0:
            break
        c = q[(shift,)] = r[top] / lead
        for (e,), v in b.terms.items():
            k = (e + shift,)
            rest = r.get(k, 0) - c * v
            if rest:
                r[k] = rest
            else:
                del r[k]
    return Poly(a.variables, q), Poly(a.variables, r)


def _monic(p: Poly) -> Poly:
    return p * (1 / p.leading()[1])
