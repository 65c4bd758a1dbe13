"""Independent brute-force oracles used across the test suite.

Everything here deliberately avoids the library's own elimination and
canonicalization paths: ranks come from naive Gaussian elimination over
Fractions, determinants from permutation expansion, so that agreement with
the package is evidence and not tautology.  The last section keeps the
model helpers that only the tests use, among them the suite's one
floating-point computation, an RK4 check of the m_f Casimir, and the
hand-built chart curvatures of m_f and of the two-family model, the oracles
of ``casimir.web_flatness``.
"""

import math
from fractions import Fraction
from itertools import permutations

from biham.casimir import LambdaFamily
from biham.errors import BihamError, NotSkewCanonical, ValidationError
from biham.exactalg import (Matrix, Poly, RationalFunction, clear_denominators, factor_monic,
                            parse_poly, poly_gcd, primitive_gcd, rat,
                            smith_invariant_factors, truncate)
from biham.exactalg.smith import _divmod, _monic
from biham.models import ModelSpec, _tridiagonal_det, _two_family_chart
from biham.pencil import Block
from biham.poisson import Certificate, PoissonStructure


def _gauss_echelon(rows):
    """Plain fraction Gaussian elimination: the echelon rows, the pivot
    columns left to right, and the sign of the row swaps."""
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    sign = 1
    col = 0
    while len(pivots) < n_rows and col < n_cols:
        rank = len(pivots)
        piv = None
        for i in range(rank, n_rows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        pval = m[rank][col]
        for i in range(rank + 1, n_rows):
            if m[i][col] != 0:
                f = m[i][col] / pval
                for j in range(col, n_cols):
                    m[i][j] -= f * m[rank][j]
        pivots.append(col)
        col += 1
    return m, pivots, sign


def gauss_pivots(rows) -> list:
    """Pivot columns of plain fraction Gaussian elimination, left to right."""
    return _gauss_echelon(rows)[1]


def gauss_rank(rows) -> int:
    """Rank by plain fraction Gaussian elimination."""
    return len(gauss_pivots(rows))


def gauss_det(rows) -> Fraction:
    """Determinant of a square matrix by plain fraction Gaussian elimination."""
    m, pivots, det = _gauss_echelon(rows)
    if len(pivots) < len(rows):
        return Fraction(0)
    for i in range(len(rows)):
        det *= m[i][i]
    return det


def perm_det(rows) -> Fraction:
    """Determinant by permutation expansion (fine up to ~7x7)."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= Fraction(rows[i][perm[i]])
            if term == 0:
                break
        total += sign * term
    return total


def cofactor_det(rows) -> Poly:
    """Determinant of a square matrix of Polys by cofactor expansion along the
    rows, memoized on the columns left; the oracle for biham.models'
    three-term recurrence."""
    variables = rows[0][0].variables
    memo = {}

    def minor(r, cols):
        if not cols:
            return Poly.constant(1, variables)
        if cols not in memo:
            total = Poly.zero(variables)
            for k, c in enumerate(cols):
                if not rows[r][c].is_zero():
                    term = rows[r][c] * minor(r + 1, cols[:k] + cols[k + 1:])
                    total = total + (term if k % 2 == 0 else -term)
            memo[cols] = total
        return memo[cols]

    return minor(0, tuple(range(len(rows))))


def schoolbook_matrix_product(a, b) -> list:
    """Rows of the product of two Matrix objects, each entry a sum of Fraction products."""
    return [[sum((a[i, k] * b[k, j] for k in range(a.cols)), Fraction(0))
             for j in range(b.cols)] for i in range(a.rows)]


def minor_rank(rows) -> int:
    """Rank as the largest size of a nonvanishing minor (exponential; tiny inputs only)."""
    from itertools import combinations

    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    for size in range(min(n_rows, n_cols), 0, -1):
        for rs in combinations(range(n_rows), size):
            for cs in combinations(range(n_cols), size):
                sub = [[rows[i][j] for j in cs] for i in rs]
                if perm_det(sub) != 0:
                    return size
    return 0


# -- eager Bareiss -------------------------------------------------------------
#
# The elimination kernel as it was before rows were scaled lazily: every row
# below the pivot is brought up to every pivot, whether or not its entry in
# the pivot column is zero.  biham.exactalg.kernels.row_echelon_ff must
# return the same rank and pivot columns and leave the same rows.


def eager_row_echelon_ff(m):
    """One-step fraction-free elimination in place, every row updated at every step.

    Returns ``(rank, pivot_cols)``; each update (x*piv - t*y) is exactly
    divisible by the previous pivot.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivot_cols = []
    r = 0
    prev = 1
    for c in range(n_cols):
        if r >= n_rows:
            break
        best = -1
        best_abs = 0
        for i in range(r, n_rows):
            v = m[i][c]
            if v != 0:
                a = -v if v < 0 else v
                if best < 0 or a < best_abs:
                    best = i
                    best_abs = a
        if best < 0:
            continue
        if best != r:
            m[r], m[best] = m[best], m[r]
        piv = m[r][c]
        row_r = m[r]
        for i in range(r + 1, n_rows):
            row_i = m[i]
            t = row_i[c]
            row_i[c] = 0
            if t == 0:
                if prev == 1:
                    for j in range(c + 1, n_cols):
                        row_i[j] = row_i[j] * piv
                else:
                    for j in range(c + 1, n_cols):
                        row_i[j] = row_i[j] * piv // prev
            else:
                if prev == 1:
                    for j in range(c + 1, n_cols):
                        row_i[j] = row_i[j] * piv - t * row_r[j]
                else:
                    for j in range(c + 1, n_cols):
                        row_i[j] = (row_i[j] * piv - t * row_r[j]) // prev
        prev = piv
        pivot_cols.append(c)
        r += 1
    return r, pivot_cols


# -- rational pencil paths ---------------------------------------------------
#
# The per-degree rational staircase and the Gaussian corank profile, kept as
# the reference for biham.pencil's integer pencils: every staircase S_d is
# built from the Fraction entries and solved on its own, and every corank
# comes from a fresh Gaussian elimination of lam*A + B.


def fraction_staircase(p, d):
    """The degree-d kernel system of lam*A + B over the Fraction entries.

    A vector v(lam) = v_0 + ... + v_d lam^d satisfies (lam*A + B) v = 0 iff
    B v_0 = 0, A v_{i-1} + B v_i = 0 for i = 1..d, and A v_d = 0; the
    stacked block matrix has n(d+2) rows and n(d+1) columns.
    """
    n = p.n
    rows = []
    for block_row in range(d + 2):
        for i in range(n):
            row = [Fraction(0)] * (n * (d + 1))
            if block_row <= d:       # B acting on v_{block_row}
                for j in range(n):
                    row[block_row * n + j] += p.B[i, j]
            if block_row >= 1 and block_row - 1 <= d:   # A acting on v_{block_row-1}
                for j in range(n):
                    row[(block_row - 1) * n + j] += p.A[i, j]
            rows.append(row)
    return Matrix.from_rows(rows)


def convolution_nullity(p, d):
    """A basis of the degree-d polynomial kernel vectors.

    Solved by ``Matrix.nullspace`` on this d's rational staircase alone, the
    path that the single integer elimination in ``minimal_indices`` replaced.
    """
    return fraction_staircase(p, d).nullspace()


def integer_rows(p):
    """The integer rows of A and of B, as ``decompose`` reads them."""
    return p.A.to_rows(), p.B.to_rows()


def gauss_corank_profile(p):
    """Corank of lam*A + B at lam = 0..n and of A (key "inf"), by ``gauss_rank``."""
    a, b = integer_rows(p)
    prof = {str(lam): p.n - gauss_rank([[lam * x + y for x, y in zip(ra, rb)]
                                        for ra, rb in zip(a, b)])
            for lam in range(p.n + 1)}
    prof["inf"] = p.n - gauss_rank(a)
    return prof


def generic_sample(p):
    """(r, lam, pivots) by ``gauss_corank_profile`` and ``gauss_pivots``: the
    generic corank, the first lam in 0..n where lam*A + B has corank r, and
    its pivot columns there, the arguments ``jordan_part`` takes."""
    profile = gauss_corank_profile(p)
    r = min(profile.values())
    lam = next(lam for lam in range(p.n + 1) if profile[str(lam)] == r)
    a, b = integer_rows(p)
    return r, lam, gauss_pivots([[lam * x + y for x, y in zip(ra, rb)]
                                 for ra, rb in zip(a, b)])


# -- structure, family and model helpers that only the tests use -----------


def pencil_structure(p1, p2, lam):
    """The combination lam*P1 + P2, assembled explicitly."""
    lam = rat(lam)
    table = {}
    for key in set(p1.table) | set(p2.table):
        table[key] = p1.coeff(*key) * lam + p2.coeff(*key)
    return PoissonStructure(p1.variables, table)


def shifted_family(fam, poly_coeffs):
    """fam plus a constant-coefficient polynomial p(lam) of degree <= fam.degree."""
    variables = fam.coeffs[0].variables
    new = list(fam.coeffs)
    for k, c in enumerate(poly_coeffs[:len(new)]):
        new[k] = new[k] + RationalFunction.constant(c, variables)
    return LambdaFamily(tuple(new), fam.name)


def is_generic(model, point):
    """Whether every genericity polynomial of a catalog model is nonzero at point."""
    return all(g.eval(point) != 0 for g in model.genericity)


# -- dense certificate paths -------------------------------------------------
#
# The coordinate-by-coordinate forms of the Poisson certificates, kept as the
# reference for the sparse residuals in biham.poisson and biham.lenard: every
# triple i<j<k, every l and every cyclic term is visited through the
# skew-extended ``coeff``, and brackets pair the two full gradients entry by
# entry.  Details are worded exactly as the library words them.


def dense_jacobiator(p, i, j, k):
    """sum_l sum_cyc Pi^{la} d_l Pi^{bc} over (a,b,c) in the cyclic shifts of (i,j,k)."""
    acc = RationalFunction.constant(0, p.variables)
    for l in range(p.dim):
        dl = p.variables[l]
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            pla = p.coeff(l, a)
            if pla.is_zero():
                continue
            dbc = p.coeff(b, c).diff(dl)
            if not dbc.is_zero():
                acc = acc + pla * dbc
    return acc


def dense_mixed_term(p1, p2, i, j, k):
    """The bilinear part of the Jacobiator of P1 + P2 at the triple (i,j,k)."""
    acc = RationalFunction.constant(0, p1.variables)
    for l in range(p1.dim):
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
    return acc


def _first_failing_triple(p, residual):
    for i in range(p.dim):
        for j in range(i + 1, p.dim):
            for k in range(j + 1, p.dim):
                r = residual(i, j, k)
                if not r.is_zero():
                    return (f"triple ({p.variables[i]},{p.variables[j]},"
                            f"{p.variables[k]}): residual {r}")
    return None


def dense_jacobi_check(p):
    failure = _first_failing_triple(p, lambda i, j, k: dense_jacobiator(p, i, j, k))
    return Certificate(failure is None, "jacobi", failure or "")


def dense_compatibility_check(p1, p2):
    for which, p in ((1, p1), (2, p2)):
        own = dense_jacobi_check(p)
        if not own.ok:
            return Certificate(False, "compatibility",
                               f"bracket {which} fails its own Jacobi identity "
                               f"({own.detail})")
    failure = _first_failing_triple(p1, lambda i, j, k: dense_mixed_term(p1, p2, i, j, k))
    return Certificate(failure is None, "compatibility", failure or "")


def diff_gradient(p, f):
    """f's gradient, one ``diff`` per variable: the oracle of ``partials``."""
    f = p._coerce(f)
    return tuple(f.diff(v) for v in p.variables)


def pairwise_bracket(p, f, g):
    """{f, g} = sum_{i<j} Pi^{ij} (d_i f d_j g - d_j f d_i g), each pair differentiated afresh."""
    df = diff_gradient(p, f)
    dg = diff_gradient(p, g)
    acc = RationalFunction.constant(0, p.variables)
    for (i, j), c in p.table.items():
        term = df[i] * dg[j] - df[j] * dg[i]
        if not term.is_zero():
            acc = acc + c * term
    return acc


def pairwise_involution_check(funcs, b):
    funcs = list(funcs)
    for a in range(len(funcs)):
        for c in range(a + 1, len(funcs)):
            for which, p in ((1, b.p1), (2, b.p2)):
                res = pairwise_bracket(p, funcs[a], funcs[c])
                if not res.is_zero():
                    return Certificate(False, "involution",
                                       f"{{H_{a}, H_{c}}}_{which} = {res}")
    return Certificate(True, "involution")


# -- Hamiltonian relations ----------------------------------------------------
#
# The three covector-sum loops that biham.poisson.relation_failure replaced,
# kept as the reference for the family, chain and Casimir certificates.  Each
# proves every relation afresh, from freshly computed covectors whose
# gradients come from ``diff``.


def diff_covector(p, f):
    """P grad f, with f's gradient from ``diff_gradient``."""
    return p.contract(diff_gradient(p, f))


def loop_family_check(b, fam):
    """(lam*P1 + P2) grad F_lam = 0 one lambda power at a time, sums from zero."""
    for k in range(fam.degree + 2):
        prev = fam.coeff(k - 1)
        cur = fam.coeff(k)
        cov1 = diff_covector(b.p1, prev) if not prev.is_zero() else None
        cov2 = diff_covector(b.p2, cur) if not cur.is_zero() else None
        for j in range(b.dim):
            acc = RationalFunction.constant(0, b.variables)
            if cov1 is not None:
                acc = acc + cov1[j]
            if cov2 is not None:
                acc = acc + cov2[j]
            if not acc.is_zero():
                return Certificate(
                    False, "family",
                    f"lambda^{k} coefficient fails at {b.variables[j]}: {acc}")
    return Certificate(True, "family")


def per_relation_family_check(b, fam):
    """The family certificate one stored ``BihamStructure.relation`` at a time,
    each lambda power zero-tested in its own accumulator, in order."""
    for k in range(fam.degree + 2):
        failure = b.relation(fam.coeff(k - 1), fam.coeff(k))
        if failure is not None:
            j, residual = failure
            return Certificate(
                False, "family",
                f"lambda^{k} coefficient fails at {b.variables[j]}: {residual}")
    return Certificate(True, "family")


def loop_verify_chain(chain):
    """The anchor, then P2 grad H_i + P1 grad H_{i+1} = 0 for consecutive pairs."""
    b = chain.structure
    if chain.anchored:
        cov = diff_covector(b.p1, chain.functions[0])
        for j, entry in enumerate(cov):
            if not entry.is_zero():
                return Certificate(False, "chain",
                                   f"anchor fails: {{H0, {b.variables[j]}}}_1 = {entry}")
    for i in range(len(chain.functions) - 1):
        cov2 = diff_covector(b.p2, chain.functions[i])
        cov1 = diff_covector(b.p1, chain.functions[i + 1])
        for j in range(b.dim):
            acc = cov2[j] + cov1[j]
            if not acc.is_zero():
                return Certificate(
                    False, "chain",
                    f"recurrence fails at i={i}, coordinate {b.variables[j]}: {acc}")
    return Certificate(True, "chain")


def loop_is_casimir(p, f):
    """{F, x_j} = 0 for every coordinate, from F's whole covector."""
    cov = diff_covector(p, f)
    for j, entry in enumerate(cov):
        if not entry.is_zero():
            return Certificate(False, "casimir", f"{{F, {p.variables[j]}}} = {entry}")
    return Certificate(True, "casimir")


# -- one group at a time -------------------------------------------------------
#
# The residual loop that poisson.first_nonzero_sum replaced: every group
# summed exactly, in order, until one is nonzero, each product a reduced
# RationalFunction added to the running sum, so it shares no code with
# RationalFunction.sums_of_products.


def running_sum(products, variables):
    """Sum of u*v over the (u, v) products, one product added at a time."""
    total = RationalFunction.constant(0, variables)
    for u, v in products:
        total = total + u * v
    return total


def first_nonzero_sum_loop(groups, variables):
    """First (key, residual) of the (key, products) groups whose ``running_sum``
    is nonzero, else None."""
    for key, products in groups:
        residual = running_sum(products, variables)
        if not residual.is_zero():
            return key, residual
    return None


# -- one product at a time -----------------------------------------------------
#
# The covector and pairing loops that RationalFunction.sum_of_products
# replaced: every product is a reduced RationalFunction, added to the running
# sum with one gcd reduction per addition.


def loop_hamiltonian_covector(p, f):
    """Component j is {f, x_j} = sum_i Pi^{ij} d_i f, one product added at a time."""
    grad = diff_gradient(p, f)
    out = [RationalFunction.constant(0, p.variables) for _ in range(p.dim)]
    for (i, j), c in p.table.items():
        if not grad[i].is_zero():
            out[j] = out[j] + c * grad[i]
        if not grad[j].is_zero():
            out[i] = out[i] - c * grad[j]
    return tuple(out)


def loop_pairing(p, covector, grad):
    """sum_j covector_j grad_j, one product added at a time."""
    acc = RationalFunction.constant(0, p.variables)
    for u, v in zip(covector, grad):
        if not u.is_zero() and not v.is_zero():
            acc = acc + u * v
    return acc


def schoolbook_product(p, q):
    """Terms of p*q by Fraction products, dropping a term whenever it cancels."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = terms.get(e, Fraction(0)) + c1 * c2
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
    return terms


# -- substitution --------------------------------------------------------------
#
# The full substitution that exactalg.compose truncates after every product.


def subs(p, mapping):
    """p with polynomials (over p's variable tuple) or numbers substituted for variables."""
    out = Poly.zero(p.variables)
    for e, c in p.terms.items():
        term = Poly.constant(c, p.variables)
        for name, k in zip(p.variables, e):
            if k:
                repl = mapping.get(name)
                if repl is None:
                    repl = Poly.variable(name, p.variables)
                elif isinstance(repl, (int, Fraction)):
                    repl = Poly.constant(repl, p.variables)
                term = term * repl**k
        out = out + term
    return out


# -- Smith-form Jordan part --------------------------------------------------
#
# The elementary divisors read off the Smith forms of the two charts, kept as
# the reference for biham.pencil.jordan_part's integer Toeplitz eliminations.


T = ("t",)


def univariate(coeffs):
    """The Poly in t with these coefficients, low degree first."""
    return Poly(T, {(k,): Fraction(c) for k, c in enumerate(coeffs)})


def integer_coefficients(p):
    """An integer multiple of a Poly in t as a coefficient list, low degree first."""
    top = max((k for (k,) in p.terms), default=-1)
    return clear_denominators([p.terms.get((k,), Fraction(0)) for k in range(top + 1)])[0]


def monic_gcd(a, b):
    """The library's primitive_gcd of two Polys in t, made monic."""
    g = univariate(primitive_gcd(integer_coefficients(a), integer_coefficients(b)))
    return g if g.is_zero() else _monic(g)


def _pencil_rows(p, reversed_chart=False):
    """lam*A + B (or A + mu*B) as rows of Polys in t."""
    if reversed_chart:
        return [[univariate([p.A[i, j], p.B[i, j]]) for j in range(p.n)] for i in range(p.n)]
    return [[univariate([p.B[i, j], p.A[i, j]]) for j in range(p.n)] for i in range(p.n)]


def smith_jordan_part(p):
    """Jordan blocks from the Smith forms of lam*A + B and of A + mu*B.

    Finite eigenvalues come from the invariant factors of lam*A + B, the
    eigenvalue visible only at lam = infinity from the power of mu in the
    invariant factors of A + mu*B.  Elementary divisors of a skew pencil pair
    up; odd multiplicity signals corrupted input.
    """
    divisors = {}
    for factor in smith_invariant_factors(_pencil_rows(p)):
        for irr, mult in factor_monic(integer_coefficients(factor)):
            key = ("finite", irr)
            divisors[(key, mult)] = divisors.get((key, mult), 0) + 1
    mu = Poly.variable("t", T)
    for factor in smith_invariant_factors(_pencil_rows(p, reversed_chart=True)):
        power = 0
        while not factor.is_zero() and (0,) not in factor.terms:
            factor = fraction_exact_div(factor, mu)
            power += 1
        if power:
            key = ("at_lam_infinity",)
            divisors[(key, power)] = divisors.get((key, power), 0) + 1
    blocks = []
    for (key, mult), count in sorted(divisors.items(),
                                     key=lambda kv: (kv[0][1], str(kv[0][0]))):
        if count % 2 != 0:
            raise NotSkewCanonical(
                f"elementary divisor {key} with exponent {mult} occurs {count} times")
        blocks.extend([Block("jordan", mult, key)] * (count // 2))
    return blocks


# -- Fraction Euclid and Yun ---------------------------------------------------
#
# The univariate gcd and squarefree split that biham.exactalg.upoly replaced
# with a primitive pseudo-remainder Euclid and Yun's algorithm on integer
# coefficients: the same recurrences run over the Fraction coefficients of
# Polys in t, with the Smith form's long division.


def fraction_ugcd(a, b):
    """Monic gcd by the Euclidean algorithm over the Fractions."""
    while not b.is_zero():
        a, b = b, _divmod(a, b)[1]
    return a if a.is_zero() else _monic(a)


def fraction_squarefree_decomposition(p):
    """Yun's algorithm over the Fractions: list of (monic squarefree factor, multiplicity)."""
    if p.is_constant():
        return []
    p = _monic(p)
    out = []
    g = fraction_ugcd(p, p.diff("t"))
    c = fraction_exact_div(p, g)
    d = fraction_exact_div(p.diff("t"), g) - c.diff("t")
    i = 1
    while not c.is_constant():
        f = fraction_ugcd(c, d)
        if not f.is_constant():
            out.append((f, i))
        c = fraction_exact_div(c, f)
        d = fraction_exact_div(d, f) - c.diff("t")
        i += 1
    return out


# -- primitive PRS gcd -------------------------------------------------------
#
# The gcd and the Fraction long division that biham.exactalg.poly replaced
# with shortcuts, the heuristic gcd GCDHEU and division on integers: the gcd
# of the contents in the main variable times the last nonzero primitive
# pseudo-remainder, normalized.


def _grlex(e):
    return (sum(e), e)


def fraction_exact_div(f, g):
    """f / g by long division over the Fraction coefficients, else None."""
    if f.is_zero():
        return f
    q_terms = {}
    r = f
    ge, gc = g.leading()
    while not r.is_zero():
        re, rc = r.leading()
        qe = tuple(a - b for a, b in zip(re, ge))
        if any(x < 0 for x in qe):
            return None
        qc = rc / gc
        q_terms[qe] = q_terms.get(qe, Fraction(0)) + qc
        r = r - Poly(f.variables, {qe: qc}) * g
        if not r.is_zero() and _grlex(r.leading()[0]) >= _grlex(re):
            return None
    return Poly(f.variables, q_terms)


def _view(f, i):
    """Variable index i's powers -> coefficient Polys (exponent i set to 0)."""
    buckets = {}
    for e, c in f.terms.items():
        buckets.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    return {d: Poly(f.variables, t) for d, t in buckets.items()}


def _prs_content(f, i):
    g = Poly.zero(f.variables)
    for coeff in _view(f, i).values():
        g = prs_gcd(g, coeff)
        if g.is_constant() and not g.is_zero():
            break
    return g


def _prs_pseudo_rem(a, b, i):
    bv = _view(b, i)
    db = max(bv)
    r = a
    while not r.is_zero():
        rv = _view(r, i)
        dr = max(rv)
        if dr < db:
            break
        shift = {e[:i] + (e[i] + dr - db,) + e[i + 1:]: c for e, c in rv[dr].terms.items()}
        r = r * bv[db] - b * Poly(a.variables, shift)
    return r


def prs_gcd(f, g):
    """Gcd over Q[variables] by primitive pseudo-remainder sequences."""
    if f.is_zero():
        return g.normalized()
    if g.is_zero():
        return f.normalized()
    if f.is_constant() or g.is_constant():
        return Poly.constant(1, f.variables)
    main = next(i for i in range(len(f.variables))
                if any(e[i] for e in f.terms) or any(e[i] for e in g.terms))
    name = f.variables[main]
    fa, fb = (f, g) if f.degree_in(name) >= g.degree_in(name) else (g, f)
    cont_a, cont_b = _prs_content(fa, main), _prs_content(fb, main)
    cont = prs_gcd(cont_a, cont_b)
    pa, pb = fraction_exact_div(fa, cont_a), fraction_exact_div(fb, cont_b)
    while not pb.is_zero():
        r = _prs_pseudo_rem(pa, pb, main)
        if r.is_zero():
            pa = pb
            break
        pa, pb = pb, fraction_exact_div(r, _prs_content(r, main))
    if not any(e[main] for e in pa.terms):
        return cont.normalized()
    return (cont * pa).normalized()


# -- model helpers the package does not need ------------------------------------
#
# Checks on the models that the analyser never runs: the run polynomials of
# an open-lattice point and its S-genericity, scaling equivalence of two
# normal forms, the floating-point RK4 Casimir of m_f, and the Blaschke
# curvature of a 3-web in a chart built by hand.  They stay here as test
# helpers so that the package itself is exact-only and decides flatness by
# one routine over the bracket tables.


class SingularODE(BihamError):
    """The characteristic ODE hit a zero of the denominator partial along the path."""


def run_polynomials(k: int, point) -> list:
    """Run polynomials of an open-lattice point: characteristic polynomials,
    Polys in the shift variable t, of the tridiagonal blocks cut at vanishing
    odd coordinates.  Their product is det(iota(v) + t I) when walls vanish."""
    point = [rat(x) for x in point]
    if len(point) != 2 * k + 1:
        raise ValidationError("point dimension mismatch")
    diag = [point[2 * i] for i in range(k + 1)]
    off = [point[2 * i + 1] for i in range(k)]
    runs = []
    start = 0
    for i, w in enumerate(off):
        if w == 0:
            runs.append((start, i + 1))
            start = i + 1
    runs.append((start, k + 1))
    t = Poly.variable("t", ("t",))
    return [_tridiagonal_det([t + a for a in diag[lo:hi]], off[lo:hi - 1]) for lo, hi in runs]


def s_generic(k: int, point) -> bool:
    """A point is S-generic when its run polynomials are pairwise coprime."""
    polys = run_polynomials(k, point)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not poly_gcd(polys[i], polys[j]).is_constant():
                return False
    return True


def scaling_equivalent(phi1: Poly, phi2: Poly, order: int) -> bool:
    """Whether phi1(Cx, Cy) = C phi2(x, y) through the given order for some
    nonzero rational C."""
    t1 = truncate(phi1, order).terms
    t2 = truncate(phi2, order).terms
    if set(t1) != set(t2):
        return False
    candidates = None
    for e in sorted(t1, key=lambda e: (sum(e), e)):
        m = sum(e) - 1
        ratio = t1[e] / t2[e]
        if m == 0:
            if ratio != 1:
                return False
            continue
        roots = {r for r in _rational_roots(ratio, m)}
        candidates = roots if candidates is None else candidates & roots
        if not candidates:
            return False
    if candidates is None:
        return True
    return bool(candidates)


def _rational_roots(value: Fraction, m: int) -> list:
    """Rational solutions C of C^m = value."""
    out = []
    for sign in (1, -1):
        if sign < 0 and m % 2 == 1 and value > 0:
            continue
        num = _int_nth_root(abs(value.numerator), m)
        den = _int_nth_root(abs(value.denominator), m)
        if num is None or den is None:
            continue
        cand = Fraction(sign * num, den)
        if cand ** m == value:
            out.append(cand)
    return out


def _int_nth_root(n: int, m: int):
    """Exact nonnegative integer m-th root of n, or None (pure-integer Newton)."""
    if n == 0:
        return 0
    if n == 1 or m == 1:
        return n if m == 1 else 1
    r = 1 << ((n.bit_length() + m - 1) // m)   # upper bound on the root
    while True:
        nxt = ((m - 1) * r + n // r ** (m - 1)) // m
        if nxt >= r:
            break
        r = nxt
    return r if r ** m == n else None


def mf_casimir_numeric(model: ModelSpec, lam, point, steps: int = 1000) -> float:
    """Approximate F_lam at (x0, y0) for an m_f model by integrating the
    characteristic ODE dPsi/dx = -(1/lam) (df/dx)/(df/dy) backward to x = 0
    with fixed-step RK4, in floating point: the independent numeric check of
    the exact m_f family.
    """
    lam = rat(lam)
    if lam == 0:
        raise ValidationError("lam must be nonzero")
    f = parse_poly(model.params["f"], ("x", "y"))
    fx = f.diff("x")
    fy = f.diff("y")
    x0 = float(rat(point[0]))
    y0 = float(rat(point[1]))
    inv_lam = -1.0 / float(lam)

    def slope(x, y):
        den = fy.eval((x, y))
        if den == 0 or not math.isfinite(den):
            raise SingularODE(f"df/dy vanishes on the path at x={x}")
        return inv_lam * fx.eval((x, y)) / den

    h = (0.0 - x0) / steps
    x, y = x0, y0
    for _ in range(steps):
        k1 = slope(x, y)
        k2 = slope(x + h / 2, y + h * k1 / 2)
        k3 = slope(x + h / 2, y + h * k2 / 2)
        k4 = slope(x + h, y + h * k3)
        y += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        x += h
        if not math.isfinite(y):
            raise SingularODE("integration diverged")
    return y


def web_curvature(f: Poly) -> RationalFunction:
    """Blaschke curvature d/dy (f_xx/f_x - f_xy/f_y) = d2/dxdy log(f_x/f_y) of f(x, y).

    The 3-web {x = c}, {y = c}, {f = c} is hexagonal exactly when this
    vanishes, that is, exactly when f is functionally additive,
    f = C(a(x) + b(y)) (Blaschke-Bol, Geometrie der Gewebe, 1938), so m_f is
    flat exactly when it is zero.  One exact zero test decides every order,
    where ``normal_form_phi`` sees only its truncation.
    """
    if len(f.variables) != 2:
        raise ValidationError("web curvature needs a two-variable function")
    xv, yv = f.variables
    if f.diff(xv).is_zero() or f.diff(yv).is_zero():
        raise ValidationError("both partial derivatives must be nonzero")
    return _blaschke(RationalFunction.from_poly(f), lambda g: g.diff(xv), lambda g: g.diff(yv))


def _blaschke(f: RationalFunction, dx, dy) -> RationalFunction:
    """d/dy (f_xx/f_x - f_xy/f_y) over a chart's two commuting derivations."""
    f_x, f_y = dx(f), dy(f)
    return dy(dx(f_x) / f_x - dy(f_x) / f_y)


def two_family_curvature(model: ModelSpec) -> RationalFunction:
    """The Blaschke curvature of a two-family model's web {x = c}, {y = c},
    {F_1 = c}, taken in the (L, y) chart through the chain rule."""
    f1, _, _, dx, dy = _two_family_chart(model.params["eta"], model.variables)
    return _blaschke(f1, dx, dy)


def two_family_flatness(model: ModelSpec) -> bool:
    """Whether a two-family model is flat: its chart curvature is zero.  By
    Blaschke-Bol (see ``web_curvature``) this holds exactly when eta is affine.
    """
    return two_family_curvature(model).is_zero()
