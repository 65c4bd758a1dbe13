"""The fraction-free elimination kernel.

Rational linear algebra in this package clears denominators row by row and
then runs Bareiss (one-step fraction-free) elimination on plain Python
integers.  All divisions below are exact, so no rounding and no rational
normalization costs appear in the inner loop.  This is the package's only
elimination kernel; ``BACKEND`` names it in benchmark records.

Rows are scaled lazily.  Bareiss step k, with pivot p_k and p_0 = 1,
replaces each row x below the pivot row y by (x*p_k - t*y) / p_{k-1},
where t is x's entry in the pivot column (Math. Comp. 22, 1968).  When
t = 0 that is x*p_k / p_{k-1}, a pure rescaling, and a run of such steps
from step m + 1 to step k telescopes to x*p_k / p_m.  So a row with a zero
in the pivot column is skipped, and each row i records in ``level[i]`` the
pivot p_m it was last brought up to (1 before any step): its entries times
p_k / level[i] are the eager entries after step k, which are integers
(minors of the input), so the division is exact.  A row updated at step
k + 1 becomes (x*p_{k+1} - t*y) / level[i], the eager update of its
caught-up entries, and its level becomes p_{k+1}.  The pivot search
compares the caught-up values, and the pivot row is caught up before it is
used, so the rank, the pivot columns and the reduced matrix are the eager
ones: pivot rows are current and the rows past the rank are zero.
"""

BACKEND = "pure"


def row_echelon_ff(m):
    """Reduce an integer matrix (list of row lists, modified in place) to
    row echelon form by fraction-free elimination.

    Returns ``(rank, pivot_cols)``.  Rows below a pivot keep integer entries
    because each 2x2 cross-multiplication step is exactly divisible by the
    pivot the row was last brought up to.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivot_cols = []
    level = [1] * n_rows
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
                if level[i] != prev:
                    v = v * prev // level[i]
                a = -v if v < 0 else v
                if best < 0 or a < best_abs:
                    best = i
                    best_abs = a
        if best < 0:
            continue
        if best != r:
            m[r], m[best] = m[best], m[r]
            level[r], level[best] = level[best], level[r]
        row_r = m[r]
        lev = level[r]
        if lev != prev:
            for j in range(c, n_cols):
                row_r[j] = row_r[j] * prev // lev
        piv = row_r[c]
        rest = range(c + 1, n_cols)
        for i in range(r + 1, n_rows):
            row_i = m[i]
            t = row_i[c]
            if t == 0:
                continue
            row_i[c] = 0
            lev = level[i]
            if lev == 1:
                for j in rest:
                    row_i[j] = row_i[j] * piv - t * row_r[j]
            else:
                for j in rest:
                    row_i[j] = (row_i[j] * piv - t * row_r[j]) // lev
            level[i] = piv
        prev = piv
        pivot_cols.append(c)
        r += 1
    return r, pivot_cols
