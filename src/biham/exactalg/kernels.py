"""The fraction-free elimination kernel.

Rational linear algebra in this package clears denominators row by row and
then runs Bareiss (one-step fraction-free) elimination on plain Python
integers.  All divisions below are exact, so no rounding and no rational
normalization costs appear in the inner loop.  This is the package's only
elimination kernel; ``BACKEND`` names it in benchmark records.
"""

BACKEND = "pure"


def row_echelon_ff(m):
    """Reduce an integer matrix (list of row lists, modified in place) to
    row echelon form by fraction-free elimination.

    Returns ``(rank, pivot_cols)``.  Rows below a pivot keep integer entries
    because each 2x2 cross-multiplication step is exactly divisible by the
    previous pivot.
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

