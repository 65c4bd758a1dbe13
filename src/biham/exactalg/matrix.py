"""Dense matrices over exact rationals.

Construction is cheap and immutable.  ``clear_denominators`` is the one
routine that turns rationals into integers over a common denominator: rank
and nullspace apply it row by row and hand the integer rows to the
fraction-free elimination kernel, a product multiplies the integer
numerators over each factor's common denominator, and each pencil is
scaled with it once, when it is built, so a pencil's matrices hold ints.
No rational arithmetic happens inside an O(n^3) loop.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from ..errors import ValidationError
from .kernels import row_echelon_ff
from .rational import rat


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple  # row-major Fractions or ints, len == rows * cols

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        """The matrix of equal-length rows: ints are kept as they are, any
        other entry goes through ``rat`` (so a bool is refused)."""
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if n else 0
        if any(len(r) != m for r in rows):
            raise ValidationError("ragged rows")
        return cls(n, m, tuple(x if type(x) is int else rat(x) for r in rows for x in r))

    @classmethod
    def zero(cls, rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        a, a_scale = clear_denominators(self.entries)
        b, b_scale = clear_denominators(other.entries)
        scale = a_scale * b_scale
        columns = [b[j::other.cols] for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            ri = a[i * self.cols:(i + 1) * self.cols]
            out.extend(Fraction(sum(map(mul, ri, col)), scale) for col in columns)
        return Matrix(self.rows, other.cols, tuple(out))

    def apply(self, vec):
        """Matrix times column vector (tuple of rationals)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum((self.row(i)[k] * vec[k] for k in range(self.cols)), Fraction(0))
                     for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def is_skew(self) -> bool:
        if self.rows != self.cols:
            return False
        e, n = self.entries, self.rows
        return all(e[i * n + j] == -e[j * n + i] for i in range(n) for j in range(i, n))

    def congruence(self, p: "Matrix") -> "Matrix":
        """p^T @ self @ p (change of basis for a bilinear pairing)."""
        return p.transpose() @ self @ p

    def rank(self) -> int:
        """Rank over Q: for ``PoissonStructure.corank_at``, the oracles and the trace."""
        if self.rows == 0 or self.cols == 0:
            return 0
        rank, _ = row_echelon_ff([clear_denominators(self.row(i))[0]
                                  for i in range(self.rows)])
        return rank

    def nullspace(self) -> list:
        """Basis of the right null space, as tuples of Fractions.

        Each basis vector has one free coordinate set to 1 and is scaled to
        coprime integers for readability; ``self.apply(v) == 0`` exactly.
        It serves the staircase oracle and the ``perfbench`` trace only.
        """
        if self.cols == 0:
            return []
        if self.rows == 0:
            basis = []
            for f in range(self.cols):
                v = [Fraction(0)] * self.cols
                v[f] = Fraction(1)
                basis.append(tuple(v))
            return basis
        m = [clear_denominators(self.row(i))[0] for i in range(self.rows)]
        rank, pivot_cols = row_echelon_ff(m)
        pivot_set = set(pivot_cols)
        free_cols = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free_cols:
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for r in range(rank - 1, -1, -1):
                pc = pivot_cols[r]
                s = sum((Fraction(m[r][j]) * v[j] for j in range(pc + 1, self.cols)), Fraction(0))
                v[pc] = -s / m[r][pc]
            ints, _ = clear_denominators(v)
            g = gcd(*ints)
            basis.append(tuple(Fraction(x // g) for x in ints))
        return basis

    def __str__(self):
        return "\n".join("[" + ", ".join(str(x) for x in self.row(i)) + "]"
                         for i in range(self.rows))


def clear_denominators(values) -> tuple:
    """The rationals times the lcm of all their denominators, as ints, and that lcm."""
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    n, m = a.rows + b.rows, a.cols + b.cols
    ent = []
    for i in range(n):
        for j in range(m):
            if i < a.rows and j < a.cols:
                ent.append(a[i, j])
            elif i >= a.rows and j >= a.cols:
                ent.append(b[i - a.rows, j - a.cols])
            else:
                ent.append(Fraction(0))
    return Matrix(n, m, tuple(ent))
