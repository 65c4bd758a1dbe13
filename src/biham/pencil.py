"""Classification of pairs of skew-symmetric pairings.

A pair (A, B) of skew matrices decomposes uniquely into odd-dimensional
Kronecker blocks K_{2k-1} (detected through the minimal indices of the
polynomial kernel of lam*A + B) and even-dimensional Jordan blocks J_{2k,mu}
(detected through paired elementary divisors).  All computations are exact
and deterministic.  The generic corank r is proved, not estimated: the
corank c of lam*A + B at any lam is at least r, the pencil has exactly r
minimal indices, so a staircase that finds c of them proves r = c.
``decompose`` eliminates lam*A + B at lam = ``PROBE``, then at 0, 2, ...,
n, and stops at the first sample that is proved this way; one is, because
a nonzero minor of size at most n vanishes at no more than n values.  A
caller that knows L polynomial kernel vectors with independent
coefficients (``BihamStructure.point_analysis``, from certified
lambda-Casimir families) passes their degrees, and at a sample with c = L
those degrees are the minimal indices, by Forney's minimal-basis theorem,
so no staircase runs there (``decompose`` gives the argument).  The
corank profile is then read off the block type (Kronecker-Jordan structure
theorem): every K block has corank 1 at every lam and every J block
corank 2 at the root of its divisor, so the profile is r everywhere plus 2
per J block at its root.

Every pencil is an integer pencil: a ``SkewPencil`` stores lam*A + B times
the lcm of its denominators, which has the same blocks.  Outside input
enters through ``SkewPencil.from_rows``, which checks shape and skewness
and clears denominators once; ``BihamStructure.pencil_at`` builds the pair
skew by construction.  ``decompose`` first divides each row of the pair
(A_i, B_i) by its positive content and then each column of the result by
its content (``_primitive_pair``), since one lcm over all entries leaves
large row contents on a sampled pencil, and every Bareiss minor would
multiply them up.  With D1 and D2 the positive diagonal matrices of those
divisions, D1 (lam*A + B) D2 is a strict equivalence: it keeps the rank at
every lam, the minimal indices, the elementary divisors, the nullities of
the staircase and block Toeplitz systems below (their block rows and
columns are scaled by D1 and D2) and the pivot columns of every
elimination.  It scales each principal minor by a positive constant, so
the last Bareiss pivot of one is still, in absolute value, a nonnegative
multiple of Pf^2, and the primitive gcd D_rho does not change.  The
reduced pair need not be skew; nothing below assumes it is.
``decompose`` hands that pair, r, the proved sample, its pivot columns and
|det| at each sample it eliminated down to ``jordan_part``; every matrix
below is built from those integers for the fraction-free kernel
``row_echelon_ff``, and ``_pencil_rows`` is the one builder of lam*A + B.

- Minimal indices need only the nullity of each staircase system S_d.
  Every S_d is the leading d + 1 column blocks of S_D with D = (n - c) // 2,
  which bounds every minimal index when c = r, and S_D is block-bidiagonal,
  so ``_block_pivots`` eliminates it one column block at a time: each step
  eliminates only the rows carried from the last step and the next block
  row, at most 2n rows and 2n columns, adds the next nullity, and the
  elimination stops at the c-th index.
- The Jordan part reads block sizes from the Weyr characteristic, the
  number of Jordan chains of length >= k at each divisor, which is the
  growth of the nullity of a block Toeplitz matrix less the r per step that
  the Kronecker blocks add; the Toeplitz matrix is block-bidiagonal too,
  and ``_block_pivots`` gives its nullity growth block by block, as for S_D.
  The finite divisors are the irreducible factors of D_rho (rho = n - r),
  the gcd of the principal rho-minors, each evaluated at integer points and
  interpolated in integers (``_interpolate``: s! times Newton's form has
  integer coefficients, and a determinant's divide exactly by s!).  The
  first minor is on the pivot columns of the proved sample, and the next is
  taken only while the gcd's degree is above the dimension left to finite
  Jordan blocks; for r = 0 the one minor is det(lam*A + B), whose values
  at the samples ``decompose`` has eliminated are its last pivots.  The
  gcd and the squarefree split run on primitive integer coefficient lists
  (``exactalg.upoly``); a monic ``Poly`` in t is built only for each
  divisor.  A divisor of degree d enters the Toeplitz matrix through its
  companion matrix, as the Kronecker product A (x) C_q + B (x) I_d, so no
  polynomial matrix is ever reduced.

When the Kronecker blocks already fill dimension n the Jordan part is empty
by the Kronecker structure theorem, and ``decompose`` skips it.
``PointAnalysis`` holds one point's evaluator, coranks and type from that
one pass; ``BihamStructure.point_analysis`` is its one constructor, and
every verdict at that point takes the record, so it reads a single
decomposition.  Points whose integer pencils are equal may share one
``PencilType``, since the type is a function of the pencil alone: the
degrees ``point_analysis`` may pass change how it is found, not what it is.
Any exception raised while decomposing carries the integer pencil as
``exc.pencil``, its ``SkewPencil.to_json()``.  ``corank_profile`` and
``generic_corank`` eliminate every sample and stay as the oracle that the
block-type profile is tested against; the per-d rational staircases, the
Gaussian corank profile and the Smith-form Jordan part are the test
oracles in ``tests/oracles.py``.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import factorial, gcd

from .errors import InternalInconsistency, NotSkewCanonical, ValidationError
from .exactalg import (Matrix, PointEvaluator, Poly, block_diag, clear_denominators,
                       factor_monic, is_json_int, load_json, primitive_gcd, rat, rat_str)
from .exactalg.kernels import row_echelon_ff

INF = "inf"
# the first parameter value at which decompose eliminates lam*A + B
PROBE = 1


@dataclass(frozen=True)
class SkewPencil:
    """lam*A + B for two skew-symmetric n x n matrices, held as integers.

    A and B hold Python ints: a rational pencil is stored times the lcm of
    its denominators, which has the same blocks.
    """

    n: int
    A: Matrix
    B: Matrix

    @classmethod
    def from_rows(cls, a_rows, b_rows) -> "SkewPencil":
        """The checked pencil of two rational matrices, over one common denominator.

        Non-square, mismatched or non-skew input is a ``ValidationError``;
        integer input comes out unchanged.
        """
        a = Matrix.from_rows(a_rows)
        b = Matrix.from_rows(b_rows)
        n = a.rows
        if (a.cols, b.rows, b.cols) != (n, n, n):
            raise ValidationError("pencil matrices must be n x n")
        if not a.is_skew() or not b.is_skew():
            raise ValidationError("pencil matrices must be skew-symmetric")
        ints, _ = clear_denominators(a.entries + b.entries)
        return cls(n, Matrix(n, n, tuple(ints[:n * n])), Matrix(n, n, tuple(ints[n * n:])))

    def congruence(self, p: Matrix) -> "SkewPencil":
        return SkewPencil.from_rows(self.A.congruence(p).to_rows(),
                                    self.B.congruence(p).to_rows())

    def direct_sum(self, other: "SkewPencil") -> "SkewPencil":
        return SkewPencil.from_rows(block_diag(self.A, other.A).to_rows(),
                                    block_diag(self.B, other.B).to_rows())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "A": [[rat_str(x) for x in self.A.row(i)] for i in range(self.n)],
            "B": [[rat_str(x) for x in self.B.row(i)] for i in range(self.n)],
        }

    @classmethod
    def from_json(cls, data) -> "SkewPencil":
        """Pencil from its JSON text or object; any malformed input is a ValidationError."""
        if isinstance(data, str):
            data = load_json(data)
        try:
            n = data["n"]
            rows = data["A"], data["B"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad pencil JSON: {exc}") from exc
        for name, value in zip("AB", rows):
            if not (isinstance(value, list) and all(isinstance(row, list) for row in value)):
                raise ValidationError(f"pencil field {name!r} is not a list of lists")
        pencil = cls.from_rows(*rows)
        if not is_json_int(n) or pencil.n != n:
            raise ValidationError(f"pencil dimension field {n!r} disagrees with the "
                                  f"{pencil.n} x {pencil.n} matrices")
        return pencil


@dataclass(frozen=True)
class Block:
    """One indecomposable summand.

    Kronecker blocks store k (dimension 2k-1).  Jordan blocks store k
    (dimension 2k*deg) and the irreducible divisor: either a monic
    irreducible polynomial in the pencil parameter, a ``Poly`` in the one
    variable t (finite eigenvalue), or
    the reversed-chart divisor for the eigenvalue at infinity of the
    parameter, which carries the classical label mu = 0.
    """

    kind: str                      # "kronecker" | "jordan"
    k: int
    divisor: tuple | None = None   # ("finite", monic irreducible Poly in t) | ("at_lam_infinity",)

    def dimension(self) -> int:
        if self.kind == "kronecker":
            return 2 * self.k - 1
        return 2 * self.k * self.divisor_degree()

    def divisor_degree(self) -> int:
        if self.divisor is None:
            return 0
        if self.divisor[0] == "at_lam_infinity":
            return 1
        return self.divisor[1].degree_in("t")

    def root(self):
        """The parameter value lam0 where a Jordan block's divisor vanishes.

        INF for the divisor at lam = infinity, the rational lam0 of a
        linear divisor lam - lam0, None for a divisor of higher degree.
        """
        if self.divisor[0] == "at_lam_infinity":
            return INF
        q = self.divisor[1]
        if q.degree_in("t") != 1:
            return None
        return -q.terms.get((0,), 0)

    def mu_label(self):
        """The classical eigenvalue label, defined for linear divisors only.

        A finite-chart divisor lam - lam0 carries mu = -1/lam0 (mu = inf
        when lam0 = 0); the divisor visible only in the reversed chart
        carries mu = 0.
        """
        if self.kind != "jordan":
            return None
        lam0 = self.root()
        if lam0 is None:
            return None
        if lam0 == INF:
            return Fraction(0)
        return INF if lam0 == 0 else -1 / lam0

    def label(self) -> str:
        if self.kind == "kronecker":
            return f"K{2 * self.k - 1}"
        mu = self.mu_label()
        if mu is not None:
            mu_s = INF if mu == INF else rat_str(mu)
            return f"J{self.dimension()}(mu={mu_s})"
        return f"J{self.dimension()}(divisor={self.divisor[1]})"

    def sort_key(self):
        if self.kind == "kronecker":
            return (0, self.k, "")
        return (1, self.k, str(self.divisor))


@dataclass(frozen=True)
class PencilType:
    """Multiset of blocks; the decomposition certificate.

    ``corank_profile`` is the corank of lam*A + B at lam = 0..n and of A
    (key "inf"), whose minimum is the generic corank r.  ``decompose``
    fills it once from the blocks: each K block has corank 1 at every lam
    and each J block corank 2 at the root of its divisor, so every entry is
    r plus 2 for each J block whose root is that key (an integer in 0..n,
    or infinity).  Equality compares the blocks only.  The label is built on
    its first read and kept, so a type read at many points sorts its blocks
    once, and ``decompose`` builds none.
    """

    n: int
    blocks: tuple
    corank_profile: dict | None = None

    def __post_init__(self):
        if sum(b.dimension() for b in self.blocks) != self.n:
            raise InternalInconsistency("block dimensions do not sum to n")

    def kronecker_blocks(self) -> tuple:
        return tuple(b for b in self.blocks if b.kind == "kronecker")

    def jordan_blocks(self) -> tuple:
        return tuple(b for b in self.blocks if b.kind == "jordan")

    def is_pure_kronecker(self) -> bool:
        return not self.jordan_blocks()

    def kronecker_dims(self) -> tuple:
        return tuple(sorted((2 * b.k - 1 for b in self.kronecker_blocks()), reverse=True))

    def label(self) -> str:
        return self._label

    @cached_property
    def _label(self) -> str:
        return "{" + ", ".join(b.label() for b in
                               sorted(self.blocks, key=Block.sort_key)) + "}"

    def __eq__(self, other):
        return (isinstance(other, PencilType) and self.n == other.n
                and sorted(self.blocks, key=Block.sort_key)
                == sorted(other.blocks, key=Block.sort_key))

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.blocks, key=Block.sort_key))))


def generic_corank(p: SkewPencil) -> int:
    """Minimal corank of lam*A + B over the projective parameter line.

    Deterministic: coranks at lam in {0, ..., n} plus the reversed pencil
    (the matrix A alone); a nonzero minor of size at most n vanishes at no
    more than n sample values, so the minimum over the samples is exact.
    It reads the integer rows of ``p`` and eliminates every sample; it
    serves the tests, the oracles and the ``perfbench`` trace.
    ``decompose`` proves r instead, from the minimal indices at one sample.
    """
    return min(corank_profile(p.A.to_rows(), p.B.to_rows()).values())


def _pencil_rows(a, b, lam) -> list:
    """Integer rows of lam*A + B, a fresh list for the in-place kernel."""
    return [[lam * x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _abs_det(rows, rank) -> int:
    """|det| of a square integer matrix that ``row_echelon_ff`` has just reduced.

    The last Bareiss pivot is the determinant up to the sign of the row
    swaps; a rank below the size means det = 0, and the empty matrix has
    det = 1.
    """
    if rank < len(rows):
        return 0
    return abs(rows[-1][-1]) if rows else 1


def _primitive_pair(a, b) -> tuple:
    """The integer pair D1 A D2, D1 B D2 with primitive rows, then primitive columns.

    Row i of both matrices is divided by the positive content of (A_i, B_i),
    then column j of the result by the content of its column in both; a
    zero row or column stays as it is.  D1 (lam*A + B) D2 with D1 and D2
    positive diagonal is a strict equivalence of pencils, so the pair keeps
    every rank, minimal index and elementary divisor.  A skew pair's column
    contents are its row contents, so a pair whose rows are all primitive
    comes back as it is, after one ``gcd`` per row.
    """
    contents = [gcd(*ra, *rb) or 1 for ra, rb in zip(a, b)]
    if all(g == 1 for g in contents):
        return a, b
    a = [[x // g for x in row] for row, g in zip(a, contents)]
    b = [[x // g for x in row] for row, g in zip(b, contents)]
    contents = [gcd(*col) or 1 for col in zip(*a, *b)]
    return ([[x // g for x, g in zip(row, contents)] for row in a],
            [[x // g for x, g in zip(row, contents)] for row in b])


def corank_profile(a, b) -> dict:
    """Corank at each sampled parameter value (including the reversed pencil).

    One elimination per sample: the oracle that the profile ``decompose``
    reads off the block type is tested against.
    """
    n = len(a)
    prof = {str(lam): n - row_echelon_ff(_pencil_rows(a, b, lam))[0] for lam in range(n + 1)}
    prof[INF] = n - row_echelon_ff([row[:] for row in a])[0]
    return prof


def _block_pivots(first, left, right, count):
    """Pivot columns per column block of a block-bidiagonal system, one block at a time.

    Block row 0 is ``first``; block row j + 1 is ``left`` on column block j
    and ``right`` on column block j + 1, and ``count`` column blocks are
    kept, so the last block row is ``left`` alone.  Column block j meets
    only block rows j and j + 1, so step j eliminates the residual rows
    carried from step j - 1 (padded with zeros) stacked on ``[left |
    right]``.  The pivot columns in the left half are yielded; the rows
    that vanish there span every row that the elimination of the whole
    system would leave zero on column blocks 0..j, so their right halves,
    divided by their content, are the next residual.  The rank of the
    leading k column blocks is the sum of the first k values, and every
    elimination has at most twice the rows and columns of one block.  This
    is Van Dooren's staircase reduction (LAA 27, 1979) in exact arithmetic,
    with fraction-free elimination in place of unitary compressions.
    """
    width = len(left[0])
    pad, tail = [0] * width, right
    residual = first
    for step in range(count):
        if step == count - 1:
            pad, tail = [], [[]] * len(left)
        rows = [row + pad for row in residual] + [l + t for l, t in zip(left, tail)]
        rank, pivot_cols = row_echelon_ff(rows)
        split = bisect_left(pivot_cols, width)
        yield split
        residual = []
        for row in rows[split:rank]:
            row = row[width:]
            content = gcd(*row)
            residual.append([x // content for x in row])


def minimal_indices(a, b, c: int) -> list:
    """Right minimal indices of the integer pencil, one per Kronecker block.

    Computed from the nullity sequence nu_d = n(d+1) - rank of the
    staircase systems S_d: the number of indices equal to e is
    (nu_e - nu_{e-1}) - (nu_{e-1} - nu_{e-2}).  S_d is the leading d + 1
    column blocks of S_D, which is block-bidiagonal (B, then A above B), so
    ``_block_pivots`` eliminates it one column block at a time and each step
    adds the next nu_d.  ``c`` is the corank of lam*A + B at some parameter
    value, at least the generic corank r, and the pencil has exactly r
    indices.  If c = r, the r Kronecker blocks K_{2e+1} fit in n, so no
    index exceeds D = (n - c) // 2, and the elimination stops at the step
    that brings the count to c.  If c > r, the count stays below c through
    D and the indices up to D are returned: the caller reads the short
    count as c > r.  A count above c is an inconsistency.
    """
    if c == 0:
        return []
    n = len(a)
    top = (n - c) // 2
    indices = []
    growth_prev = 0
    for d, pivots in enumerate(_block_pivots(b, a, b, top + 1)):
        growth = n - pivots          # nu_d - nu_{d-1}
        indices += [d] * (growth - growth_prev)
        growth_prev = growth
        if len(indices) >= c:
            break
    if len(indices) > c:
        raise InternalInconsistency(
            f"found {len(indices)} minimal indices for corank {c}")
    return indices


def _weyr_characteristic(diag, above, depth, r, degree) -> list:
    """Chain counts w_1..w_depth of one divisor, one column block at a time.

    T_k is the k x k block upper-bidiagonal matrix with ``diag`` on the
    diagonal and ``above`` on the superdiagonal (integer rows, m x m); its
    kernel holds the Jordan chains of length at most k.  T_k is the leading
    k column blocks of T_depth, so step k of ``_block_pivots`` gives
    nullity(T_k) - nullity(T_{k-1}) = m - (pivots in block k).  Each of the
    r Kronecker blocks adds ``degree`` to the nullity per step, each chain
    of length >= k adds ``degree`` at step k, so w_k is that growth divided
    by ``degree``, less r.
    """
    m = len(diag)
    weyr = []
    nu_prev = 0
    for pivots in _block_pivots([], diag, above, depth):
        nu = nu_prev + m - pivots
        step, rest = divmod(nu - nu_prev, degree)
        if rest or step < r or (weyr and step - r > weyr[-1]):
            raise InternalInconsistency(
                f"Toeplitz nullities {nu_prev} -> {nu} do not fit a Weyr characteristic")
        weyr.append(step - r)
        nu_prev = nu
    return weyr


def _chain_blocks(weyr, key) -> list:
    """Blocks from a Weyr characteristic: w_s - w_{s+1} chains of length s.

    Chains of a skew pencil come in pairs, one pair per block J_{2s*deg};
    an odd count signals corrupted input.
    """
    blocks = []
    for s, (w, w_next) in enumerate(zip(weyr, weyr[1:] + [0]), start=1):
        count = w - w_next
        if count % 2 != 0:
            raise NotSkewCanonical(
                f"elementary divisor {key} with exponent {s} occurs {count} times")
        blocks.extend([Block("jordan", s, key)] * (count // 2))
    return blocks


def _interpolate(values) -> list:
    """Integer coefficients, low degree first, of the polynomial of degree <= s
    that takes ``values`` at lam = 0..s.

    Newton's form on these nodes is p = sum_k Delta^k / k! * lam (lam - 1)
    ... (lam - k + 1), with Delta^k the k-th forward difference at 0.  Every
    term of s! * p has integer coefficients, so s! * p is built in integers,
    nested from k = s down, and divided by s! at the end.  The values come
    from an integer determinant, a polynomial with integer coefficients, so
    that division is exact; a remainder is an ``InternalInconsistency``.
    """
    s = len(values) - 1
    deltas = []
    row = list(values)
    while row:
        deltas.append(row[0])
        row = [y - x for x, y in zip(row, row[1:])]
    scaled = []
    weight = 1                      # s! / k!
    for k in range(s, -1, -1):
        # scaled <- (lam - k) * scaled + s!/k! * Delta^k
        scaled = [hi - k * lo for hi, lo in zip([0] + scaled, scaled + [0])]
        scaled[0] += weight * deltas[k]
        weight *= k
    coeffs = []
    for c in scaled:
        q, rest = divmod(c, factorial(s))
        if rest:
            raise InternalInconsistency(
                "determinant values do not interpolate to an integer polynomial")
        coeffs.append(q)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _principal_minor(a, b, cols, known) -> list:
    """det of the principal submatrix of lam*A + B on ``cols``, as integer coefficients.

    Evaluated at lam = 0..len(cols) and interpolated in integers by
    ``_interpolate``: ``known`` maps a sample to the value already found
    there, and every other sample is eliminated.  A principal minor of a
    skew pencil is Pf^2 >= 0, and one of the content-reduced pair a positive
    multiple of Pf^2; either is the absolute value of the last Bareiss
    pivot, whatever rows were swapped.
    """
    sub_a = [[a[i][j] for j in cols] for i in cols]
    sub_b = [[b[i][j] for j in cols] for i in cols]
    values = []
    for lam in range(len(cols) + 1):
        value = known.get(lam)
        if value is None:
            rows = _pencil_rows(sub_a, sub_b, lam)
            value = _abs_det(rows, row_echelon_ff(rows)[0])
        values.append(value)
    return _interpolate(values)


def _principal_column_sets(a, b, lam, pivots):
    """Index sets of rank rho = n - r to take principal minors on, most promising first.

    A skew matrix of rank rho has a nonzero principal minor on every set of
    rho independent columns, so ``pivots``, the pivot columns of lam*A + B
    at a sample of rank rho, come first, then those found with the columns
    visited in each rotated order; every rho-subset follows, so the gcd of
    all principal minors is always reached.  For r = 0 the one set is every
    column.
    """
    n = len(a)
    first = tuple(pivots)
    yield first
    sample = _pencil_rows(a, b, lam)
    seen = {first}
    for shift in range(1, n):
        order = list(range(shift, n)) + list(range(shift))
        _, found = row_echelon_ff([[row[j] for j in order] for row in sample])
        cols = tuple(sorted(order[c] for c in found))
        if cols not in seen:
            seen.add(cols)
            yield cols
    yield from (cols for cols in combinations(range(n), len(first)) if cols not in seen)


def _companion_rows(q: Poly) -> tuple:
    """An integer multiple c*C_q of the companion matrix of the monic q, and c."""
    d = q.degree_in("t")
    coeffs, c = clear_denominators([q.terms.get((i,), 0) for i in range(d)])
    comp = [[c if i == j + 1 else 0 for j in range(d)] for i in range(d)]
    for i in range(d):
        comp[i][d - 1] = -coeffs[i]
    return comp, c


def jordan_part(a, b, r, lam, pivots, jordan_dim: int, dets) -> list:
    """Jordan blocks of the integer pencil as a sorted list of Block objects.

    ``r`` is the generic corank, ``lam`` a sample where lam*A + B has
    corank r, ``pivots`` its pivot columns there, ``jordan_dim`` the
    dimension left to the Jordan blocks once the Kronecker blocks are
    counted, and ``dets`` maps samples already eliminated to
    |det(lam*A + B)| there.

    Block sizes come from the Weyr characteristic: w_k, the number of
    Jordan chains of length >= k at a divisor, is the growth of the nullity
    of the block Toeplitz matrix of the pencil and its derivative there,
    less the r per step that the Kronecker blocks add.  The eigenvalue at
    lam = infinity is the eigenvalue 0 of the reversed pencil A + mu*B.
    The finite divisors are the irreducible factors of D_rho, the gcd of
    the rho x rho minors (rho = n - r).  For a skew pencil each minor on
    rows I and columns J is Pf_I * Pf_J, so D_rho is also the gcd of the
    principal minors Pf_I^2; on ``decompose``'s content-reduced pair each
    minor gains a positive constant factor, which the primitive gcd drops.
    The first minor is on ``pivots``, which is
    nonzero; the next is taken only while the gcd's degree is above the
    degree the finite Jordan blocks fill, at which point it is D_rho.  For
    r = 0 the only principal rho-minor is det(lam*A + B) itself, and it is
    eliminated only at the samples missing from ``dets``.  Minors, their
    gcd and its squarefree split stay on integer coefficient lists: the
    values are integer determinants, so the interpolation divides exactly,
    and the gcd is primitive, so every quotient of the split is exact in
    Z[lam] by Gauss's lemma.  A monic ``Poly`` in t is built only for each
    divisor that enters a ``Block``.  A divisor q of degree d is handled by
    substituting its companion matrix C_q for lam: lam*A + B becomes
    A (x) C_q + B (x) I_d, whose Toeplitz nullities are d times those at
    each root of q, so irrational divisors take the same integer path as
    rational ones.  Elementary divisors of a skew pencil pair up, so
    multiplicity 2 is one J_{2d} and needs no Toeplitz matrix; odd
    multiplicity signals corrupted input.
    """
    if jordan_dim == 0:
        return []
    n = len(a)
    column_sets = _principal_column_sets(a, b, lam, pivots)
    d_rho = _principal_minor(a, b, next(column_sets), dets if r == 0 else {})
    # D_rho divides every principal minor, and mu^(infinite degree) divides
    # it in the homogeneous chart, which bounds the chains at infinity
    blocks = []
    inf_degree = 0
    depth = min(jordan_dim, n - r - (len(d_rho) - 1)) // 2
    if depth:
        key = ("at_lam_infinity",)
        weyr = _weyr_characteristic(a, b, depth, r, 1)
        inf_degree = sum(weyr)
        blocks += _chain_blocks(weyr, key)
    finite_degree = jordan_dim - inf_degree
    while len(d_rho) - 1 > finite_degree:
        cols = next(column_sets, None)
        if cols is None:
            break
        d_rho = primitive_gcd(d_rho, _principal_minor(a, b, cols, {}))
    if len(d_rho) - 1 != finite_degree:
        raise InternalInconsistency(
            f"principal minors have a gcd of degree {len(d_rho) - 1}, "
            f"expected {finite_degree}")
    for q, mult in factor_monic(d_rho):
        key = ("finite", q)
        if mult == 2:
            # two paired elementary divisors q: one J_{2d}, no elimination needed
            weyr = [2]
        else:
            d = q.degree_in("t")
            comp, c = _companion_rows(q)
            diag = [[a[i][j] * comp[s][t] + (c * b[i][j] if s == t else 0)
                     for j in range(n) for t in range(d)]
                    for i in range(n) for s in range(d)]
            above = [[a[i][j] if s == t else 0 for j in range(n) for t in range(d)]
                     for i in range(n) for s in range(d)]
            weyr = _weyr_characteristic(diag, above, mult // 2, r, d)
            if sum(weyr) != mult:
                raise NotSkewCanonical(
                    f"elementary divisor {key}: chains of total length {sum(weyr)} "
                    f"cannot pair up to multiplicity {mult}")
        blocks += _chain_blocks(weyr, key)
    return sorted(blocks, key=lambda blk: (blk.k, str(blk.divisor)))


def decompose(p: SkewPencil, kernel_degrees=None) -> PencilType:
    """Full block decomposition with exact dimension bookkeeping.

    lam*A + B is eliminated at lam = ``PROBE``, then at 0, 2, ..., n, and
    the staircase runs at each sample with its corank c as the target, until
    it finds c minimal indices:
      c >= r at every lam, and the pencil has exactly r minimal indices;
      if the staircase finds c of them, then r >= c, so r = c.
    ``kernel_degrees`` are the degrees d_1..d_L of L polynomial kernel
    vectors F_l(lam) = sum_k lam^k v_{l,k} of lam*A + B whose coefficients
    v_{l,k}, sum(d_l + 1) vectors in all, are linearly independent.  At a
    sample with c = L the minimal indices are then sorted(d_l), and the
    staircase is skipped there:
      the lowest power of lam in a relation sum q_l F_l = 0 would give a
      relation among the v_{l,0}, so the F_l are independent over Q(lam)
      and r >= L; with c >= r, c = L gives r = L, and the F_l are a
      polynomial basis of the kernel;
      with G a minimal basis, of indices e_1..e_L, F = G Q for a
      polynomial Q, so every v_{l,k} lies in the span of the sum(e_i + 1)
      coefficients of G, and sum(d_l) <= sum(e_i);
      Forney's theorem (SIAM J. Control 13, 1975) gives e_(i) <= d_(i)
      once both are sorted, so e_(i) = d_(i) for every i.
    A sample with c > L runs the staircase as before; c < L, or degrees
    whose blocks K_{2d+1} overfill n, contradict the hypothesis and are an
    ``InternalInconsistency``.  Only ``BihamStructure.point_analysis``
    supplies the degrees, where four hypotheses hold: (1) the L
    lambda-Casimir families pass ``family_check``; (2) the point is no pole
    of the brackets or of a coefficient gradient, so each family's
    sum_k lam^k grad f_{l,k} there is such a kernel vector; (3) those
    gradients have rank sum(d_l + 1), ROADMAP item 5's w1 = sum(d_l + 1);
    (4) c = L, tested here at each sample.
    The reduced pair, r, the proved sample, its pivot columns and |det| at
    every sample eliminated (the last Bareiss pivot, or 0 below full rank)
    are handed to ``jordan_part``, which runs only when the Kronecker blocks
    leave part of dimension n to the Jordan blocks; for r = 0 it reads
    det(lam*A + B) there instead of eliminating those samples again.  The
    corank profile is then read off the blocks: r at every sample, plus 2
    for each J block at the root of its divisor.  Everything above reads the
    content-reduced pair of ``_primitive_pair``, D1 (lam*A + B) D2 with D1
    and D2 positive diagonal: a strict equivalence, so the ranks, pivot
    columns, minimal indices and elementary divisors are those of ``p``,
    and each principal minor is a positive multiple of its own.  Any
    exception raised while decomposing carries the original pencil as
    ``exc.pencil = p.to_json()``, so the failing pencil can become a test
    case as it stands.
    """
    a, b = _primitive_pair(p.A.to_rows(), p.B.to_rows())
    n = p.n
    dets = {}
    try:
        for lam in [PROBE] + [x for x in range(n + 1) if x != PROBE]:
            rows = _pencil_rows(a, b, lam)
            rank, pivots = row_echelon_ff(rows)
            dets[lam] = _abs_det(rows, rank)
            c = n - rank
            if kernel_degrees is not None and c < len(kernel_degrees):
                raise InternalInconsistency(
                    f"{len(kernel_degrees)} independent kernel vectors at corank {c}")
            if kernel_degrees is not None and c == len(kernel_degrees):
                indices = sorted(kernel_degrees)
            else:
                indices = minimal_indices(a, b, c)
            if len(indices) == c:
                break
        else:
            raise InternalInconsistency("no sample of lam*A + B proves the generic corank")
        filled = sum(2 * e + 1 for e in indices)
        if filled > n:
            raise InternalInconsistency(
                f"minimal indices {indices} fill dimension {filled} > {n}")
        jordan = jordan_part(a, b, c, lam, pivots, n - filled, dets) if filled != n else []
    except Exception as exc:
        exc.pencil = p.to_json()
        raise
    profile = dict.fromkeys([str(x) for x in range(n + 1)] + [INF], c)
    for blk in jordan:
        key = str(blk.root())
        if key in profile:
            profile[key] += 2
    kron = [Block("kronecker", e + 1) for e in indices]
    return PencilType(n, tuple(kron + jordan), profile)


@dataclass(frozen=True, eq=False)
class PointAnalysis:
    """One point's evaluator, coranks and block type, built once per sample point.

    ``BihamStructure.point_analysis`` builds it.  The criterion, the Lax
    check, the integrability verdict and the report all take it instead of
    coordinates, so none re-derives the pencil or its decomposition.
    ``evaluator`` is the point's ``PointEvaluator``, which evaluated the
    pencil and evaluates the gradient rows; ``ranks`` keeps each gradient
    rank by the set of functions (``BihamStructure.gradient_rank``), so
    functions shared by the families' test before ``decompose``, the
    criterion and integrability are evaluated and eliminated once.  The
    coranks are read from ``ptype``, which holds them once.
    """

    evaluator: PointEvaluator
    ptype: PencilType
    ranks: dict = field(default_factory=dict)

    @property
    def corank_profile(self) -> dict:
        return self.ptype.corank_profile

    @property
    def generic_corank(self) -> int:
        return min(self.ptype.corank_profile.values())


def action_dimension(t: PencilType) -> int:
    """(n + number of Kronecker blocks) / 2; the parity always works out."""
    r = len(t.kronecker_blocks())
    if (t.n + r) % 2 != 0:
        raise InternalInconsistency("n + r must be even for a valid pencil type")
    return (t.n + r) // 2


# -- constant pencils used throughout ------------------------------------------


def kronecker_rows(k: int) -> tuple:
    """The integer rows of the odd 2k-1 dimensional indecomposable pair.

    Basis w_0..w_{2k-2}; the only nonzero pairings are (w_{2l}, w_{2l+1})
    in the first pairing and (w_{2l+1}, w_{2l+2}) in the second, both 1.
    """
    n = 2 * k - 1
    a = [[0] * n for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    for l in range(k - 1):
        _pair(a, 2 * l, 2 * l + 1, 1)
        _pair(b, 2 * l + 1, 2 * l + 2, 1)
    return a, b


def kronecker_pencil(k: int) -> SkewPencil:
    """The pair of ``kronecker_rows``, the indecomposable K_{2k-1}."""
    return SkewPencil.from_rows(*kronecker_rows(k))


def _pair(rows, i, j, value):
    """Set the pairing (w_i, w_j) = value, and (w_j, w_i) = -value."""
    rows[i][j] = value
    rows[j][i] = -value


def jordan_rows(k: int, mu) -> tuple:
    """The rational rows of the 2k-dimensional pair built from a Jordan matrix.

    For finite mu the first matrix carries the Jordan block with eigenvalue
    mu and the second is the standard symplectic form; mu = "inf" swaps the
    roles, with the Jordan block at eigenvalue 0.
    """
    eigenvalue = 0 if mu == INF else rat(mu)
    jordan = _off_diag_skew([[eigenvalue if i == j else int(j == i + 1) for j in range(k)]
                             for i in range(k)])
    symplectic = _off_diag_skew([[int(i == j) for j in range(k)] for i in range(k)])
    return (symplectic, jordan) if mu == INF else (jordan, symplectic)


def jordan_pencil(k: int, mu) -> SkewPencil:
    """The pair of ``jordan_rows``, the indecomposable J_{2k} with eigenvalue mu."""
    return SkewPencil.from_rows(*jordan_rows(k, mu))


def _off_diag_skew(block) -> list:
    k = len(block)
    rows = [[0] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        for j in range(k):
            _pair(rows, i, k + j, block[i][j])
    return rows


def epsilon_adjacency_pencil(eps) -> SkewPencil:
    """The 6-dimensional adjacency example: basis w_0..w_4, W.

    Kronecker pairings (w_{2l}, w_{2l+1})_1 = 1 and (w_{2l+1}, w_{2l+2})_2 = 1
    for l in {0, 1}, plus (W, w_1) = (W, w_3) = eps placed in the first
    pairing.  eps != 0 gives {K3, K3}; eps = 0 degenerates to {K5, K1}.
    """
    eps = rat(eps)
    a, b = ([row + [0] for row in rows] + [[0] * 6] for rows in kronecker_rows(3))
    for idx in (1, 3):
        _pair(a, 5, idx, eps)
    return SkewPencil.from_rows(a, b)
