"""Property-based tests over the exact kernels."""

import functools
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from biham.casimir import family_check
from biham.cli import resolve_target
from biham.errors import PoleAtPoint
from biham.exactalg import (Matrix, PointEvaluator, Poly, RationalFunction, RowForm,
                            clear_denominators, parse_poly, parse_rational, poly_gcd, exact_div,
                            squarefree_decomposition)
from biham.exactalg.kernels import row_echelon_ff
from biham.models import open_toda
from biham.pencil import (Block, PencilType, SkewPencil, _block_pivots, _interpolate,
                          _principal_minor, corank_profile, decompose, epsilon_adjacency_pencil,
                          generic_corank, jordan_part,
                          jordan_pencil, kronecker_pencil)

from oracles import (T, convolution_nullity, eager_row_echelon_ff,
                     fraction_squarefree_decomposition, fraction_ugcd, gauss_corank_profile,
                     gauss_det, generic_sample, integer_coefficients, integer_rows, monic_gcd,
                     schoolbook_matrix_product, smith_jordan_part, univariate)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def matrices(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = draw(st.lists(rationals, min_size=rows * cols, max_size=rows * cols))
    return Matrix(rows, cols, tuple(Fraction(e) for e in entries))


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_transpose_invariant(m):
    assert m.rank() == m.transpose().rank()


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_nullspace_dimension_and_exactness(m):
    basis = m.nullspace()
    assert len(basis) == m.cols - m.rank()
    for v in basis:
        assert all(x == 0 for x in m.apply(v))


@st.composite
def integer_matrices(draw, max_dim=12):
    """Integer rows for the kernel: sparse or dense, entries up to 3 or 10^12,
    and some rows replaced by multiples of others, so the rank falls short."""
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    bound = draw(st.sampled_from([3, 10 ** 12]))
    entry = st.integers(-bound, bound)
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)
    m = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows:
        index = st.integers(0, rows - 1)
        for target, source, factor in draw(st.lists(
                st.tuples(index, index, st.integers(-3, 3)), max_size=rows)):
            m[target] = [factor * x for x in m[source]]
    return m


def _kernels_agree(rows) -> int:
    """The rank, once both kernels agree on it, on the pivots and on the rows left."""
    lazy, eager = [row[:] for row in rows], [row[:] for row in rows]
    rank, pivot_cols = row_echelon_ff(lazy)
    assert (rank, pivot_cols) == eager_row_echelon_ff(eager)
    assert lazy == eager
    return rank


@given(integer_matrices())
@settings(max_examples=300, deadline=None)
def test_lazy_kernel_matches_the_eager_oracle(rows):
    # same rank and pivot columns, and the same rows left in place: pivot
    # rows caught up, rows past the rank zero
    rank = _kernels_agree(rows)
    event("full rank" if rank == min(len(rows), len(rows[0]) if rows else 0)
          else "rank deficient")


def test_lazy_kernel_compares_caught_up_signed_values():
    # at the last column row 2 stands at level -3 and row 3 at level 1 with
    # prev = -9: caught up they are 9 and -27, so row 2 is the pivot; scaling
    # |v| by the negative prev/level would pick row 3
    _kernels_agree([[0, -3, 0, 1], [0, 0, 3, -3], [0, -3, 0, 0], [0, 0, 0, 3]])


@st.composite
def product_pairs(draw, max_dim=4):
    """Two matrices that multiply, any dimension zero included, rational entries."""
    rows, inner, cols = (draw(st.integers(0, max_dim)) for _ in range(3))
    entries = st.fractions(min_value=-5, max_value=5, max_denominator=6)

    def matrix(r, c):
        return Matrix(r, c, tuple(draw(st.lists(entries, min_size=r * c, max_size=r * c))))

    return matrix(rows, inner), matrix(inner, cols)


@given(product_pairs())
@settings(max_examples=80, deadline=None)
def test_matmul_matches_schoolbook_matrix_product(pair):
    a, b = pair
    assert (a @ b).to_rows() == schoolbook_matrix_product(a, b)


V = ("x", "y")


@st.composite
def polys(draw, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        e = (draw(st.integers(0, max_exp)), draw(st.integers(0, max_exp)))
        terms[e] = draw(rationals)
    return Poly(V, terms)


@given(polys(), polys(), polys())
@settings(max_examples=50, deadline=None)
def test_poly_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - a).is_zero()


XYZ = ("x", "y", "z")
coordinates = st.one_of(st.just(Fraction(0)),
                        st.fractions(min_value=-3, max_value=3, max_denominator=7))


@st.composite
def sparse_polys(draw, max_terms=4, max_exp=3):
    """Sparse polynomials in three variables; the zero polynomial and constants included."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[tuple(draw(st.integers(0, max_exp)) for _ in XYZ)] = draw(rationals)
    return Poly(XYZ, terms)


@given(sparse_polys(), sparse_polys(), st.tuples(coordinates, coordinates, coordinates),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_point_evaluator_matches_fraction_eval(num, den, point, on_pole):
    # one rational function as a one-entry row against RationalFunction.eval,
    # the Fraction oracle; on_pole moves the denominator's zero locus through the point
    if on_pole:
        den = den - den.eval(point) + Poly.variable("x", XYZ) - point[0]
    assume(not den.is_zero())
    f = RationalFunction(num, den)
    form = RowForm([f])
    evaluator = PointEvaluator(point)
    try:
        expected = f.eval(point)
    except PoleAtPoint as exc:
        event("pole")
        with pytest.raises(PoleAtPoint) as caught:
            evaluator.row(form)
        assert str(caught.value) == str(exc)
        return
    (got,), scale = evaluator.row(form)
    assert type(got) is int and Fraction(got, scale) == expected
    assert (got, scale) == (expected.numerator, expected.denominator)
    # a second value at the same point reads the grown power tables
    assert evaluator.row(form) == ([got], scale)


@st.composite
def row_functions(draw, max_len=5):
    """Polynomial and rational functions in x, y, z; zero functions and constants included."""
    functions = []
    for _ in range(draw(st.integers(0, max_len))):
        num, den = draw(sparse_polys()), draw(sparse_polys())
        if draw(st.booleans()) or den.is_zero():
            functions.append(RationalFunction.from_poly(num))
        else:
            functions.append(RationalFunction(num, den))
    return functions


integer_points = st.tuples(*[st.integers(-3, 3).map(Fraction)] * 3)
rational_points = st.tuples(coordinates, coordinates, coordinates)


def _pole_row(functions, point, poles):
    """The row with entry j's denominator replaced by one that vanishes at the point,
    distinct for each j in poles, so that the pole message names the entry."""
    x, y = (Poly.variable(v, XYZ) for v in "xy")
    return [RationalFunction(f.num, x - point[0] + (j + 1) * (y - point[1])) if j in poles else f
            for j, f in enumerate(functions)]


@example([parse_rational("x/(x - 2)", XYZ), parse_rational("(y + 1)/(3*z - 1)", XYZ),
          RationalFunction.constant(0, XYZ)], (Fraction(1), Fraction(2), Fraction(0)), 1, [])
@example([parse_rational("x^2*y - 1/6", XYZ), parse_rational("x*z/4", XYZ),
          RationalFunction.constant(0, XYZ)], (Fraction(1, 2), Fraction(-2, 3), Fraction(0)), 2, [])
@example([parse_rational("x", XYZ), parse_rational("y/(z - 2)", XYZ)],
         (Fraction(1), Fraction(2), Fraction(3)), 0, [0, 1])
@given(row_functions(), st.one_of(integer_points, rational_points), st.integers(0, 5),
       st.lists(st.integers(0, 4), max_size=2))
@settings(max_examples=150, deadline=None)
def test_point_evaluator_row_matches_cleared_fraction_eval(functions, point, split, poles):
    # PointEvaluator.row against clear_denominators of RationalFunction.eval,
    # the Fraction oracle, for one row form, for the row split across two and
    # for one one-entry form per function
    functions = _pole_row(functions, point, set(poles))
    evaluator = PointEvaluator(point)
    one, two = RowForm(functions), (RowForm(functions[:split]), RowForm(functions[split:]))
    singles = [RowForm([f]) for f in functions]
    event("rational row" if one.dens else "polynomial row")
    event("D = 1" if all(c.denominator == 1 for c in point) else "D > 1")
    values = []
    for f in functions:
        try:
            values.append(f.eval(point))
        except PoleAtPoint as exc:
            # the first pole in row order is raised, with the entry's own message
            event("pole")
            assert str(exc) == f"denominator {f.den} vanishes at evaluation point"
            for forms in ((one,), two, singles):
                with pytest.raises(PoleAtPoint) as caught:
                    evaluator.row(*forms)
                assert str(caught.value) == str(exc)
            return
        if not f.is_polynomial() and f.den.eval(point) < 0:
            event("negative denominator")
    expected = clear_denominators(values)
    got = evaluator.row(one)
    assert got == expected and all(type(x) is int for x in got[0])
    assert evaluator.row(*two) == expected
    assert evaluator.row(*singles) == expected
    # a second row at the same point reads the grown power tables
    assert evaluator.row(one) == expected


@given(polys(), polys())
@settings(max_examples=30, deadline=None)
def test_poly_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    if not a.is_zero():
        assert exact_div(a, g) is not None
    if not b.is_zero():
        assert exact_div(b, g) is not None


@st.composite
def factored_upolys(draw):
    """A rational content times a product of integer factors of degree 0-2, each to a power 1-4."""
    content = draw(st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool))
    p = Poly.constant(content, T)
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3))
        factor = univariate(coeffs)
        if not factor.is_zero():
            p = p * factor ** draw(st.integers(1, 4))
    return p


@given(factored_upolys(), factored_upolys(), factored_upolys())
@settings(max_examples=60, deadline=None)
def test_integer_gcd_and_yun_match_the_fraction_oracle(p, q, shared):
    a, b = p * shared, q * shared
    for f in (p, a):
        assert (squarefree_decomposition(integer_coefficients(f))
                == fraction_squarefree_decomposition(f))
    assert monic_gcd(a, b) == fraction_ugcd(a, b)
    assert monic_gcd(a, Poly.zero(T)) == fraction_ugcd(a, Poly.zero(T))


@given(polys())
@settings(max_examples=40, deadline=None)
def test_poly_str_reparses(p):
    assert parse_poly(str(p), V) == p


CATALOG = [
    kronecker_pencil(2), kronecker_pencil(3),
    jordan_pencil(1, 2), jordan_pencil(2, "inf"),
    kronecker_pencil(2).direct_sum(jordan_pencil(1, 0)),
    epsilon_adjacency_pencil(1),
]


@st.composite
def invertible_change(draw, n, entries=st.integers(-2, 2),
                      diagonal=st.sampled_from([1, -1, 2, 3])):
    # unit lower-triangular times upper-triangular with nonzero diagonal:
    # always invertible, no rejection loop
    lower = [[Fraction(1) if i == j else
              (Fraction(draw(entries)) if i > j else Fraction(0))
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(draw(diagonal)) if i == j else
              (Fraction(draw(entries)) if i < j else Fraction(0))
              for j in range(n)] for i in range(n)]
    return Matrix.from_rows(lower) @ Matrix.from_rows(upper)


def rational_change(n):
    """An invertible change whose (0, 0) entry, the first upper pivot, is never an integer."""
    return invertible_change(
        n, entries=st.fractions(min_value=-2, max_value=2, max_denominator=3),
        diagonal=st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)]))


@given(st.integers(0, len(CATALOG) - 1), st.data())
@settings(max_examples=25, deadline=None)
def test_decompose_congruence_invariant(idx, data):
    pencil = CATALOG[idx]
    p = data.draw(invertible_change(pencil.n))
    assert decompose(pencil.congruence(p)) == decompose(pencil)


@given(st.integers(0, len(CATALOG) - 1), st.data())
@settings(max_examples=20, deadline=None)
def test_generic_corank_congruence_invariant(idx, data):
    pencil = CATALOG[idx]
    p = data.draw(invertible_change(pencil.n))
    assert generic_corank(pencil.congruence(p)) == generic_corank(pencil)


def slow_decompose(p):
    """The exact path the rank-only decomposition replaced, kept as its oracle.

    Nullities come from kernel bases solved one rational staircase at a
    time, the generic corank from plain Gaussian elimination, and the Jordan
    part always comes from the Smith form.
    """
    r = min(gauss_corank_profile(p).values())
    indices, nu_prev2, nu_prev = [], 0, 0
    for d in range(p.n + 1):
        if len(indices) == r:
            break
        nu = len(convolution_nullity(p, d))
        indices += [d] * ((nu - nu_prev) - (nu_prev - nu_prev2))
        nu_prev2, nu_prev = nu_prev, nu
    kron = [Block("kronecker", e + 1) for e in indices]
    return PencilType(p.n, tuple(kron + smith_jordan_part(p)))


# the realified pair of test_irreducible_quadratic_divisor: divisor lam^2 + 1
QUADRATIC_PAIR = SkewPencil.from_rows(
    [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
    [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])

SOUP_BLOCKS = [
    kronecker_pencil(1), kronecker_pencil(2), kronecker_pencil(3),
    jordan_pencil(1, 0), jordan_pencil(1, 2), jordan_pencil(1, "inf"),
    jordan_pencil(1, Fraction(-1, 2)), jordan_pencil(2, 2), jordan_pencil(2, "inf"),
    QUADRATIC_PAIR, jordan_pencil(1, -3), jordan_pencil(3, 2), jordan_pencil(2, 0),
]


@st.composite
def block_soups(draw, max_dim=8, blocks=SOUP_BLOCKS):
    """A direct sum of ``blocks``, at most max_dim in total."""
    parts = draw(st.lists(st.sampled_from(blocks), min_size=1, max_size=4))
    soup = parts[0]
    for part in parts[1:]:
        if soup.n + part.n <= max_dim:
            soup = soup.direct_sum(part)
    return soup


@given(block_soups(), st.data())
@settings(max_examples=30, deadline=None)
def test_decompose_matches_slow_oracle_on_block_soups(soup, data):
    expected = slow_decompose(soup)
    for change in (invertible_change(soup.n), rational_change(soup.n)):
        congruent = soup.congruence(data.draw(change))
        a, b = integer_rows(congruent)
        profile = corank_profile(a, b)
        assert profile == gauss_corank_profile(congruent)
        if min(profile.values()) == 0:
            # the one minor jordan_part takes for r = 0 interpolates det(lam*A + B)
            dets = [int(abs(gauss_det([[lam * x + y for x, y in zip(ra, rb)]
                                        for ra, rb in zip(a, b)])))
                    for lam in range(congruent.n + 1)]
            assert _interpolate(dets) == _principal_minor(a, b, range(congruent.n), {})
        assert slow_decompose(congruent) == expected
        assert decompose(congruent) == expected
        assert decompose(congruent).label() == expected.label()


# Kronecker blocks most of all, so that many soups are pure Kronecker, and
# Jordan blocks at the probe lam = 1 (mu = -1) and off it, so that decompose
# proves r at the probe and after it
PROFILE_SOUP_BLOCKS = [
    kronecker_pencil(1), kronecker_pencil(2), kronecker_pencil(3), kronecker_pencil(4),
    jordan_pencil(1, -1), jordan_pencil(2, -1), jordan_pencil(1, 2), jordan_pencil(1, "inf"),
]


@given(block_soups(blocks=PROFILE_SOUP_BLOCKS), st.data())
@settings(max_examples=30, deadline=None)
def test_decompose_profile_matches_gauss_oracle_on_block_soups(soup, data):
    # the profile decompose reads off the block type is the Gaussian corank
    # at every sample, in the same key order
    for change in (invertible_change(soup.n), rational_change(soup.n)):
        congruent = soup.congruence(data.draw(change))
        t = decompose(congruent)
        event("pure Kronecker" if t.is_pure_kronecker() else "Jordan")
        expected = gauss_corank_profile(congruent)
        assert list(t.corank_profile.items()) == list(expected.items())


@given(block_soups(), st.data())
@settings(max_examples=30, deadline=None)
def test_jordan_part_matches_smith_oracle_on_block_soups(soup, data):
    for change in (invertible_change(soup.n), rational_change(soup.n)):
        congruent = soup.congruence(data.draw(change))
        expected = smith_jordan_part(congruent)
        a, b = integer_rows(congruent)
        jordan_dim = sum(blk.dimension() for blk in expected)
        assert jordan_part(a, b, *generic_sample(congruent), jordan_dim, {}) == expected


@given(block_soups(), st.data())
@settings(max_examples=30, deadline=None)
def test_staircase_nullities_match_convolution_oracle_on_block_soups(soup, data):
    # every running nullity of the block-by-block elimination, not only the
    # indices read off them, equals the rational staircase's kernel dimension
    for change in (invertible_change(soup.n), rational_change(soup.n)):
        congruent = soup.congruence(data.draw(change))
        n = congruent.n
        top = (n - min(gauss_corank_profile(congruent).values())) // 2
        a, b = integer_rows(congruent)
        nu = 0
        for d, pivots in enumerate(_block_pivots(b, a, b, top + 1)):
            nu += n - pivots
            assert nu == len(convolution_nullity(congruent, d))
        assert d == top


@st.composite
def positive_diagonal(draw, n):
    """D = diag(d_1..d_n) with 1 <= d_i <= 60, so that the rows and columns
    of D^T M D carry contents."""
    d = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n))
    return Matrix.from_rows([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])


@given(block_soups(), st.data())
@settings(max_examples=30, deadline=None)
def test_decompose_matches_the_oracles_under_positive_diagonal_congruence(soup, data):
    # decompose divides out row and column contents before eliminating; on
    # a congruent soup whose rows and columns carry contents it still gives
    # the soup's label, the Gaussian profile and the Smith-form Jordan part
    expected = slow_decompose(soup).label()
    congruent = soup.congruence(data.draw(invertible_change(soup.n)))
    scaled = congruent.congruence(data.draw(positive_diagonal(soup.n)))
    t = decompose(scaled)
    assert t.label() == expected
    assert list(t.corank_profile.items()) == list(gauss_corank_profile(scaled).items())
    assert list(t.jordan_blocks()) == smith_jordan_part(scaled)


FAMILY_SPECS = ["open_toda:k=2", "open_toda:k=3", "open_toda:k=4", "open_toda:k=5",
                "periodic_toda:k=3", "periodic_toda:k=4", "periodic_toda:k=5",
                "flat_kronecker:k=5", "sl2_shift:alpha=0;1;0", "sl2_shift:alpha=1;2;3",
                "m_f:f=x+y", "m_f:f=x^2*y+y^3"]


@functools.cache
def _family_model(spec):
    return resolve_target(spec)


@given(st.sampled_from(FAMILY_SPECS), st.data())
@settings(max_examples=80, deadline=None)
def test_family_proved_type_matches_the_staircase(spec, data):
    # point_analysis reads the minimal indices off the certified families
    # where their coefficient gradients are independent; the staircase of a
    # plain decompose stays the oracle, at generic and special points alike
    model = _family_model(spec)
    b = model.structure
    assert all(family_check(b, fam).ok for fam in model.families)
    point = data.draw(st.lists(st.one_of(st.integers(-6, 6), rationals),
                               min_size=model.dim, max_size=model.dim))
    try:
        pencil = b.pencil_at(point)
    except PoleAtPoint:
        assume(False)
    at = b.point_analysis(point, families=model.families)
    plain = decompose(pencil)
    assert at.ptype.label() == plain.label()
    assert at.corank_profile == plain.corank_profile
    full = sum(fam.degree + 1 for fam in model.families)
    event("indices from the families" if full in at.ranks.values() else "staircase")


def test_decompose_matches_slow_oracle_on_epsilon_adjacency():
    for eps, label in ((0, "{K1, K5}"), (1, "{K3, K3}")):
        p = epsilon_adjacency_pencil(eps)
        assert corank_profile(*integer_rows(p)) == gauss_corank_profile(p)
        assert decompose(p) == slow_decompose(p)
        assert decompose(p).label() == label


@given(polys(max_terms=2, max_exp=1), polys(max_terms=2, max_exp=1))
@settings(max_examples=25, deadline=None)
def test_toda_bracket_is_biderivation(f2, g2):
    s = open_toda(1).structure
    vs = s.variables
    # re-embed the two-variable polynomials into the Toda coordinates
    fa = Poly(vs, {(e[0], e[1], 0): c for e, c in f2.terms.items()})
    ga = Poly(vs, {(0, e[0], e[1]): c for e, c in g2.terms.items()})
    lhs = s.p2.bracket(fa, fa * ga)
    rhs = fa * s.p2.bracket(fa, ga) + ga * s.p2.bracket(fa, fa)
    assert (lhs - rhs).is_zero()
