"""Pencil classification: coranks, minimal indices, Jordan parts, decompose."""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest

import biham.pencil as pencil_module
from biham.casimir import LambdaFamily, family_check
from biham.errors import InternalInconsistency, NotSkewCanonical, ValidationError
from biham.exactalg import Matrix, Poly, RationalFunction
from biham.exactalg.smith import _monic
from biham.models import jordan_model, open_toda
from biham.pencil import (SkewPencil, _primitive_pair, action_dimension,
                          corank_profile, decompose, epsilon_adjacency_pencil,
                          generic_corank, jordan_part,
                          jordan_pencil, kronecker_pencil, minimal_indices)
from biham.sampling import model_inequations, sample_points

from oracles import (T, gauss_corank_profile, generic_sample, integer_rows, perm_det,
                     smith_jordan_part, univariate)


K3 = kronecker_pencil(2)
J22 = jordan_pencil(1, 2)


def _zero(n):
    return SkewPencil.from_rows([[0] * n] * n, [[0] * n] * n)


def _minimal_indices(p):
    return minimal_indices(*integer_rows(p), generic_corank(p))


def _jordan_part(p):
    # the integer pair, generic corank, a sample of that corank with its
    # pivot columns, and the Jordan dimension, as decompose hands them down
    a, b = integer_rows(p)
    r, lam, pivots = generic_sample(p)
    kron = minimal_indices(a, b, r)
    return jordan_part(a, b, r, lam, pivots, p.n - sum(2 * e + 1 for e in kron), {})


def test_pencil_validation():
    with pytest.raises(ValidationError):
        SkewPencil.from_rows([[0, 1], [1, 0]], [[0, 0], [0, 0]])


def test_generic_corank_examples():
    # the K3 pencil has a 1-dimensional null-space for every parameter value
    assert generic_corank(K3) == 1
    assert generic_corank(_zero(2)) == 2
    # J_{2,2}: det(lam*A + B) = (2 lam + 1)^2 is generically nonzero
    a, b = integer_rows(J22)
    det = perm_det([[3 * x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    assert det == (2 * 3 + 1) ** 2
    assert generic_corank(J22) == 0


def test_corank_profile_k3_constant_one():
    prof = corank_profile(*integer_rows(K3))
    assert set(prof.values()) == {1}


def test_minimal_indices_examples():
    assert _minimal_indices(K3) == [1]
    assert _minimal_indices(_zero(2)) == [0, 0]
    assert _minimal_indices(J22) == []
    assert _minimal_indices(K3.direct_sum(kronecker_pencil(1))) == [0, 1]
    # open Toda at a generic point: one odd block, kernel vector of degree k
    toda = open_toda(2).structure.pencil_at(tuple(Fraction(x) for x in (1, 1, 2, 1, 3)))
    assert _minimal_indices(toda) == [2]


def _count_eliminations(monkeypatch):
    """Record (rows, columns) of every elimination the pencil module runs."""
    calls = []
    kernel = pencil_module.row_echelon_ff

    def counting(rows):
        calls.append((len(rows), len(rows[0]) if rows else 0))
        return kernel(rows)

    monkeypatch.setattr(pencil_module, "row_echelon_ff", counting)
    return calls


def test_minimal_indices_eliminates_block_by_block(monkeypatch):
    # the staircase S_D is eliminated one column block at a time: at most
    # D + 1 eliminations, none with more than 2n rows or 2n columns
    model = open_toda(4)
    point = sample_points(model.dim, 1, 0, inequations=model_inequations(model))[0]
    p = model.structure.pencil_at(point)
    r = generic_corank(p)
    a, b = integer_rows(p)
    calls = _count_eliminations(monkeypatch)
    assert minimal_indices(a, b, r) == [4]
    # n = 9, r = 1: D = (n - r) // 2 = 4
    assert 1 <= len(calls) <= 4 + 1
    assert max(rows for rows, _ in calls) <= 2 * 9
    assert max(cols for _, cols in calls) <= 2 * 9


def _integer_congruence(p, seed):
    """p under a unit lower times unit upper triangular integer change."""
    rng = random.Random(seed)
    n = p.n
    lower = Matrix.from_rows([[1 if i == j else (rng.randint(-2, 2) if i > j else 0)
                               for j in range(n)] for i in range(n)])
    upper = Matrix.from_rows([[1 if i == j else (rng.randint(-2, 2) if i < j else 0)
                               for j in range(n)] for i in range(n)])
    return p.congruence(lower @ upper)


# K1 + J4(2) + J4(inf) + J2(0): n = 11, one minimal index 0, D = 5
MANY_JORDAN = (kronecker_pencil(1).direct_sum(jordan_pencil(2, 2))
               .direct_sum(jordan_pencil(2, "inf")).direct_sum(jordan_pencil(1, 0)))


def test_minimal_indices_stop_at_the_last_index(monkeypatch):
    # the r-th index is found at d = 0, so S_1..S_D are never eliminated
    p = _integer_congruence(MANY_JORDAN, 0)
    assert decompose(p).label() == "{K1, J2(mu=0), J4(mu=2), J4(mu=inf)}"
    a, b = integer_rows(p)
    calls = _count_eliminations(monkeypatch)
    assert minimal_indices(a, b, 1) == [0]
    # one elimination of column block 0: B stacked on [A | B]
    assert calls == [(2 * 11, 2 * 11)]
    # a count above r at the stopping step is still an inconsistency
    a, b = integer_rows(_integer_congruence(MANY_JORDAN.direct_sum(kronecker_pencil(1)), 1))
    with pytest.raises(InternalInconsistency, match="found 2 minimal indices"):
        minimal_indices(a, b, 1)


def _record_staircase_targets(monkeypatch, calls):
    """Record the corank target of every staircase run, and the eliminations before it."""
    targets = []
    staircase = pencil_module.minimal_indices

    def recording(a, b, c):
        targets.append((c, len(calls)))
        return staircase(a, b, c)

    monkeypatch.setattr(pencil_module, "minimal_indices", recording)
    return targets


def _sample_pencil(model):
    point = sample_points(model.dim, 1, 0, inequations=model_inequations(model))[0]
    return model.structure.pencil_at(point)


def test_open_toda_point_runs_one_elimination_before_the_staircase(monkeypatch):
    # at a pure-Kronecker point the staircase finds c indices at the probe's
    # corank c and they fill n, so the profile is proved, not eliminated
    p = _sample_pencil(open_toda(4))
    calls = _count_eliminations(monkeypatch)
    targets = _record_staircase_targets(monkeypatch, calls)
    t = decompose(p)
    assert t.label() == "{K9}"
    # n = 9: one 9 x 9 elimination, then the staircase with target 1 only
    assert targets == [(1, 1)]
    assert calls[0] == (9, 9)
    assert len(calls) <= 1 + 5
    expected = gauss_corank_profile(p)
    assert list(t.corank_profile.items()) == list(expected.items())


def test_dependent_family_gradients_fall_back_to_the_staircase(monkeypatch):
    # lam times open Toda's family, coefficients (0, f_0, ..., f_k), is
    # certified, but its zero coefficient makes its gradients dependent at
    # every point: point_analysis hands no degrees to decompose, and the
    # staircase gives the type
    model = open_toda(3)
    b = model.structure
    (fam,) = model.families
    shifted = LambdaFamily((fam.coeff(-1),) + fam.coeffs, "lam*F")
    assert family_check(b, shifted).ok
    point = sample_points(model.dim, 1, 0, inequations=model_inequations(model))[0]
    targets = _record_staircase_targets(monkeypatch, [])
    at = b.point_analysis(point, families=[shifted])
    assert list(at.ranks.values()) == [fam.degree + 1]
    assert [c for c, _ in targets] == [1]
    assert at.ptype.label() == "{K7}"
    assert at.ptype == decompose(b.pencil_at(point))


def test_unproved_families_leave_the_type_to_the_staircase():
    # (v0, v1, v2) is no lambda-Casimir family of open Toda k = 3: with no
    # stored certificate, and then with a failing one, point_analysis passes
    # no degrees, and each point's type is plain decompose's
    model = open_toda(3)
    b = model.structure
    fam = LambdaFamily(tuple(RationalFunction.from_poly(Poly.variable(v, b.variables))
                             for v in ("v0", "v1", "v2")), "coordinates")
    points = sample_points(model.dim, 20, 0, inequations=model_inequations(model))
    for proved in (False, True):
        if proved:
            assert not family_check(b, fam).ok
        for point in points:
            at = b.point_analysis(point, families=[fam])
            assert at.ptype == decompose(b.pencil_at(point)), point


@pytest.mark.parametrize("degrees", [[4], [1, 1]], ids=["overfill_n", "above_corank"])
def test_kernel_degrees_that_contradict_the_pencil_are_an_inconsistency(degrees):
    # open Toda k = 3 is {K7}, corank 1 at the probe: degree 4 would be K9,
    # and two independent kernel vectors need corank 2; either is a bug in
    # the caller, raised with the pencil attached
    p = _sample_pencil(open_toda(3))
    with pytest.raises(InternalInconsistency) as info:
        decompose(p, kernel_degrees=degrees)
    assert info.value.pencil == p.to_json()
    assert decompose(p, kernel_degrees=[3]).label() == "{K7}"


# J2 with its eigenvalue at the probe: lam0 = 1 is mu = -1/lam0 = -1
AT_PROBE = jordan_pencil(1, -1)


def _record_eliminations(monkeypatch):
    """Record a copy of every matrix the pencil module eliminates."""
    eliminated = []
    kernel = pencil_module.row_echelon_ff

    def recording(rows):
        eliminated.append([row[:] for row in rows])
        return kernel(rows)

    monkeypatch.setattr(pencil_module, "row_echelon_ff", recording)
    return eliminated


@pytest.mark.parametrize("p,label", [
    (K3.direct_sum(AT_PROBE), "{K3, J2(mu=-1)}"),
    (_integer_congruence(K3.direct_sum(AT_PROBE), 3), "{K3, J2(mu=-1)}"),
    (AT_PROBE, "{J2(mu=-1)}"),
    (_integer_congruence(AT_PROBE, 4), "{J2(mu=-1)}"),
], ids=["k3_j2", "k3_j2_congruent", "j2", "j2_congruent"])
def test_eigenvalue_at_the_probe_takes_the_fallback(monkeypatch, p, label):
    # the corank at the probe is above r, so the staircase stops short of
    # it; decompose falls back to the next sample, lam = 0, where the
    # staircase runs again at r, and the result is the oracles' label and
    # profile
    a, b = integer_rows(p)
    at_probe = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    expected = gauss_corank_profile(p)
    r = min(expected.values())
    assert expected["1"] > r and expected["0"] == r
    eliminated = _record_eliminations(monkeypatch)
    targets = _record_staircase_targets(monkeypatch, eliminated)
    t = decompose(p)
    assert t.label() == label
    assert list(t.corank_profile.items()) == list(expected.items())
    assert list(t.jordan_blocks()) == smith_jordan_part(p)
    assert [c for c, _ in targets] == [expected["1"], r]
    # lam = 1 is eliminated first and only once: for r = 0 the one principal
    # minor det(lam*A + B) reads its value there (0) off the failed probe
    assert eliminated.count(at_probe) == 1
    assert eliminated.index(at_probe) == 0


def test_jordan_point_probe_below_an_eigenvalue_keeps_its_indices(monkeypatch):
    # c = r at the probe and the indices leave room for J2(2): the staircase
    # does not run again, the Jordan part starts from the probe's pivot
    # columns, and no n x n matrix is eliminated twice
    p = K3.direct_sum(J22)
    eliminated = _record_eliminations(monkeypatch)
    targets = _record_staircase_targets(monkeypatch, eliminated)
    t = decompose(p)
    assert t.label() == "{K3, J2(mu=2)}"
    assert [c for c, _ in targets] == [1]
    assert list(t.corank_profile.items()) == list(gauss_corank_profile(p).items())
    full = [rows for rows in eliminated if len(rows) == p.n and len(rows[0]) == p.n]
    assert len(full) <= 2
    assert all(full.count(rows) == 1 for rows in full)


@pytest.mark.parametrize("mu", [2, -1, "inf"])
def test_jordan_model_point_runs_no_more_full_eliminations(monkeypatch, mu):
    # a Jordan point with r = 0 eliminates lam*A + B at the probe, and for
    # the one minor det(lam*A + B) at the other samples of lam = 0..n: each
    # sample once, n + 1 n x n eliminations in all.  With the eigenvalue at
    # the probe (mu = -1) the probe fails and lam = 0 proves r, and the
    # minor reads both values off those eliminations
    p = _sample_pencil(jordan_model(2, mu))
    n = p.n
    calls = _count_eliminations(monkeypatch)
    assert decompose(p).label() == f"{{J4(mu={mu})}}"
    assert calls.count((n, n)) == n + 1


ROOT_CASES = [
    (jordan_pencil(1, 1), "{J2(mu=1)}"),                          # root -1, below 0
    (kronecker_pencil(2).direct_sum(jordan_pencil(1, Fraction(-1, 7))),
     "{K3, J2(mu=-1/7)}"),                                       # root 7, above n = 5
    (SkewPencil.from_rows(                                        # divisor t^2 + 1
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]),
     "{J4(divisor=t^2 + 1)}"),
    (J22.direct_sum(J22), "{J2(mu=2), J2(mu=2)}"),                # two blocks, root -1/2
    (K3.direct_sum(AT_PROBE).direct_sum(AT_PROBE),
     "{K3, J2(mu=-1), J2(mu=-1)}"),                              # two blocks, root 1
    (K3.direct_sum(AT_PROBE).direct_sum(jordan_pencil(1, "inf")),
     "{K3, J2(mu=-1), J2(mu=inf)}"),                             # lam = 1 and 0 both fail
]


@pytest.mark.parametrize("p,label", ROOT_CASES + [
    (_integer_congruence(p, seed), label) for seed, (p, label) in enumerate(ROOT_CASES)
], ids=[f"{name}{suffix}" for suffix in ("", "_congruent") for name in (
    "root_below_0", "root_above_n", "irreducible_quadratic", "two_blocks_one_root",
    "two_blocks_at_the_probe", "probe_and_zero_fail")])
def test_profile_and_jordan_part_match_the_oracles_at_every_root(p, label):
    # the profile read off the blocks adds 2 per J block only where its root
    # is a sample (an integer in 0..n, or infinity); every other root, and
    # every divisor of degree 2, leaves the profile at r
    t = decompose(p)
    assert t.label() == label
    assert list(t.corank_profile.items()) == list(gauss_corank_profile(p).items())
    assert list(t.jordan_blocks()) == smith_jordan_part(p)


def test_decompose_scales_the_pencil_once(monkeypatch):
    # a pencil is scaled to integers and checked for skewness once, when it
    # is built: decompose reduces the integer rows without checking them, and
    # pencil_at writes a pair that is skew by construction, so neither checks
    # it again
    checked = []
    original = Matrix.is_skew

    def counting(m):
        checked.append(m)
        return original(m)

    p = jordan_pencil(2, "inf").direct_sum(kronecker_pencil(2)).direct_sum(jordan_pencil(1, 2))
    monkeypatch.setattr(Matrix, "is_skew", counting)
    assert decompose(p).label() == "{K3, J2(mu=2), J4(mu=inf)}"
    assert all(type(x) is int for x in p.A.entries + p.B.entries)
    model = open_toda(3)
    point = sample_points(model.dim, 1, 0, inequations=model_inequations(model))[0]
    assert model.structure.point_analysis(point).ptype.label() == "{K7}"
    assert checked == []


def _diagonal(entries):
    return Matrix.from_rows([[d if i == j else 0 for j in range(len(entries))]
                             for i, d in enumerate(entries)])


def _contents(a, b):
    """The content of each row, then of each column, of the pair (A, B)."""
    rows = [gcd(*ra, *rb) for ra, rb in zip(a, b)]
    return rows, [gcd(*ca, *cb) for ca, cb in zip(zip(*a), zip(*b))]


def test_primitive_pair_has_primitive_rows_and_columns():
    # the open_toda:k=4 pencil at its first sample point, and that pencil
    # under a positive diagonal congruence: every row and column has content 1
    p = _sample_pencil(open_toda(4))
    scaled = p.congruence(_diagonal([6, 35, 1, 22, 15, 4, 9, 55, 14]))
    for q in (p, scaled):
        a, b = _primitive_pair(*integer_rows(q))
        rows, cols = _contents(a, b)
        assert set(rows) == set(cols) == {1}
    # row 1 carries the content 45 (A = (-270, 0, 270, ...), B = (-135, 0, 405, 90, ...))
    assert _contents(*integer_rows(p))[0][1] == 45
    # a pair that is not skew: rows by 2 and 3, then column 1 by 3
    a, b = _primitive_pair([[2, 6], [3, 9]], [[0, 6], [3, 0]])
    assert (a, b) == ([[1, 1], [1, 1]], [[0, 1], [1, 0]])


def test_primitive_skew_pair_comes_back_after_one_gcd_per_row(monkeypatch):
    # a skew pair's column contents are its row contents: primitive rows
    # return the input lists themselves, and no column content is taken
    calls = []
    real_gcd = pencil_module.gcd

    def counting(*args):
        calls.append(len(args))
        return real_gcd(*args)

    a, b = integer_rows(MANY_JORDAN)
    monkeypatch.setattr(pencil_module, "gcd", counting)
    ra, rb = _primitive_pair(a, b)
    assert ra is a and rb is b
    assert calls == [2 * 11] * 11


def test_decompose_is_blind_to_a_positive_diagonal_congruence():
    # D (lam*A + B) D with D positive diagonal is strictly equivalent to
    # lam*A + B: the same blocks and the same corank profile
    p = _sample_pencil(open_toda(4))
    scaled = p.congruence(_diagonal([6, 35, 1, 22, 15, 4, 9, 55, 14]))
    assert scaled.A != p.A
    t, u = decompose(p), decompose(scaled)
    assert t == u and t.label() == u.label() == "{K9}"
    assert list(t.corank_profile.items()) == list(u.corank_profile.items())


def test_decompose_eliminates_the_content_reduced_pencil(monkeypatch):
    # at the first open_toda:k=4 sample point the pencil decompose eliminates
    # first has entries of at most 8 bits (12 before the reduction); the
    # largest entry any elimination input reaches, in the staircase, is 65
    # bits (58 before the reduction)
    p = _sample_pencil(open_toda(4))
    bits = []
    kernel = pencil_module.row_echelon_ff

    def measuring(rows):
        bits.append(max((abs(x).bit_length() for row in rows for x in row), default=0))
        return kernel(rows)

    monkeypatch.setattr(pencil_module, "row_echelon_ff", measuring)
    assert decompose(p).label() == "{K9}"
    assert bits[0] == 8
    assert max(bits) == 65


def test_jordan_part_examples():
    blocks = _jordan_part(J22)
    assert len(blocks) == 1
    b = blocks[0]
    assert b.k == 1 and b.dimension() == 2
    assert b.divisor == ("finite", univariate([Fraction(1, 2), 1]))
    assert b.mu_label() == 2
    assert _jordan_part(K3) == []


def test_jordan_part_runs_no_smith_form(monkeypatch):
    # the Jordan part comes from integer eliminations only: wrap the Smith
    # form wherever a biham module has bound it and count the calls
    from biham.exactalg import smith

    original = smith.smith_invariant_factors
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    for name, module in list(sys.modules.items()):
        if name.startswith("biham") and getattr(module, "smith_invariant_factors", None) is original:
            monkeypatch.setattr(module, "smith_invariant_factors", counting)
    base = jordan_pencil(3, 0)
    p = base.congruence(_random_congruence(random.Random(6), base.n))
    assert decompose(p).label() == "{J6(mu=0)}"
    assert calls == []


def test_multiplicity_two_divisor_runs_no_toeplitz_elimination(monkeypatch):
    # the divisor lam + 1/2 of J2(2) has multiplicity 2 in D_rho: its two
    # paired elementary divisors are one J2 block, read without eliminating
    diagonals = []
    original = pencil_module._weyr_characteristic

    def recording(diag, *args):
        diagonals.append(diag)
        return original(diag, *args)

    monkeypatch.setattr(pencil_module, "_weyr_characteristic", recording)
    p = K3.direct_sum(J22)
    assert decompose(p).label() == "{K3, J2(mu=2)}"
    # the chart at lam = infinity may still be probed (its diagonal block is
    # A); no Toeplitz matrix of the finite divisor is built
    a, _ = integer_rows(p)
    assert all(diag == a for diag in diagonals)


def test_jordan_part_symplectic_vs_zero():
    # (A symplectic, B = 0) is the eigenvalue-infinity pair: divisors lam^1
    # twice in the finite chart, so mu = inf
    p = SkewPencil.from_rows([[0, 1], [-1, 0]], [[0, 0], [0, 0]])
    blocks = _jordan_part(p)
    assert len(blocks) == 1 and blocks[0].mu_label() == "inf"
    # the swapped pair (0, symplectic) carries the eigenvalue-zero label
    blocks = _jordan_part(SkewPencil(p.n, p.B, p.A))
    assert len(blocks) == 1 and blocks[0].mu_label() == 0


def test_jordan_pencil_catalog_labels():
    for k in (1, 2, 3):
        for mu in (0, 2, "inf"):
            t = decompose(jordan_pencil(k, mu))
            assert len(t.blocks) == 1
            b = t.blocks[0]
            assert b.kind == "jordan" and b.dimension() == 2 * k
            assert b.mu_label() == (mu if mu == "inf" else Fraction(mu))


def test_decompose_builds_no_label_and_a_type_builds_it_once():
    # congruence_decompose times decompose and reads the label untimed
    p = kronecker_pencil(2).direct_sum(jordan_pencil(1, 2))
    t = decompose(p)
    assert "_label" not in vars(t)
    assert t.label() == "{K3, J2(mu=2)}" and t.label() is t.label()
    assert t == decompose(p) and hash(t) == hash(decompose(p))
    assert "_label" not in vars(decompose(p))


def test_jordan_odd_multiplicity_rejected():
    # genuine skew input always pairs its divisors; the guard fires only on
    # corrupted input that skipped validation, simulated here by building
    # the integer pair without from_rows
    stub = SkewPencil(2, Matrix(2, 2, (1, 0, 0, 0)), Matrix(2, 2, (0, 0, 0, 0)))
    with pytest.raises(NotSkewCanonical) as caught:
        decompose(stub)
    # the failure carries the integer pencil it failed on, ready for a test
    assert caught.value.pencil == {"n": 2, "A": [["1", "0"], ["0", "0"]],
                                   "B": [["0", "0"], ["0", "0"]]}


def test_decompose_epsilon_adjacency():
    # adjacency of orbit closures: eps != 0 gives two K3 blocks, eps = 0
    # degenerates to K5 + K1; the type is constant across nonzero eps
    assert decompose(epsilon_adjacency_pencil(1)).label() == "{K3, K3}"
    assert decompose(epsilon_adjacency_pencil(0)).label() == "{K1, K5}"
    for eps in (Fraction(1, 2), 2, -1):
        assert decompose(epsilon_adjacency_pencil(eps)).label() == "{K3, K3}"


def test_decompose_direct_sum_and_zero():
    five = K3.direct_sum(J22)
    t = decompose(five)
    assert t.label() == "{K3, J2(mu=2)}"
    zero = _zero(3)
    t0 = decompose(zero)
    assert t0.label() == "{K1, K1, K1}"
    assert len(t0.blocks) == 3


def test_decompose_direct_sum_additivity():
    p = kronecker_pencil(3).direct_sum(jordan_pencil(2, "inf")).direct_sum(kronecker_pencil(1))
    t = decompose(p)
    labels = sorted(b.label() for b in t.blocks)
    assert labels == ["J4(mu=inf)", "K1", "K5"]
    assert t.n == 5 + 4 + 1


def test_decompose_mixed_eigenvalues():
    # finite and infinite Jordan divisors coexisting with a Kronecker block
    p = jordan_pencil(2, "inf").direct_sum(kronecker_pencil(2)).direct_sum(jordan_pencil(1, 2))
    assert decompose(p).label() == "{K3, J2(mu=2), J4(mu=inf)}"


def test_action_dimension():
    assert action_dimension(decompose(kronecker_pencil(3))) == 3
    assert action_dimension(decompose(K3.direct_sum(kronecker_pencil(1)))) == 3
    assert action_dimension(decompose(J22)) == 1


def _random_congruence(rng, n):
    while True:
        p = Matrix.from_rows([[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                              for _ in range(n)])
        if p.rank() == n:
            return p


CATALOG = [
    kronecker_pencil(1), kronecker_pencil(2), kronecker_pencil(3),
    jordan_pencil(1, 2), jordan_pencil(1, 0), jordan_pencil(1, "inf"),
    jordan_pencil(2, 2), K3.direct_sum(J22),
    epsilon_adjacency_pencil(1), epsilon_adjacency_pencil(0),
]


def test_congruence_invariance_smoke():
    rng = random.Random(42)
    for p in CATALOG:
        t = decompose(p)
        for _ in range(5):
            q = _random_congruence(rng, p.n)
            assert decompose(p.congruence(q)) == t


def test_swap_symmetry():
    for p in CATALOG:
        t = decompose(p)
        ts = decompose(SkewPencil(p.n, p.B, p.A))
        assert sorted(b.k for b in t.kronecker_blocks()) == \
            sorted(b.k for b in ts.kronecker_blocks())
        mus = sorted(str(b.mu_label()) for b in t.jordan_blocks())
        swapped = sorted(str(_swap_mu(b.mu_label())) for b in ts.jordan_blocks())
        assert mus == swapped


def _swap_mu(mu):
    # under (A,B) -> (B,A) the eigenvalue transforms as mu -> 1/mu
    if mu == "inf":
        return Fraction(0)
    if mu == 0:
        return "inf"
    return 1 / Fraction(mu)


def test_block_dimension_bookkeeping():
    for p in CATALOG:
        t = decompose(p)
        assert sum(b.dimension() for b in t.blocks) == p.n
        assert len(t.kronecker_blocks()) == generic_corank(p)


def test_pure_kronecker_constant_corank():
    for p in (kronecker_pencil(2), kronecker_pencil(3),
              K3.direct_sum(kronecker_pencil(1))):
        r = generic_corank(p)
        assert set(corank_profile(*integer_rows(p)).values()) == {r}


def test_pencil_json_roundtrip():
    p = epsilon_adjacency_pencil(Fraction(1, 2))
    q = SkewPencil.from_json(p.to_json())
    assert q.A == p.A and q.B == p.B
    with pytest.raises(ValidationError):
        SkewPencil.from_json({"n": 2, "A": [["0"]], "B": [["0"]]})


def test_random_block_soup_recovered():
    # assemble a random multiset of blocks, scramble by a random congruence,
    # and check the classifier recovers exactly the constructed type
    rng = random.Random(314)
    for _ in range(15):
        pieces = []
        total = 0
        while total < 5 and len(pieces) < 3:
            if rng.random() < 0.55:
                k = rng.randint(1, 2)
                pieces.append(kronecker_pencil(k))
                total += 2 * k - 1
            else:
                k = rng.randint(1, 2)
                mu = rng.choice([0, 2, -1, Fraction(1, 2), "inf"])
                pieces.append(jordan_pencil(k, mu))
                total += 2 * k
        assembled = pieces[0]
        for piece in pieces[1:]:
            assembled = assembled.direct_sum(piece)
        expected = sorted(
            (b for piece in pieces for b in decompose(piece).blocks),
            key=lambda b: b.sort_key())
        scrambled = assembled.congruence(_random_congruence(rng, assembled.n))
        got = sorted(decompose(scrambled).blocks, key=lambda b: b.sort_key())
        assert got == expected


def test_pure_jordan_determinant_cross_check():
    # for pure-Jordan pencils the determinant of lam*A + B equals (up to a
    # scalar) the product of the finite elementary divisors; the degree
    # deficit counts the divisors at lam = infinity
    rng = random.Random(27)
    for _ in range(8):
        pieces = [jordan_pencil(rng.randint(1, 2),
                                rng.choice([0, 2, -3, "inf"]))
                  for _ in range(rng.randint(1, 2))]
        p = pieces[0]
        for piece in pieces[1:]:
            p = p.direct_sum(piece)
        p = p.congruence(_random_congruence(rng, p.n))
        det = _upoly_pencil_det(p)
        assert not det.is_zero()
        prod = Poly.constant(1, T)
        inf_dim = 0
        for b in decompose(p).blocks:
            assert b.kind == "jordan"
            if b.divisor[0] == "finite":
                prod = prod * b.divisor[1] ** (2 * b.k)
            else:
                inf_dim += 2 * b.k
        assert _monic(det) == prod
        assert det.degree_in("t") == p.n - inf_dim


def _upoly_pencil_det(p):
    # memoized Laplace expansion over column subsets
    rows = [[univariate([p.B[i, j], p.A[i, j]]) for j in range(p.n)]
            for i in range(p.n)]
    memo = {}

    def minor(r, cols):
        if not cols:
            return Poly.constant(1, T)
        if cols in memo and r == p.n - len(cols):
            return memo[cols]
        total = Poly.zero(T)
        for k, c in enumerate(cols):
            entry = rows[r][c]
            if entry.is_zero():
                continue
            term = entry * minor(r + 1, cols[:k] + cols[k + 1:])
            total = total + (term if k % 2 == 0 else -1 * term)
        memo[cols] = total
        return total

    return minor(0, tuple(range(p.n)))


def test_irreducible_quadratic_divisor():
    # realified complex-eigenvalue pair: C(lam) = [[lam, 1], [-1, lam]],
    # det = lam^2 + 1 irreducible over Q; the 4-dim skew pencil pairs it up
    a = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    b = [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
    p = SkewPencil.from_rows(a, b)
    t = decompose(p)
    assert len(t.blocks) == 1
    blk = t.blocks[0]
    assert blk.kind == "jordan" and blk.dimension() == 4
    assert blk.divisor == ("finite", univariate([1, 0, 1]))
    assert blk.mu_label() is None


def _seeded_skew_pencil(n, seed):
    # upper-triangle entries in [-3, 3], row by row, A then B
    rng = random.Random(seed)

    def skew():
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rng.randint(-3, 3)
                rows[j][i] = -rows[i][j]
        return rows

    return SkewPencil.from_rows(skew(), skew())


def test_seeded_20_pencil_keeps_its_degree_10_divisor():
    # a generic skew pencil has det(lam*A + B) = Pf^2 with Pf squarefree:
    # here Pf is irreducible of degree 10, so the whole space is one J20
    # block; the label is the one the Fraction gcd and Yun split gave
    t = decompose(_seeded_skew_pencil(20, 1))
    assert set(t.corank_profile.values()) == {0}
    assert t.label() == (
        "{J20(divisor=t^10 - 28589661/16754039*t^9 - 121588528/16754039*t^8"
        " + 7287299/16754039*t^7 - 113186292/16754039*t^6 - 168411124/16754039*t^5"
        " + 363760085/16754039*t^4 - 74056412/16754039*t^3 + 53378060/16754039*t^2"
        " - 21601489/16754039*t - 19118769/16754039)}")
