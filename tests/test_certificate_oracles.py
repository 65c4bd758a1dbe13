"""Sparse Poisson certificates and integer-numerator arithmetic against dense oracles.

Each certificate must agree with its coordinate-by-coordinate form in
``oracles`` on the verdict and, byte for byte, on the failure detail.  The
family, chain and Casimir certificates, which share one relation routine
and one stored result per relation, are compared with the three loops that
routine replaced.  ``first_nonzero_sum`` must return the key and residual
of the loop that sums each group in turn, each sum ``sums_of_products``
yields must equal the group's running sum, and a failing certificate must
sum no group after its first nonzero one.  Covectors and pairings, summed
in one accumulator per sum, must equal the one-product-at-a-time loops
exactly; products on packed
monomials must equal schoolbook Fraction products, also at exponents past
the packed field bound; each function's ``partials`` must equal its
``diff`` in every variable, and a polynomial partial's preset packed form
must multiply as a freshly packed one does and compile into point rows
that equal ``RationalFunction.eval``, with no certificate or analysis
unpacking a partial's terms; and the heuristic
gcd and integer division must equal the primitive PRS gcd and Fraction long
division.
"""

import copy
from fractions import Fraction
import pickle

import pytest
from hypothesis import assume, given, settings, strategies as st

from biham.casimir import LambdaFamily, family_check
from biham.errors import PoleAtPoint
import biham.exactalg.poly as poly_module
from biham.exactalg import (PointEvaluator, Poly, RationalFunction, RowForm,
                            clear_denominators, exact_div, parse_rational, poly_gcd)
from biham import lenard, poisson
from biham.lenard import LenardChain, chain_from_family, involution_check, verify_chain
from biham.models import flat_kronecker, make_model, open_toda, periodic_toda, sl2_shift
from biham.report import run_analyze
from biham.poisson import (BihamStructure, PoissonStructure, compatibility_check,
                           first_nonzero_sum)

from oracles import (dense_compatibility_check, dense_jacobi_check, first_nonzero_sum_loop,
                     fraction_exact_div, loop_family_check, loop_hamiltonian_covector,
                     loop_is_casimir, loop_pairing, loop_verify_chain, pairwise_bracket,
                     pairwise_involution_check, prs_gcd, running_sum, schoolbook_product)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def polys(draw, variables, max_terms=2, max_deg=2):
    """Up to ``max_terms`` monomials of total degree at most ``max_deg``."""
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        e = [0] * len(variables)
        for i in draw(st.lists(st.integers(0, len(variables) - 1), max_size=max_deg)):
            e[i] += 1
        terms[tuple(e)] = draw(rationals)
    return Poly(variables, terms)


def _linear_denominator(draw, variables):
    """1 + c*x_i for a drawn coordinate x_i and c in 1..3."""
    i = draw(st.integers(0, len(variables) - 1))
    return (Poly.constant(1, variables)
            + Poly.variable(variables[i], variables) * draw(st.integers(1, 3)))


@st.composite
def functions(draw, variables, dens):
    """A polynomial of total degree at most 3, or one over a denominator from ``dens``."""
    num = draw(polys(variables, max_terms=3, max_deg=3))
    if not dens or draw(st.booleans()):
        return RationalFunction(num)
    return RationalFunction(num, draw(st.sampled_from(dens)))


@st.composite
def tables(draw, variables, dens):
    n = len(variables)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return PoissonStructure(variables, {key: draw(functions(variables, dens)) for key in keys})


@st.composite
def structure_pairs(draw):
    """Two random tables on 3 to 5 coordinates.

    Rational entries have one of two denominators 1 + c*x_i, so brackets
    and Schouten residuals sum products over several distinct denominators.
    """
    n = draw(st.integers(3, 5))
    variables = tuple(f"x{i}" for i in range(n))
    dens = [_linear_denominator(draw, variables) for _ in range(2)]
    return draw(tables(variables, dens)), draw(tables(variables, dens))


def _same(got, want):
    assert (got.ok, got.kind, got.detail) == (want.ok, want.kind, want.detail)


@given(structure_pairs())
@settings(max_examples=40, deadline=None)
def test_jacobi_and_compatibility_match_dense_oracle(pair):
    p1, p2 = pair
    _same(p1.jacobi_check(), dense_jacobi_check(p1))
    _same(compatibility_check(p1, p2), dense_compatibility_check(p1, p2))


@given(structure_pairs(), st.data())
@settings(max_examples=30, deadline=None)
def test_bracket_and_involution_match_pairwise_oracle(pair, data):
    p1, p2 = pair
    funcs = data.draw(st.lists(polys(p1.variables), min_size=1, max_size=4))
    for f in funcs:
        for g in funcs:
            assert p1.bracket(f, g) == pairwise_bracket(p1, f, g)
    b = BihamStructure(p1, p2)
    _same(involution_check(funcs, b), pairwise_involution_check(funcs, b))


def _flipped(p, key):
    table = dict(p.table)
    table[key] = -table[key]
    return PoissonStructure(p.variables, table)


MODELS = {"toda": open_toda(2), "sl2": sl2_shift((0, 1, 0))}
TODA = MODELS["toda"].structure
SL2 = MODELS["sl2"].structure

# Sign flips of one entry of a compatible Poisson pair, each of which breaks
# the bracket's own Jacobi identity (flips of P2) or only compatibility (P1).
FLIPS = [("toda", 2, key) for key in ((0, 1), (1, 2), (1, 3), (2, 3), (3, 4))]
FLIPS += [("toda", 1, key) for key in ((1, 2), (2, 3))]
FLIPS += [("sl2", 2, key) for key in ((0, 1), (1, 2))]


@pytest.mark.parametrize("model,which,key", FLIPS)
def test_sign_flipped_tables_fail_as_the_oracle_does(model, which, key):
    b = {"toda": TODA, "sl2": SL2}[model]
    flipped = _flipped(b.p1 if which == 1 else b.p2, key)
    p1, p2 = (flipped, b.p2) if which == 1 else (b.p1, flipped)
    own = flipped.jacobi_check()
    _same(own, dense_jacobi_check(flipped))
    assert own.ok == (which == 1)
    got = compatibility_check(p1, p2)
    assert not got.ok
    _same(got, dense_compatibility_check(p1, p2))


def _relation_certificates(b, families):
    """(library, loop oracle) certificate pairs for each family, its chain and coefficients.

    The chain is read off after the family is proved on the same structure,
    so its relations are the family's stored results.
    """
    for fam in families:
        yield family_check(b, fam), loop_family_check(b, fam)
        chain = chain_from_family(b, fam)
        assert chain.anchored == loop_is_casimir(b.p1, chain.functions[0]).ok
        yield verify_chain(chain), loop_verify_chain(chain)
        for c in fam.coeffs:
            for p in (b.p1, b.p2):
                yield p.is_casimir(c), loop_is_casimir(p, c)


@pytest.mark.parametrize("model,which,key", FLIPS)
def test_sign_flipped_relations_match_the_loop_oracles(model, which, key):
    b = MODELS[model].structure
    flipped = _flipped(b.p1 if which == 1 else b.p2, key)
    b = BihamStructure(*((flipped, b.p2) if which == 1 else (b.p1, flipped)))
    pairs = list(_relation_certificates(b, MODELS[model].families))
    for got, want in pairs:
        _same(got, want)
    assert any(not got.ok for got, _ in pairs)


def _fresh(model):
    """The model's brackets with an empty certificate store."""
    return BihamStructure(model.structure.p1, model.structure.p2)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_perturbed_families_match_the_loop_oracles(data):
    model = MODELS[data.draw(st.sampled_from(sorted(MODELS)))]
    b = _fresh(model)
    fam = data.draw(st.sampled_from(model.families))
    k = data.draw(st.integers(0, fam.degree))
    coeffs = list(fam.coeffs)
    coeffs[k] = coeffs[k] + RationalFunction.from_poly(data.draw(polys(b.variables)))
    assume(not coeffs[-1].is_zero())
    for got, want in _relation_certificates(b, [LambdaFamily(tuple(coeffs))]):
        _same(got, want)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_mutated_chains_match_the_loop_oracle(data):
    model = MODELS[data.draw(st.sampled_from(sorted(MODELS)))]
    b = _fresh(model)
    fam = data.draw(st.sampled_from(model.families))
    if data.draw(st.booleans()):       # relations already stored by the family
        assert family_check(b, fam).ok
    funcs = list(reversed(fam.coeffs))
    i = data.draw(st.integers(0, len(funcs) - 1))
    extra = RationalFunction.from_poly(data.draw(polys(b.variables)))
    funcs[i] = data.draw(st.sampled_from([extra, funcs[i] + extra]))
    if data.draw(st.booleans()):
        del funcs[data.draw(st.integers(0, len(funcs) - 1))]
    assume(funcs)
    chain = LenardChain(tuple(funcs), b, anchored=data.draw(st.booleans()))
    _same(verify_chain(chain), loop_verify_chain(chain))


def test_catalog_chains_are_in_involution_like_the_oracle():
    model = open_toda(2)
    funcs = [f for fam in model.families for f in fam.coeffs]
    _same(involution_check(funcs, model.structure),
          pairwise_involution_check(funcs, model.structure))
    assert involution_check(funcs, model.structure).ok


CHAIN_MODELS = [MODELS["toda"], open_toda(3), periodic_toda(3), flat_kronecker(3)]


def _perturb(data, funcs, variables):
    """funcs shuffled, with a monomial inserted, a coordinate added, H_0, H_1 repeated
    or an interior function dropped (one chained run splits in two)."""
    kind = data.draw(st.sampled_from(["shuffle", "insert", "add", "repeat", "drop"]))
    if kind == "shuffle":
        return list(data.draw(st.permutations(funcs)))
    if kind == "insert":
        monomial = RationalFunction.from_poly(data.draw(polys(variables, max_terms=1)))
        i = data.draw(st.integers(0, len(funcs)))
        return funcs[:i] + [monomial] + funcs[i:]
    if kind == "add":
        i = data.draw(st.integers(0, len(funcs) - 1))
        x = Poly.variable(data.draw(st.sampled_from(variables)), variables)
        return funcs[:i] + [funcs[i] + RationalFunction.from_poly(x)] + funcs[i + 1:]
    if kind == "repeat":
        return funcs[:2] + funcs
    if len(funcs) < 3:                 # no interior function to drop
        return funcs
    i = data.draw(st.integers(1, len(funcs) - 2))
    return funcs[:i] + funcs[i + 1:]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_perturbed_catalog_chains_are_in_involution_like_the_oracle(data):
    # rows stay chained, lose their relation, or meet a neighbour whose
    # relation is proved and refused; chained rows may still fail under P2
    model = data.draw(st.sampled_from(CHAIN_MODELS))
    b = _fresh(model)
    if data.draw(st.booleans()):       # relations already stored by the families
        assert all(family_check(b, fam).ok for fam in model.families)
    funcs = [f for fam in model.families for f in reversed(fam.coeffs)]
    for _ in range(data.draw(st.integers(1, 2))):
        funcs = _perturb(data, funcs, b.variables)
    _same(involution_check(funcs, b), pairwise_involution_check(funcs, b))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_every_bracket_the_involution_check_skips_is_zero(data):
    # stronger than agreeing on the first failure: every group left out of
    # the sum is zero by the pairwise oracle, wherever it falls in the order
    model = data.draw(st.sampled_from(CHAIN_MODELS))
    b = _fresh(model)
    funcs = [f for fam in model.families for f in reversed(fam.coeffs)]
    for _ in range(data.draw(st.integers(1, 2))):
        funcs = _perturb(data, funcs, b.variables)
    summed = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lenard, "first_nonzero_sum",
                      lambda groups, variables: summed.extend(key for key, _ in groups))
        involution_check(funcs, b)
    for a in range(len(funcs)):
        for c in range(a + 1, len(funcs)):
            for which, p in ((1, b.p1), (2, b.p2)):
                if (a, c, which) not in summed:
                    assert pairwise_bracket(p, funcs[a], funcs[c]).is_zero(), (a, c, which)


V = ("x", "y", "z")


@given(polys(V, max_terms=6, max_deg=4), polys(V, max_terms=6, max_deg=4))
@settings(max_examples=80, deadline=None)
def test_poly_product_matches_schoolbook_fractions(p, q):
    product = p * q
    assert product.terms == schoolbook_product(p, q)
    assert all(isinstance(c, Fraction) and c != 0 for c in product.terms.values())


# Exponents at and just past the packed field bound: below 2^(W-1) a Poly
# keeps its form at W = PACK_BITS, from 2^(W-1) on it needs a wider field.
BOUND = 1 << (poly_module.PACK_BITS - 1)
EDGE_EXPONENTS = [0, 1, BOUND - 1, BOUND, 2 * BOUND]


@st.composite
def edge_polys(draw, variables):
    """Zero to three terms with exponents from ``EDGE_EXPONENTS``."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        terms[tuple(draw(st.sampled_from(EDGE_EXPONENTS)) for _ in variables)] = draw(rationals)
    return Poly(variables, terms)


def _schoolbook_sum(pairs, variables):
    total = Poly.zero(variables)
    for p, q in pairs:
        total = total + Poly(variables, schoolbook_product(p, q))
    return total


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_packed_products_match_schoolbook_at_the_field_bound(data):
    variables = tuple(f"x{i}" for i in range(data.draw(st.integers(0, 3))))
    factors = data.draw(st.lists(edge_polys(variables), min_size=2, max_size=6))
    pairs = list(zip(factors, factors[1:]))
    for p, q in pairs:
        assert (p * q).terms == schoolbook_product(p, q)
    rational_pairs = [(RationalFunction(p), RationalFunction(q)) for p, q in pairs]
    assert (RationalFunction.sum_of_products(rational_pairs, variables)
            == RationalFunction(_schoolbook_sum(pairs, variables)))


@pytest.mark.parametrize("variables", [(), V])
def test_packed_products_of_zero_and_constant_polys(variables):
    zero = Poly.zero(variables)
    c = Poly.constant(Fraction(3, 4), variables)
    assert (zero * c).is_zero() and (c * zero).is_zero()
    assert (c * c).terms == schoolbook_product(c, c)
    pairs = [(RationalFunction(c), RationalFunction(c)), (RationalFunction(zero),
                                                         RationalFunction(c))]
    assert RationalFunction.sum_of_products(pairs, variables) == RationalFunction(c * c)


@pytest.mark.parametrize("top", [2, BOUND, 2 * BOUND])
def test_equal_polys_built_separately_give_equal_products(top):
    terms = {(top, 0, 1): Fraction(1, 2), (0, 1, 0): Fraction(-3), (1, 1, 1): Fraction(5, 7)}
    a = Poly(V, terms)
    b = Poly(V, dict(reversed(list(terms.items()))))
    q = Poly(V, {(1, 1, 0): Fraction(2, 3), (0, 0, 0): Fraction(1)})
    assert a == b and a is not b
    first = a * q                     # a and q now hold their packed forms
    assert first == a * q == b * q == q * b
    assert first.terms == schoolbook_product(b, q)
    sums = [RationalFunction.sum_of_products([(RationalFunction(p), RationalFunction(q))], V)
            for p in (a, b)]
    assert sums[0] == sums[1] == RationalFunction(first)


def test_poly_product_cancels_to_zero():
    x = Poly.variable("x", V)
    y = Poly.variable("y", V)
    half = Fraction(1, 2)
    assert ((x * half + y) * (x * half - y) - (x * x * Fraction(1, 4) - y * y)).is_zero()
    assert (Poly.zero(V) * (x + y)).is_zero()


@st.composite
def accumulator_tables(draw, denominators):
    """A table on 3 or 4 coordinates whose entries are polynomials
    (``"none"``), polynomials or fractions over one shared 1 + c*x_i
    (``"shared"``), or over one of three such denominators (``"distinct"``)."""
    variables = tuple(f"x{i}" for i in range(draw(st.integers(3, 4))))
    count = {"none": 0, "shared": 1, "distinct": 3}[denominators]
    dens = [_linear_denominator(draw, variables) for _ in range(count)]
    return draw(tables(variables, dens))


@pytest.mark.parametrize("denominators", ["none", "shared", "distinct"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_covector_and_pairing_match_the_one_product_loops(denominators, data):
    p = data.draw(accumulator_tables(denominators))
    f, g = (data.draw(polys(p.variables, max_terms=3, max_deg=3)) for _ in range(2))
    covector = p.hamiltonian_covector(f)
    assert covector == loop_hamiltonian_covector(p, f)
    grad = p.gradient(g)
    assert p.pairing(covector, grad) == loop_pairing(p, covector, grad)
    # two rational factors: products land in more than one denominator group
    assert p.pairing(covector, covector) == loop_pairing(p, covector, covector)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_sum_of_products_matches_the_running_sum(data):
    variables = ("x0", "x1", "x2")
    pairs = []
    for _ in range(data.draw(st.integers(0, 5))):
        u, v = (RationalFunction(data.draw(polys(variables)),
                                 data.draw(st.sampled_from(
                                     [None, _linear_denominator(data.draw, variables)])))
                for _ in range(2))
        pairs.append((u, v))
    want = RationalFunction.constant(0, variables)
    for u, v in pairs:
        want = want + u * v
    assert RationalFunction.sum_of_products(pairs, variables) == want


def test_polynomial_pairing_runs_at_most_one_gcd(monkeypatch):
    # the products of a polynomial pairing share the denominator 1: one
    # accumulator, one RationalFunction, no reduction per product or sum
    b = open_toda(3).structure
    fam = open_toda(3).families[0]
    covector = b.p1.hamiltonian_covector(fam.coeffs[0])
    grad = b.p1.gradient(fam.coeffs[1])
    assert sum(not entry.is_zero() for entry in covector) > 2
    calls = []
    original = poly_module.poly_gcd

    def counting(f, g):
        calls.append((f, g))
        return original(f, g)

    monkeypatch.setattr(poly_module, "poly_gcd", counting)
    b.p1.pairing(covector, grad)
    assert len(calls) <= 1


def _cross_group(c):
    """c/(x*y) * x - c/y * 1: zero, but only across the denominators x*y and y."""
    return [(parse_rational(f"{c}/(x*y)", V), parse_rational("x", V)),
            (parse_rational(f"-{c}/y", V), RationalFunction.constant(1, V))]


@st.composite
def residual_groups(draw):
    """(key, products) groups for ``first_nonzero_sum``.

    Factors are drawn from small pools, so one object recurs within and
    across groups.  A group is empty; polynomial; rational (over x*y or a
    1 + c*x_i); at the packed field bound, which widens the field of every
    group; a group with the negative of each product, zero in every part;
    or ``_cross_group``.
    """
    poly_pool = [RationalFunction(draw(polys(V, max_terms=3))) for _ in range(3)]
    dens = [_linear_denominator(draw, V), Poly(V, {(1, 1, 0): Fraction(1)})]
    rational_pool = poly_pool + [RationalFunction(draw(polys(V)), draw(st.sampled_from(dens)))
                                 for _ in range(3)]
    pools = {"poly": poly_pool, "rational": rational_pool,
             "edge": [RationalFunction(draw(edge_polys(V))) for _ in range(2)]}
    groups = []
    for key in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["empty", "poly", "rational", "edge", "negated", "cross"]))
        if kind == "empty":
            products = []
        elif kind == "cross":
            products = _cross_group(draw(st.sampled_from(["1", "-2", "3/4"])))
        else:
            pool = pools["rational" if kind == "negated" else kind]
            products = [(draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
                        for _ in range(draw(st.integers(1, 3)))]
            if kind == "negated":
                products += [(-u, v) for u, v in products]
        groups.append((key, products))
    return groups


@given(residual_groups())
@settings(max_examples=150, deadline=None)
def test_first_nonzero_sum_matches_the_group_loop(groups):
    want = first_nonzero_sum_loop(groups, V)
    got = first_nonzero_sum(((key, iter(products)) for key, products in groups), V)
    assert got == want
    # every group's sum is its running sum, and a vanishing group is the shared zero
    sums = list(RationalFunction.sums_of_products([products for _, products in groups], V))
    assert len(sums) == len(groups)
    for (_, products), total in zip(groups, sums):
        assert total == running_sum(products, V)
        if total.is_zero():
            assert total is RationalFunction.zero(V)


def test_a_group_that_cancels_across_denominators_is_summed_and_found_zero():
    x = parse_rational("x", V)
    groups = [("cross", _cross_group("1")), ("after", [(x, x)])]
    cross, after = RationalFunction.sums_of_products([products for _, products in groups], V)
    assert cross is RationalFunction.zero(V)
    assert after == parse_rational("x^2", V)
    assert first_nonzero_sum(groups, V) == ("after", parse_rational("x^2", V))
    assert first_nonzero_sum(groups[:1], V) is None


def test_one_wide_factor_widens_the_field_of_every_group():
    # x^(2^15) needs a field wider than PACK_BITS; the other group's keys,
    # packed at that width, must still cancel exactly
    wide = RationalFunction(Poly(V, {(BOUND, 0, 0): Fraction(1)}))
    y, z = parse_rational("y", V), parse_rational("z", V)
    groups = [(0, [(y, z), (-y, z)]), (1, [(wide, wide)])]
    square = RationalFunction(Poly(V, {(2 * BOUND, 0, 0): 1}))
    sums = list(RationalFunction.sums_of_products([products for _, products in groups], V))
    assert sums[0] is RationalFunction.zero(V) and sums[1] == square
    assert first_nonzero_sum(groups, V) == (1, square)


def test_groups_are_packed_once_and_summed_in_their_own_accumulators(monkeypatch):
    # one packing pass for every factor, but no dict holds two groups'
    # monomials, so an accumulator never grows with the whole certificate
    x, y, z = (parse_rational(name, V) for name in V)
    groups = [[(x, y), (-x, y)], [(y, z)], [], [(x, z), (z, x)]]
    zero = RationalFunction.zero(V)
    want = [zero, y * z, zero, 2 * x * z]
    packed, accs = [], []
    pack, add = poly_module._packed_forms, poly_module._add_product

    def counted_pack(*args):
        packed.append(args)
        return pack(*args)

    def recorded_add(acc, *args):
        accs.append(acc)
        add(acc, *args)

    monkeypatch.setattr(poly_module, "_packed_forms", counted_pack)
    monkeypatch.setattr(poly_module, "_add_product", recorded_add)
    sums = list(RationalFunction.sums_of_products(groups, V))
    assert sums == want and sums[0] is zero and sums[2] is zero
    assert len(packed) == 1
    ids = [id(acc) for acc in accs]
    assert ids[0] == ids[1] and ids[3] == ids[4] and len(set(ids)) == 3


V4 = ("x", "y", "z", "w")


def _incompatible_pairs():
    # the benchmark's pair: {x,y}_1 = a x and {y,z}_2 = b y have the mixed
    # Jacobiator -ab x; {z,w}_1 = z*w on a fourth coordinate adds triples
    # after the failing one
    out = []
    for a, b in ((1, 1), (2, 5)):
        p1, p2 = {(0, 1): f"{a}*x"}, {(1, 2): f"{b}*y"}
        out.append(BihamStructure(PoissonStructure(("x", "y", "z"), p1),
                                  PoissonStructure(("x", "y", "z"), p2)))
        out.append(BihamStructure(PoissonStructure(V4, {**p1, (2, 3): "z*w"}),
                                  PoissonStructure(V4, p2)))
    return out


def _non_casimir_families():
    # the benchmark's control: flat K5's Casimir family x0 + lam x2 + lam^2 x4
    # with c x_j added to its lambda^0 coefficient, for every c and j it draws
    flat = flat_kronecker(3)
    coeffs = flat.families[0].coeffs
    return [LambdaFamily((parse_rational(f"x0 + {c}*x{j}", flat.structure.variables),)
                         + coeffs[1:]) for c in range(1, 6) for j in range(1, 5)]


def test_a_failing_certificate_sums_no_group_after_its_first_nonzero_one(monkeypatch):
    # each first_nonzero_sum builds one accumulator per nonempty group up to
    # and including the first nonzero one, and none after it
    calls, accs = [], []
    search, add = poisson.first_nonzero_sum, poly_module._add_product

    def recorded_search(groups, variables):
        groups = [(key, list(products)) for key, products in groups]
        start = len(accs)
        got = search(groups, variables)
        calls.append((groups, variables, {id(acc) for acc in accs[start:]}, got))
        return got

    def recorded_add(acc, *args):
        accs.append(acc)            # held, so no two accumulators share an id
        add(acc, *args)

    monkeypatch.setattr(poisson, "first_nonzero_sum", recorded_search)
    monkeypatch.setattr(poly_module, "_add_product", recorded_add)
    for b in _incompatible_pairs():
        assert not b.verify()["compatibility"].ok
    flat = flat_kronecker(3).structure
    for fam in _non_casimir_families():
        assert not family_check(BihamStructure(flat.p1, flat.p2), fam).ok
    skipped = 0
    for groups, variables, built, got in calls:
        want = first_nonzero_sum_loop(groups, variables)
        assert got == want
        stop = len(groups) if want is None else [key for key, _ in groups].index(want[0]) + 1
        assert len(built) == sum(1 for _, products in groups[:stop] if products)
        skipped += sum(1 for _, products in groups[stop:] if products)
    assert skipped > 0


@given(polys(V, max_terms=4, max_deg=3), polys(V, max_terms=4, max_deg=3),
       polys(V, max_terms=3, max_deg=2))
@settings(max_examples=60, deadline=None)
def test_gcd_and_division_match_the_prs_and_fraction_oracles(a, b, c):
    assume(not (b.is_zero() or c.is_zero()))
    f, g = a * c, b * c
    assert poly_gcd(f, g) == prs_gcd(f, g)
    if not (f.is_constant() or g.is_constant()):     # the fallback, run on its own
        assert poly_module._prs_gcd(f, g) == prs_gcd(f, g)
    assert poly_gcd(a, b) == prs_gcd(a, b)
    assert exact_div(f, c) == fraction_exact_div(f, c) == a
    assert exact_div(a, b) == fraction_exact_div(a, b)


@st.composite
def differentiable(draw):
    """A polynomial with mixed rational coefficients, one with exponents at
    and past the packed field bound (zero and constants among them), or a
    quotient by a nonconstant denominator."""
    variables = tuple(f"x{i}" for i in range(draw(st.integers(0, 3))))
    kind = draw(st.sampled_from(["poly", "edge", "quotient"] if variables else ["edge"]))
    if kind == "poly":
        return RationalFunction(draw(polys(variables, max_terms=6, max_deg=4)))
    if kind == "edge":
        return RationalFunction(draw(edge_polys(variables)))
    if draw(st.booleans()):
        den = _linear_denominator(draw, variables)
    else:
        den = draw(polys(variables, max_terms=3, max_deg=2))
        assume(not den.is_constant())
    return RationalFunction(draw(polys(variables, max_terms=3, max_deg=3)), den)


def _point(draw, f):
    """A rational point; at -1, 0 and 1 only when f holds an exponent past the
    packed field bound, since a point's power tables keep every power up to
    the top degree (no parsed coefficient has an exponent above 64)."""
    top = max((k for p in (f.num, f.den) for e in p.terms for k in e), default=0)
    coords = (st.sampled_from([-1, 0, 1]) if top >= BOUND - 1
              else st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return tuple(draw(coords) for _ in f.variables)


def _cleared_by_eval(row, point):
    """clear_denominators of each function's ``RationalFunction.eval``, or PoleAtPoint."""
    try:
        return clear_denominators([g.eval(point) for g in row])
    except PoleAtPoint:
        return PoleAtPoint


def _cleared_by_row_form(row, point):
    try:
        return PointEvaluator(point).row(RowForm(row))
    except PoleAtPoint:
        return PoleAtPoint


@given(differentiable(), st.data())
@settings(max_examples=150, deadline=None)
def test_partials_match_diff_and_their_preset_packed_forms(f, data):
    variables = f.variables
    want = {i: d for i, d in ((i, f.diff(v)) for i, v in enumerate(variables))
            if not d.is_zero()}
    got = f.partials()
    # a lazily unpacked partial hashes, then compares, as the eager Poly with
    # its terms, and comes through copy and pickle unchanged
    for i, d in f.partials().items():
        assert hash(d.num) == hash(Poly(variables, want[i].num.terms))
        assert copy.copy(d.num) == pickle.loads(pickle.dumps(d.num)) == want[i].num
    assert got == want
    assert list(got) == sorted(got)
    # the partials' rows, and the partials with a quotient, at a point: each
    # RowForm compiled from packed forms equals the Fraction evaluation
    point = _point(data.draw, f)
    rows = [list(f.partials().values())]
    if variables:
        quotient = RationalFunction(Poly.constant(1, variables), _linear_denominator(
            data.draw, variables))
        rows.append(rows[0] + [quotient] + list(quotient.partials().values()))
    for row in rows:
        assert _cleared_by_row_form(row, point) == _cleared_by_eval(row, point)
    if not f.is_polynomial():
        return
    # paired with 1, packed at PACK_BITS, every product reads the partial's
    # preset form, never a repacked one, and sums as its eager copy does
    one = RationalFunction.constant(1, variables)
    for d in got.values():
        assert d.is_polynomial() and d.num._packed is not None
        fresh = RationalFunction(Poly(variables, d.num.terms))
        for pairs in ([(d, one)], [(d, d)], [(one, d), (d, d)]):
            swapped = [(fresh if u is d else u, fresh if v is d else v) for u, v in pairs]
            assert (RationalFunction.sum_of_products(pairs, variables)
                    == RationalFunction.sum_of_products(swapped, variables))


def test_narrow_forms_widen_from_their_packed_pairs():
    # f holds x^(2^15), so f and its partials pack at W = PACK_BITS + 1, and a
    # PACK_BITS factor beside them is widened field by field; g's partials
    # are at PACK_BITS and are widened beside the wide one
    f = Poly(V, {(BOUND, 1, 0): Fraction(1, 3), (1, 2, 0): Fraction(-3, 2), (0, 0, 1): 5})
    g = Poly(V, {(2, 1, 1): Fraction(7, 5), (0, 3, 0): -1, (1, 0, 0): Fraction(1, 2)})
    wide = poly_module._poly_partials(f)
    narrow = poly_module._poly_partials(g)
    assert {d._packed[0] for d in wide.values()} == {poly_module.PACK_BITS + 1}
    assert {d._packed[0] for d in narrow.values()} == {poly_module.PACK_BITS}
    factors = [f, g, *wide.values(), *narrow.values()]
    width, forms = poly_module._packed_forms(factors)
    assert width == poly_module.PACK_BITS + 1
    eager = [Poly(V, dict(p.terms)) for p in factors]
    for q, (d, pairs) in zip(eager, forms):
        assert poly_module._unpack_terms(pairs, d, len(V), width) == q.terms
    for p, q in zip(factors, eager):
        for r, s in zip(factors, eager):
            assert (p * r).terms == schoolbook_product(q, s)


@pytest.mark.parametrize("variables", [(), V])
def test_partials_of_zero_and_constants_are_empty(variables):
    for c in (0, Fraction(-3, 4)):
        assert RationalFunction.constant(c, variables).partials() == {}


def test_polynomial_certificates_differentiate_each_function_once(monkeypatch):
    # open Toda is polynomial: its Jacobi, compatibility and family
    # certificates call partials once per table entry and once per family
    # function, and no partial goes through diff, is packed again or is unpacked
    model = make_model("open_toda", k="4")
    b = BihamStructure(model.structure.p1, model.structure.p2)
    calls, packed = [], []
    partials, pack = RationalFunction.partials, poly_module._pack

    def counted_partials(self):
        calls.append(self)
        return partials(self)

    def counted_pack(terms, width):
        packed.append(pack(terms, width))    # kept alive, so no two ids coincide
        return packed[-1]

    def refused(*args):
        raise AssertionError("diff ran on a polynomial")

    monkeypatch.setattr(RationalFunction, "partials", counted_partials)
    monkeypatch.setattr(poly_module, "_pack", counted_pack)
    monkeypatch.setattr(RationalFunction, "diff", refused)
    monkeypatch.setattr(Poly, "diff", refused)
    unpacked = _count_unpacks(monkeypatch)
    assert all(b.verify().values())
    for fam in model.families:
        assert family_check(b, fam).ok
    entries = [c for p in (b.p1, b.p2) for c in p.table.values()]
    functions = list(dict.fromkeys(c for fam in model.families for c in fam.coeffs
                                   if not c.is_zero()))
    assert len(calls) == len(entries) + len(functions)
    assert {id(f) for f in calls} == {id(f) for f in entries + functions}
    derived = [d for partials_of in b.partials() for _, derivs in partials_of
               for _, d in derivs]
    derived += [d for f in functions for d in b.gradient(f) if not d.is_zero()]
    # every partial keeps the form it was given, none packed from its terms
    assert derived and all(type(d.num) is poly_module._Partial for d in derived)
    assert not {id(d.num._packed) for d in derived} & {id(form) for form in packed}
    assert unpacked == []


def _count_unpacks(monkeypatch) -> list:
    """A list that gets each ``_Partial`` whose terms are read, for this test."""
    seen = []
    read = poly_module._Partial.terms.fget

    def counted(self):
        seen.append(self)
        return read(self)

    monkeypatch.setattr(poly_module._Partial, "terms", property(counted))
    return seen


@pytest.mark.parametrize("spec", ["open_toda:k=4", "periodic_toda:k=4",
                                  "two_family:eta=t^3", "m_f:f=x+y"])
def test_certificates_and_analysis_unpack_no_partial(monkeypatch, spec):
    # every certificate and every gradient row reads a partial's packed form
    name, _, arg = spec.partition(":")
    params = dict([arg.split("=", 1)])
    made = []
    init = poly_module._Partial.__init__

    def counted_init(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(poly_module._Partial, "__init__", counted_init)
    unpacked = _count_unpacks(monkeypatch)
    model = make_model(name, **params)
    b = model.structure
    assert all(b.verify().values())
    for fam in model.families:
        assert family_check(b, fam).ok
        chain = chain_from_family(b, fam)
        assert verify_chain(chain).ok
        assert involution_check(chain.functions, b).ok
    report = run_analyze(make_model(name, **params), samples=4)
    assert made and report.mismatches == []
    assert unpacked == []


@pytest.mark.parametrize("spec", ["open_toda:k=4", "periodic_toda:k=4", "m_f:f=x+y"])
def test_polynomial_certificates_build_no_rational_function(monkeypatch, spec):
    # partials are wrapped as built, absent partials and coefficients are
    # the shared zero, Schouten signs are read off the skew rows and a
    # passing sum builds no residual, so a fresh structure on a polynomial
    # model's brackets proves every certificate without building one
    name, _, arg = spec.partition(":")
    model = make_model(name, **dict([arg.split("=", 1)]))
    b = _fresh(model)
    made = []
    for method in ("__init__", "__neg__"):
        original = getattr(RationalFunction, method)

        def counted(self, *args, _original=original, _method=method, **kwargs):
            made.append(_method)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(RationalFunction, method, counted)
    assert all(b.verify().values())
    for fam in model.families:
        assert family_check(b, fam).ok
        assert verify_chain(chain_from_family(b, fam)).ok
    assert model.families and made == []
