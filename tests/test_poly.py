"""Tests for exact Gaussian-rational polynomial arithmetic."""

import contextlib
import copy
import functools
import heapq
import operator
import pickle
import random
import re
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sixvertex import poly, schur
from sixvertex.lattice import BoundarySpec, GTPattern, LatticeState
from sixvertex.matrix import PolyMatrix
from sixvertex.poly import (EXPONENT_LIMIT, IMAG, ONE, ZERO, GaussianRational,
                            Polynomial, VarSpace, poly_sum, prod)
from sixvertex.weights import (IceKind, VertexWeights, compose, delta, gamma, pi_map,
                               random_free_fermionic)
from sixvertex.yang_baxter import r_solution_space


def random_coeff(rng, with_imag=False):
    re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    im = Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if with_imag else 0
    return GaussianRational(re, im)


def random_poly(rng, space, max_terms=4, max_exp=3, with_imag=False):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(2 * space.n))
        terms[mono] = random_coeff(rng, with_imag)
    return Polynomial(space, terms)


def test_gaussian_rational_arithmetic():
    i = IMAG
    assert i * i == GaussianRational(-1)
    a = GaussianRational(Fraction(1, 2), 3)
    b = GaussianRational(2, -1)
    assert a + b == GaussianRational(Fraction(5, 2), 2)
    assert a - b == GaussianRational(Fraction(-3, 2), 4)
    assert a * b == GaussianRational(4, Fraction(11, 2))
    assert (a * b) / b == a
    assert a == a + ZERO
    assert GaussianRational(3) == 3
    assert GaussianRational(Fraction(1, 3)) == Fraction(1, 3)
    assert bool(ZERO) is False and ZERO.is_zero()
    with pytest.raises(ZeroDivisionError):
        a / ZERO


def test_gaussian_rational_str():
    assert str(GaussianRational(Fraction(3, 2))) == "3/2"
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(0, -1)) == "-i"
    assert str(GaussianRational(0, 2)) == "2*i"
    assert str(GaussianRational(1, 1)) == "(1+i)"
    assert str(GaussianRational(Fraction(1, 2), -3)) == "(1/2-3*i)"


def test_gaussian_rational_immutable_and_hashable():
    a = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        a.re = Fraction(5)
    assert hash(a) == hash(GaussianRational(1, 2))
    # equal values must hash alike, across scalar and constant types
    space = VarSpace(1)
    assert {1: "x"}[GaussianRational(1)] == "x"
    assert {1: "x"}[space.const(1)] == "x"
    assert GaussianRational(Fraction(1, 2)) in {Fraction(1, 2)}
    assert space.zero() in {0}
    assert space.const(IMAG) in {IMAG}


def test_scalars_on_the_left_of_a_polynomial():
    z = VarSpace(1).z(1)
    assert IMAG * z == z * IMAG
    assert str(IMAG * z) == "i*z1"
    assert ONE + z == z + ONE
    assert ONE - z == -(z - ONE)
    assert str(ONE - z) == "-z1 + 1"
    assert GaussianRational(2) * z == 2 * z
    # floats stay refused, on either side
    for make in (lambda: IMAG * 0.5, lambda: 0.5 * IMAG, lambda: ONE + 0.5,
                 lambda: 0.5 - ONE):
        with pytest.raises(TypeError):
            make()


def stored_form(p):
    """The text, JSON and stored coefficient types of a polynomial."""
    return str(p), p.to_json(), {m: type(c) for m, c in p._terms.items()}


def test_a_scalar_factor_scales_like_its_constant_polynomial():
    rng = random.Random(7)
    space = VarSpace(2)
    scalars = [0, 3, -1, Fraction(2, 3), Fraction(4, 2), "5/2", ZERO, ONE, IMAG,
               GaussianRational(2), GaussianRational(1, -2)]
    scalars += [random_coeff(rng, with_imag=True) for _ in range(10)]
    for _ in range(20):
        p = random_poly(rng, space, with_imag=rng.random() < 0.5)
        for c in scalars:
            want = p * space.const(c)
            for got in (p * c, c * p):
                assert got == want and stored_form(got) == stored_form(want)
        assert (p * 0).is_zero() and (0 * p).is_zero()
        for make in (lambda: p * 0.5, lambda: 0.5 * p):
            with pytest.raises(TypeError, match="inexact float"):
                make()


def test_type_d_pi_map_matches_products_with_a_constant():
    rng = random.Random(8)
    for w in [delta(VarSpace(2), 2)] + [random_free_fermionic("D", rng) for _ in range(5)]:
        i, zero = w.space.const(IMAG), w.space.zero()
        want = [[zero, zero, zero, w.d1],
                [zero, w.a2 * i, -(w.b1 * i), zero],
                [zero, w.b2 * i, w.a1 * i, zero],
                [w.d2, zero, zero, zero]]
        got = pi_map(w)
        for r in range(4):
            for c in range(4):
                assert stored_form(got[r, c]) == stored_form(want[r][c])


def gamma_10_state():
    """The first gamma lambda=(1,0) state, GT pattern ((2, 0), (2,)), from
    literal rows, so that collecting this module needs no state builder."""
    boundary = BoundarySpec(IceKind.GAMMA, (1, 0))
    return LatticeState(boundary, [(-1, 1, -1), (-1, 1, 1), (1, 1, 1)],
                        [(1, 1, 1, -1), (1, -1, -1, -1)])


def value_objects():
    """One instance of each immutable value class."""
    space = VarSpace(2)
    state = gamma_10_state()
    weights = gamma(space, 1)
    return [GaussianRational(1, -2), space, space.z(1) * IMAG + space.t(2, 3),
            state.boundary, GTPattern(((2, 0), (2,))), state, weights.end2(), weights]


@pytest.mark.parametrize("value", value_objects(), ids=lambda v: type(v).__name__)
def test_values_survive_pickle_and_copy(value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        assert type(clone) is type(value)
        assert clone == value
        assert hash(clone) == hash(value)
        name = type(value).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(clone, name, None)
        with pytest.raises(AttributeError):
            delattr(clone, name)
        assert getattr(clone, name) == getattr(value, name)


def slot_equality_cases():
    """A builder for each class with slot-wise equality, its input, and an
    input that changes one constructor argument."""
    space = VarSpace(2)
    one, z, t = space.one(), space.z(1), space.t(2)
    state = gamma_10_state()
    boundary = state.boundary
    flipped = [list(row) for row in state.horizontal]
    flipped[0][1] = -flipped[0][1]
    return [
        pytest.param(lambda lam: BoundarySpec(IceKind.GAMMA, lam), (1, 0), (1, 1),
                     id="BoundarySpec"),
        pytest.param(GTPattern, ((1, 0), (1,)), ((1, 0), (0,)), id="GTPattern"),
        pytest.param(lambda h: LatticeState(boundary, state.vertical, h),
                     state.horizontal, flipped, id="LatticeState"),
        pytest.param(PolyMatrix, [[one, z], [t, one]], [[one, z], [t, z]],
                     id="PolyMatrix"),
        pytest.param(lambda d2: VertexWeights.type_d(one, one, z, t, one, d2), z, t,
                     id="VertexWeights"),
    ]


@pytest.mark.parametrize("build, inputs, changed", slot_equality_cases())
def test_slot_equality_and_hash(build, inputs, changed):
    value, twin = build(inputs), build(copy.deepcopy(inputs))
    assert value is not twin
    assert value == twin and hash(value) == hash(twin)
    assert build(changed) != value
    for other in value_objects():
        if type(other) is not type(value):
            assert not value == other and not other == value


def test_variable_indices_must_be_ints_not_bools():
    # True == 1, so a bool index used to name z1; a float failed inside a shift
    space = VarSpace(2)
    p = space.z(1) * space.t(2) + space.z(2)
    for bad in (True, False, 1.0, Fraction(1), "1"):
        message = re.escape(f"variable index must be an int, got {bad!r}")
        for make in (lambda: space.z(bad), lambda: space.t(bad),
                     lambda: space.z(bad, 2), lambda: p.degree_in_t(bad),
                     lambda: p.substitute(z={bad: 1}), lambda: p.substitute(t={bad: 1})):
            with pytest.raises(TypeError, match=message):
                make()
    # the index is checked before the exponent
    with pytest.raises(TypeError, match="variable index"):
        space.z(True, -1)


@contextlib.contextmanager
def counted_multiplies():
    """Count the polynomial multiplies, which all run through ``poly._dot``."""
    calls = []
    real = poly._dot

    def counting(space, pairs, minus=()):
        calls.append(space)
        return real(space, pairs, minus)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poly, "_dot", counting)
        yield calls


def test_varspace_guards():
    with pytest.raises(ValueError):
        VarSpace(-1)
    for rank in (True, 2.0, "2"):
        with pytest.raises(TypeError, match="rank must be an int"):
            VarSpace(rank)
    space = VarSpace(2)
    with pytest.raises(IndexError):
        space.z(0)
    with pytest.raises(IndexError):
        space.t(3)
    with pytest.raises(ValueError):
        space.z(1, -1)
    assert space.z(1, 0) == space.one()
    assert VarSpace(0).one().is_constant()
    with pytest.raises(AttributeError):
        space.n = 5


def test_one_varspace_object_per_rank():
    space = VarSpace(3)
    assert VarSpace(3) is space
    for clone in (pickle.loads(pickle.dumps(space)), copy.copy(space),
                  copy.deepcopy(space)):
        assert clone is space
    for poly in (pickle.loads(pickle.dumps(space.z(1))), copy.deepcopy(space.z(1))):
        assert poly.space is space


def test_rank_is_validated_before_the_registry_lookup():
    # True == 1 and 2.0 == 2 would find the registered spaces of rank 1 and 2
    VarSpace(1), VarSpace(2)
    for rank in (True, 2.0):
        with pytest.raises(TypeError, match="rank must be an int"):
            VarSpace(rank)
    with pytest.raises(ValueError, match="rank must be non-negative"):
        VarSpace(-1)


def mixed_space_builds():
    """A value or operation of each layer given rank-1 and rank-2 operands."""
    one, two = VarSpace(1), VarSpace(2)
    return [
        pytest.param(lambda: one.z(1) + two.z(1), id="Polynomial"),
        pytest.param(lambda: poly_sum([one.z(1), two.z(1)]), id="poly_sum"),
        pytest.param(lambda: poly_sum([two.z(1)], one), id="poly_sum-given-space"),
        pytest.param(lambda: prod([two.z(1)], one), id="prod-given-space"),
        pytest.param(lambda: prod([one.z(1), two.z(1)]), id="prod-later-factor"),
        pytest.param(lambda: PolyMatrix([[one.one(), one.one()], [one.one(), two.one()]]),
                     id="PolyMatrix"),
        pytest.param(lambda: PolyMatrix.identity(one, 2) @ PolyMatrix.identity(two, 2),
                     id="matmul"),
        pytest.param(lambda: VertexWeights.type_c(*[one.one()] * 5, two.one()),
                     id="VertexWeights"),
        pytest.param(lambda: r_solution_space(gamma(one, 1), gamma(two, 1)),
                     id="r_solution_space"),
        pytest.param(lambda: compose(gamma(one, 1), gamma(two, 1)), id="compose"),
        # the spaces are compared before the free-fermion precondition
        pytest.param(lambda: compose(VertexWeights.type_c(*[one.one()] * 5, one.const(3)),
                                     gamma(two, 1)), id="compose-not-free-fermionic"),
    ]


@pytest.mark.parametrize("build", mixed_space_builds())
def test_every_space_check_gives_one_mismatch_message(build):
    with pytest.raises(ValueError, match=r"^variable space mismatch: "
                                         r"VarSpace\(1\) vs VarSpace\(2\)$"):
        build()


def test_polynomials_of_different_spaces_are_unequal():
    assert VarSpace(1).one() != VarSpace(2).one()
    assert VarSpace(1).zero() != VarSpace(0).zero()


def test_ring_axioms_on_random_samples():
    rng = random.Random(0)
    space = VarSpace(2)
    for _ in range(25):
        a = random_poly(rng, space, with_imag=True)
        b = random_poly(rng, space, with_imag=True)
        c = random_poly(rng, space, with_imag=True)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + space.zero() == a
        assert a * space.one() == a
        assert (a - a).is_zero()


def test_poly_sum_matches_repeated_addition():
    rng = random.Random(1)
    space = VarSpace(2)
    polys = [random_poly(rng, space) for _ in range(10)]
    expected = space.zero()
    for p in polys:
        expected = expected + p
    assert poly_sum(polys) == expected
    assert poly_sum([], space).is_zero()
    with pytest.raises(ValueError):
        poly_sum([])
    with pytest.raises(ValueError):
        poly_sum([space.one(), VarSpace(1).one()])


def test_subtraction_negates_the_monomials_only_the_right_side_has():
    space = VarSpace(1)
    z, t, i = space.z(1), space.t(1), space.const(IMAG)
    p = 2 * z + 3
    q = z + Fraction(1, 2) * t - i * z * t  # t and z*t are new to p
    difference = Polynomial(space, {(1, 0): 1, (0, 0): 3, (0, 1): Fraction(-1, 2),
                                    (1, 1): IMAG})
    assert p - q == difference
    assert q - p == -difference
    assert poly_sum([p, -q]) == difference
    assert poly_sum([p, q]) == Polynomial(space, {(1, 0): 3, (0, 0): 3,
                                                  (0, 1): Fraction(1, 2), (1, 1): -IMAG})
    assert space.zero() - q == -q
    assert 1 - q == Polynomial(space, {(0, 0): 1, (1, 0): -1, (0, 1): Fraction(-1, 2),
                                       (1, 1): IMAG})


def term_map_oracle(p, q, sign):
    """p + sign*q, summed coefficient by coefficient over the public terms."""
    terms = dict(p.terms())
    for mono, coeff in q.terms():
        terms[mono] = terms.get(mono, ZERO) + sign * coeff
    return Polynomial(p.space, terms)


def test_sums_and_differences_match_a_term_map_oracle():
    rng = random.Random(5)
    space = VarSpace(2)
    for _ in range(40):
        p = random_poly(rng, space, with_imag=rng.random() < 0.5)
        q = random_poly(rng, space, max_terms=6, with_imag=rng.random() < 0.5)
        assert p - q == term_map_oracle(p, q, -1)
        assert p + q == term_map_oracle(p, q, 1)
        assert poly_sum([p, q]) == term_map_oracle(p, q, 1)
        assert all(c for _, c in (p - q).terms())
    # a zero operand on either side, as a polynomial or a scalar
    zero = space.zero()
    for p in (random_poly(rng, space, with_imag=True) + space.z(1), zero, space.const(3)):
        for nought in (zero, 0, ZERO):
            assert p + nought == nought + p == term_map_oracle(p, zero, 1)
            assert p - nought == term_map_oracle(p, zero, -1)
            assert nought - p == term_map_oracle(zero, p, -1)
        # the sum is the other operand itself; no term map is copied
        assert p + zero is p and zero + p is p and p - zero is p
    for scalar in (3, Fraction(-1, 2), IMAG):
        assert zero + scalar == scalar + zero == space.const(scalar)
        assert zero - scalar == -space.const(scalar)
        assert scalar - zero == space.const(scalar)
    # the space check still runs first
    for make in (lambda: zero + VarSpace(1).zero(), lambda: zero - VarSpace(1).z(1),
                 lambda: VarSpace(1).zero() - zero):
        with pytest.raises(ValueError, match="variable space mismatch"):
            make()


def test_products_whose_terms_cancel():
    space = VarSpace(1)
    z, t, i = space.z(1), space.t(1), space.const(IMAG)
    assert ((z + t) * (z - t)).terms() == [((2, 0), ONE), ((0, 2), -ONE)]
    assert (z + i * t) * (z - i * t) == Polynomial(space, {(2, 0): 1, (0, 2): 1})
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert ((half * z + third) * (half * z - third)).terms() == [
        ((2, 0), GaussianRational(Fraction(1, 4))), ((0, 0), GaussianRational(Fraction(-1, 9)))]
    # one monomial stored, cancelled to zero, then stored again
    zero = space.zero()
    row = PolyMatrix([[z, z, z], [zero] * 3, [zero] * 3])
    column = PolyMatrix([[z, zero, zero], [-z, zero, zero], [z, zero, zero]])
    assert (row @ column)[0, 0] == z * z
    four = PolyMatrix([[z, z, z, z]] + [[zero] * 4] * 3)
    alternating = PolyMatrix([[sign * z, zero, zero, zero] for sign in (1, -1, 1, -1)])
    square = four @ alternating
    assert square.is_zero()


def test_prod_empty_and_space_mismatch():
    space = VarSpace(1)
    assert prod([], space) == space.one()
    with pytest.raises(ValueError):
        prod([])
    with pytest.raises(ValueError):
        space.one() + VarSpace(2).one()


def polynomials_of(space):
    """Polynomials of `space` with up to three terms, with rational and
    Gaussian coefficients."""
    monos = st.tuples(*[st.integers(0, 2)] * (2 * space.n))
    coeffs = st.one_of(st.integers(-3, 3),
                       st.fractions(min_value=-2, max_value=2, max_denominator=3),
                       st.builds(GaussianRational, st.integers(-2, 2), st.integers(-1, 1)))
    return st.builds(Polynomial, st.just(space), st.dictionaries(monos, coeffs, max_size=3))


@st.composite
def factor_lists(draw):
    """Up to five polynomials of one space."""
    space = VarSpace(draw(st.integers(0, 2)))
    return space, [draw(polynomials_of(space)) for _ in range(draw(st.integers(0, 5)))]


def _cancelling_factors():
    space = VarSpace(1)
    z, t, i = space.z(1), space.t(1), space.const(IMAG)
    return space, [z + t, z - t, z + i * t, z - i * t]


def _exponent_or(p):
    """Per variable, the bitwise OR of its exponents over the terms of `p`."""
    ors = [0] * (2 * p.n)
    for mono, _ in p.terms():
        ors = [a | e for a, e in zip(ors, mono)]
    return ors


def _prod_multiplies(factors):
    """The ``_dot`` calls that ``prod`` makes: one per factor of two or more
    terms, up to the first zero factor, whose exponents share a bit with
    those of the product of the wide factors before it.  Such a factor
    cannot make two term products meet, so its product needs no merge; nor
    does applying the folded one-term factors, which shifts each monomial."""
    calls, body = 0, None
    for f in factors:
        if f.is_zero():
            break
        if len(f._terms) < 2:
            continue
        if body is not None and any(a & b for a, b in zip(_exponent_or(body),
                                                          _exponent_or(f))):
            calls += 1
        body = f if body is None else body * f
    return calls


@settings(max_examples=150, deadline=None)
@given(factor_lists())
@example(_cancelling_factors())
def test_prod_matches_the_left_fold_of_products(drawn):
    space, factors = drawn
    folded = functools.reduce(operator.mul, factors) if factors else space.one()
    for given_space in (space, None) if factors else (space,):
        with counted_multiplies() as calls:
            got = prod(iter(factors), given_space)
        assert got == folded and stored_form(got) == stored_form(folded)
        assert len(calls) == _prod_multiplies(factors)


@st.composite
def signed_pair_lists(draw):
    """A space, then up to three pairs to add and up to three to subtract."""
    space = VarSpace(draw(st.integers(0, 2)))
    pairs = st.lists(st.tuples(polynomials_of(space), polynomials_of(space)), max_size=3)
    return space, draw(pairs), draw(pairs)


def _signed_example():
    space = VarSpace(1)
    z, t, i = space.z(1), space.t(1), space.const(IMAG)
    # z*z is added then subtracted; t*t and i*z*t are subtracted at new monomials
    return space, [(z, z + t)], [(z, z), (t, t - i * z), (space.const(Fraction(1, 2)), z)]


@settings(max_examples=150, deadline=None)
@given(signed_pair_lists())
@example(_signed_example())
def test_dot_minus_equals_the_dot_of_negated_left_factors(drawn):
    space, pairs, minus = drawn
    got = poly._dot(space, pairs, minus)
    want = poly._dot(space, pairs + [(-left, right) for left, right in minus])
    assert got == want and stored_form(got) == stored_form(want)


def test_prod_overflows_at_the_same_factor_as_the_fold():
    space = VarSpace(2)
    factors = [space.z(1, EXPONENT_LIMIT - 3) + space.t(2), space.z(1) - space.t(1),
               space.z(1, 2), space.z(2), space.z(1)]

    def drawn(seen):
        for f in factors:
            seen.append(f)
            yield f

    outcomes = []
    for multiply in (lambda fs: functools.reduce(operator.mul, fs), prod):
        seen = []
        with pytest.raises(OverflowError) as info:
            multiply(drawn(seen))
        outcomes.append((len(seen), str(info.value)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 3


def _fold(factors):
    return functools.reduce(operator.mul, factors)


def _overflow_point(multiply, factors):
    """How many factors ``multiply`` drew before it raised OverflowError,
    with the message; None when it returned."""
    seen = []

    def drawn():
        for f in factors:
            seen.append(f)
            yield f

    try:
        multiply(drawn())
    except OverflowError as error:
        return len(seen), str(error)
    return None


HALF = EXPONENT_LIMIT // 2
_ONE, _TWO = VarSpace(1), VarSpace(2)


@pytest.mark.parametrize("factors, at", [
    pytest.param([_TWO.z(1, EXPONENT_LIMIT - 3), _TWO.t(2), _TWO.z(1, 2), _TWO.z(2), _TWO.z(1)],
                 5, id="one-term-factors-alone"),
    # the folded z exponent, 2*HALF + HALF - 2, is past the limit, and
    # adding it to the OR of the multiplied part's z exponents carries out
    # of the z field; the folded monomial's own guard bit shows it
    pytest.param([_ONE.z(1, HALF) + _ONE.z(1, HALF - 1), _ONE.z(1, HALF - 1),
                  _ONE.z(1, EXPONENT_LIMIT - 1), _ONE.t(1)], 3, id="folded-field-past-the-limit"),
    pytest.param([_TWO.z(1, EXPONENT_LIMIT - 3), _TWO.t(1), _TWO.z(1) + _TWO.t(1),
                  _TWO.z(1, 2) + 1], 4, id="wide-factor-after-folded-ones"),
])
def test_prod_of_one_term_factors_overflows_at_the_same_factor_as_the_fold(factors, at):
    expected = _overflow_point(_fold, factors)
    assert expected is not None and expected[0] == at
    assert _overflow_point(prod, factors) == expected


def test_prod_past_a_zero_factor_is_zero_as_the_fold_is():
    top = _ONE.z(1, EXPONENT_LIMIT - 1)
    z = _ONE.z(1)
    for factors in ([z + 1, _ONE.zero(), top, top], [_ONE.zero(), top, z + 1, top],
                    [top, _ONE.zero(), top]):
        assert _fold(factors).is_zero()
        assert prod(factors) == _ONE.zero()
    # every later factor's space is still checked
    with pytest.raises(ValueError, match="variable space mismatch"):
        prod([_ONE.zero(), top, _TWO.z(1)])


def test_prod_whose_monomial_or_passes_the_limit_stays_below_it():
    # the OR of the z exponents HALF and HALF - 1 is 2*HALF - 1, so the bound
    # of the product with z^(HALF - 1) passes the limit while its largest
    # exponent, 2*HALF - 1, stays below it
    wide = _ONE.z(1, HALF) + _ONE.z(1, HALF - 1)
    for factors in ([wide, _ONE.z(1, HALF - 1), _ONE.t(1)],
                    [_ONE.z(1, HALF - 1), Fraction(1, 2) * wide, _ONE.t(1, 3)]):
        got, folded = prod(factors), _fold(factors)
        assert got == folded and stored_form(got) == stored_form(folded)
        assert got._degree(got.space._offset(1, 0)) == EXPONENT_LIMIT - 1


_THREE = VarSpace(3)


def _term_by_term(factors):
    """The product of `factors` from their exponent tuples, with no packing."""
    space = factors[0].space
    return functools.reduce(lambda a, b: Polynomial(space, _tuple_product(a, b)), factors)


@pytest.mark.parametrize("factors", [
    # each variable's exponents share no bit with the running product's
    pytest.param([_ONE.z(1) + _ONE.z(1, 2), _ONE.z(1, 4) - _ONE.z(1, 8),
                  _ONE.z(1, 16) + Fraction(1, 3) * _ONE.z(1, 32)],
                 id="shared-variable-disjoint-bits"),
    pytest.param(_cancelling_factors()[1], id="shared-variable-cancelling"),
    pytest.param([_THREE.z(1) + 2 * _THREE.t(1), _THREE.z(2, 3),
                  _THREE.z(2) - Fraction(1, 3) * _THREE.t(2),
                  _THREE.z(3) + IMAG * _THREE.t(3) + 1], id="no-variable-in-common"),
    pytest.param([_ONE.z(1) + 1, _ONE.z(1) + 1, _ONE.z(1) - _ONE.t(1)], id="overlapping"),
    # the third factor overlaps the first, not the second
    pytest.param([_ONE.z(1) + 1, _ONE.t(1) + 2, _ONE.z(1) - 3],
                 id="overlap-after-a-disjoint-product"),
    pytest.param([_TWO.z(1, HALF) + _TWO.t(2), _TWO.z(1, HALF - 1) - IMAG * _TWO.z(2),
                  _TWO.t(1, EXPONENT_LIMIT - 1) + _TWO.t(2, HALF)], id="just-under-the-limit"),
])
def test_prod_of_wide_factors_matches_the_fold_and_the_term_by_term_product(factors):
    folded = _fold(factors)
    with counted_multiplies() as calls:
        got = prod(factors)
    assert got == folded == _term_by_term(factors)
    assert stored_form(got) == stored_form(folded)
    assert len(calls) == _prod_multiplies(factors)


@pytest.mark.parametrize("factors, at", [
    # z1^HALF times z1^(HALF - 1) shares no bit and reaches the limit only
    # at the third factor, so the disjoint product's exponents must show
    pytest.param([_ONE.z(1, HALF) + 1, _ONE.z(1, HALF - 1) + _ONE.t(1), _ONE.z(1)],
                 3, id="one-term-factor-after-a-disjoint-product"),
    pytest.param([_ONE.z(1, HALF) + 1, _ONE.t(1) + 1, _ONE.z(1, HALF) + _ONE.t(1)],
                 3, id="wide-factor-after-a-disjoint-product"),
    pytest.param([_TWO.z(1, HALF) + _TWO.t(2), _TWO.z(2) + 1, _TWO.z(1, HALF - 1) - _TWO.t(1),
                  _TWO.z(1) * _TWO.t(2)], 4, id="disjoint-products-then-a-folded-term"),
])
def test_prod_of_wide_factors_overflows_at_the_same_factor_as_the_fold(factors, at):
    expected = _overflow_point(_fold, factors)
    assert expected is not None and expected[0] == at
    assert _overflow_point(prod, factors) == expected


@st.composite
def small_polynomials(draw):
    space = VarSpace(draw(st.integers(0, 2)))
    monos = st.tuples(*[st.integers(0, 2)] * (2 * space.n))
    coeffs = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-1, 1))
    return Polynomial(space, draw(st.dictionaries(monos, coeffs, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(small_polynomials(), st.integers(0, 40))
def test_power_by_repeated_squaring_matches_the_product(p, e):
    expected = prod([p] * e, p.space)
    with counted_multiplies() as calls:
        assert p ** e == expected
    assert len(calls) <= 2 * e.bit_length()


def test_power_past_the_limit_fails_at_a_squaring():
    z = VarSpace(1).z(1)
    message = re.escape("exponent overflow: a product has an exponent at or above "
                        f"the limit {EXPONENT_LIMIT}")
    with counted_multiplies() as calls:
        with pytest.raises(OverflowError, match=message):
            z ** 40000
    assert len(calls) <= 16
    expected = prod([z + 1] * 200)
    with counted_multiplies() as calls:
        assert (z + 1) ** 200 == expected
    assert len(calls) <= 2 * (200).bit_length()


def test_exact_div_inverts_multiplication():
    rng = random.Random(2)
    space = VarSpace(2)
    for _ in range(20):
        a = random_poly(rng, space, with_imag=True)
        b = random_poly(rng, space, with_imag=True)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a


def test_exact_div_guards():
    space = VarSpace(1)
    z = space.z(1)
    with pytest.raises(ZeroDivisionError):
        z.exact_div(space.zero())
    with pytest.raises(ValueError):
        (z + 1).exact_div(z)
    assert (z * z - 1).exact_div(z + 1) == z - 1


@contextlib.contextmanager
def counted_heap_growth():
    """Record the monomials that ``exact_div`` pushes onto its heap; a
    ``heapify`` is recorded as None."""
    grown = []

    def heappush(heap, item):
        grown.append(-item)
        heapq.heappush(heap, item)

    def heapify(heap):
        grown.append(None)
        heapq.heapify(heap)

    counting = types.SimpleNamespace(heappush=heappush, heapify=heapify,
                                     heappop=heapq.heappop)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poly, "heapq", counting)
        yield grown


def test_exact_div_heaps_the_products_the_dividend_lacks():
    space = VarSpace(2)
    z1, z2 = space.z(1), space.z(2)
    # z1^2 * (-z2) gives z1^2*z2, which z1^3 - z2^3 lacks
    with counted_heap_growth() as grown:
        assert (z1 ** 3 - z2 ** 3).exact_div(z1 - z2) == z1 ** 2 + z1 * z2 + z2 ** 2
    assert grown and None not in grown
    # rank 1: a monomial of a*b cancels, and a later product creates it again
    rank1 = VarSpace(1)
    z, t = rank1.z(1), rank1.t(1)
    a = -t * z ** 2 - t ** 2 * z - z ** 2 - t * z
    b = z ** 2 + t * z - t ** 2 - t
    product = a * b
    with counted_heap_growth() as grown:
        assert product.exact_div(b) == a
    assert any(mono in product._terms for mono in grown)


@pytest.mark.parametrize("kind", [IceKind.GAMMA, IceKind.DELTA], ids=lambda k: k.value)
def test_dividing_out_a_factor_heaps_nothing(kind):
    # every product monomial of these divisions is already a dividend monomial
    s = schur.schur_bialternant((2, 1, 0, 0, 0))
    den = schur.deformed_denominator(kind, 5)
    product = den * s
    with counted_heap_growth() as grown:
        assert product.exact_div(den) == s
        assert product.exact_div(s) == den
    assert grown == []


def test_inexact_division_names_the_whole_remainder():
    space = VarSpace(2)
    z1, z2 = space.z(1), space.z(2)
    # the first indivisible monomial, 2*z2^2, is a dividend monomial
    with pytest.raises(ValueError) as info:
        (z1 ** 2 + z2 ** 2 + 1).exact_div(z1 + z2)
    assert str(info.value) == "inexact division, remainder 2*z2^2 + 1"
    # the first indivisible monomial, z2^2, is one that a product created
    with pytest.raises(ValueError) as info:
        (z1 ** 2 + 1).exact_div(z1 + z2)
    assert str(info.value) == "inexact division, remainder z2^2 + 1"


def test_a_long_inexact_division_remainder_shows_its_leading_terms_and_count():
    space = VarSpace(2)
    z1, z2 = space.z(1), space.z(2)
    # z1 divides no power of z2, so the whole dividend is the remainder
    eight = "z2^11 + z2^10 + z2^9 + z2^8 + z2^7 + z2^6 + z2^5 + z2^4"
    for count in (8, 9, 12):
        with pytest.raises(ValueError) as info:
            poly_sum(z2 ** k for k in range(12 - count, 12)).exact_div(z1)
        tail = "" if count == 8 else f" + ... ({count} terms)"
        assert str(info.value) == f"inexact division, remainder {eight}{tail}"


def test_canonical_order_and_text_rendering():
    space = VarSpace(2)
    p = (space.z(1) + space.t(1) * space.z(2)) ** 2
    # graded order: t1^2 z2^2 (grade 4), 2 t1 z1 z2 (grade 3), z1^2 (grade 2)
    assert str(p) == "t1^2*z2^2 + 2*t1*z1*z2 + z1^2"
    monos = [m for m, _ in p.terms()]
    assert monos == [(0, 2, 2, 0), (1, 1, 1, 0), (2, 0, 0, 0)]
    assert str(space.zero()) == "0"
    assert str(space.t(1) * space.z(2) + space.z(1)) == "t1*z2 + z1"
    assert str(space.z(1) - space.z(2)) == "z1 - z2"
    assert str(space.const(IMAG) * space.z(1)) == "i*z1"
    assert str(space.const(GaussianRational(1, 1)) * space.z(1)) == "(1+i)*z1"


def _stored_minus_two(space):
    # i * 2i keeps the GaussianRational type for the real product -2
    return space.const(IMAG) * (2 * IMAG)


@pytest.mark.parametrize("coeff, alone, times_z1, second", [
    (1, "1", "z1", "z1 + z2"),
    (-1, "-1", "-z1", "z1 - z2"),
    (2, "2", "2*z1", "z1 + 2*z2"),
    (Fraction(-3, 2), "-3/2", "-3/2*z1", "z1 - 3/2*z2"),
    (IMAG, "i", "i*z1", "z1 + i*z2"),
    (-IMAG, "-i", "-i*z1", "z1 - i*z2"),
    (2 * IMAG, "2*i", "2*i*z1", "z1 + 2*i*z2"),
    (Fraction(-3, 2) * IMAG, "-3/2*i", "-3/2*i*z1", "z1 - 3/2*i*z2"),
    (GaussianRational(1, 1), "(1+i)", "(1+i)*z1", "z1 + (1+i)*z2"),
    (GaussianRational(-1, 1), "(-1+i)", "(-1+i)*z1", "z1 + (-1+i)*z2"),
    (GaussianRational(1, -1), "(1-i)", "(1-i)*z1", "z1 + (1-i)*z2"),
    (_stored_minus_two, "-2", "-2*z1", "z1 - 2*z2"),
])
def test_term_signs_in_printed_polynomials(coeff, alone, times_z1, second):
    space = VarSpace(2)
    z1, z2 = space.z(1), space.z(2)
    c = coeff(space) if callable(coeff) else space.const(coeff)
    if callable(coeff):
        assert all(type(v) is GaussianRational for v in c._terms.values())
    assert str(c) == alone
    assert str(c * z1) == times_z1
    assert str(z1 + c * z2) == second


def test_substitute_and_evaluate():
    space = VarSpace(2)
    p = space.z(1, 2) * space.t(2) + space.z(2)
    q = p.substitute(z={1: 3})
    assert q == space.const(9) * space.t(2) + space.z(2)
    assert p.evaluate([3, 5], [7, 11]) == GaussianRational(9 * 11 + 5)
    assert p.substitute(t={2: Fraction(1, 2)}).evaluate([2, 0], [0, 0]) == 2
    with pytest.raises(IndexError):
        p.substitute(z={3: 1})
    with pytest.raises(ValueError):
        p.evaluate([1], [1, 1])


def test_substitution_powers_by_repeated_squaring(monkeypatch):
    # at the largest exponent, one multiply per unit would be 32,767 multiplies
    top = EXPONENT_LIMIT - 1
    assert VarSpace(1).z(1, top).substitute(z={1: 3}) == 3 ** top
    calls = []
    real = GaussianRational.__mul__

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(GaussianRational, "__mul__", counting)
    monkeypatch.setattr(GaussianRational, "__rmul__", counting)
    z = VarSpace(1).z
    for k in (1, 2, 3, 100, 8191):
        calls.clear()
        # (1+i)^4 = -4
        assert z(1, 4 * k).substitute(z={1: GaussianRational(1, 1)}) == (-4) ** k
        assert len(calls) <= 2 * (4 * k).bit_length()


def test_permute_rank_variables():
    space = VarSpace(2)
    p = space.z(1) * space.t(2, 2)
    assert p.permute_rank_variables([2, 1]) == space.z(2) * space.t(1, 2)
    rng = random.Random(3)
    for _ in range(10):
        q = random_poly(rng, space)
        assert q.permute_rank_variables([2, 1]).permute_rank_variables([2, 1]) == q
        assert q.permute_rank_variables([1, 2]) == q
    with pytest.raises(ValueError):
        p.permute_rank_variables([1, 1])
    # an entry follows the integer-argument rule before the permutation check
    for sigma in ([True, 2], [1.0, 2]):
        message = re.escape(f"permutation entry must be an int, got {sigma[0]!r}")
        with pytest.raises(TypeError, match=message):
            p.permute_rank_variables(sigma)


def test_degrees_and_t_detection():
    space = VarSpace(2)
    p = space.z(1, 3) * space.t(1) + space.z(2)
    assert p._degree(space._offset(1, 0)) == 3
    assert p._degree(space._offset(2, 0)) == 1
    assert p.degree_in_t(1) == 1
    assert p.degree_in_t(2) == 0
    assert space.zero().degree_in_t(1) == -1
    assert p.contains_t()
    assert not space.z(1).contains_t()


def test_constant_handling_and_coercion():
    space = VarSpace(1)
    p = space.z(1)
    assert (p + 1) - 1 == p
    assert 2 * p == p + p
    assert (3 - p) + p == space.const(3)
    assert space.zero().is_constant()
    assert space.zero().constant_value() == ZERO
    assert space.const(Fraction(2, 3)).constant_value() == Fraction(2, 3)
    with pytest.raises(ValueError):
        p.constant_value()


def _constant_or_error(p):
    try:
        return p.constant_value()
    except ValueError as exc:
        return str(exc)


def test_cancelled_imaginary_parts_look_like_the_real_value():
    # a coefficient computed from Gaussian ones may keep the Gaussian type
    # after its imaginary part cancels; no public view may show the type
    space = VarSpace(1)
    z1, t1 = space.z(1), space.t(1)
    pairs = [((IMAG * z1) * (IMAG * z1), -(z1 * z1)),
             ((z1 + IMAG * t1) + (z1 - IMAG * t1), 2 * z1),
             (space.const(IMAG) * IMAG, space.const(-1))]
    for got, want in pairs:
        assert got == want and want == got
        assert hash(got) == hash(want)
        assert str(got) == str(want)
        assert got.to_json() == want.to_json()
        assert got.terms() == want.terms()
        assert _constant_or_error(got) == _constant_or_error(want)
    rng = random.Random(5)
    r, t = (random_free_fermionic("D", rng) for _ in range(2))
    assert pi_map(compose(r, t)) == pi_map(r) @ pi_map(t)


def test_pow_and_leading():
    space = VarSpace(1)
    p = space.z(1) + 1
    assert p ** 0 == space.one()
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1
    mono, coeff = (2 * space.z(1, 2) + space.t(1)).leading()
    assert mono == (2, 0) and coeff == 2
    with pytest.raises(ValueError):
        space.zero().leading()


def test_json_round_trip():
    rng = random.Random(4)
    space = VarSpace(3)
    for _ in range(15):
        p = random_poly(rng, space, with_imag=True)
        data = p.to_json()
        assert Polynomial.from_json(data) == p
        # serialized terms follow the canonical order
        assert [tuple(t["z"]) + tuple(t["t"]) for t in data["terms"]] \
            == [m for m, _ in p.terms()]
    with pytest.raises(ValueError):
        Polynomial.from_json({"n": 1, "terms": [
            {"z": [1], "t": [0], "re": "1", "im": "0"},
            {"z": [1], "t": [0], "re": "2", "im": "0"}]})
    # exponents and the rank go to the constructor's checks, not through int()
    for n, z in ((1, [1.9]), (1, ["2"]), (1.7, [1]), (True, [1]), (1, [True]),
                 (1, [False])):
        with pytest.raises(TypeError):
            Polynomial.from_json({"n": n, "terms": [
                {"z": z, "t": [0], "re": "1", "im": "0"}]})
    # coefficient parts are strings, as to_json writes them, not read through Fraction()
    for re_part, im_part in ((True, "0"), (1, "0"), (1.5, "0"), ("1", False)):
        with pytest.raises(TypeError):
            Polynomial.from_json({"n": 1, "terms": [
                {"z": [1], "t": [0], "re": re_part, "im": im_part}]})


def test_polynomial_validation_and_immutability():
    space = VarSpace(1)
    # the space is checked before any term is read
    for terms in ({}, {(1, 0): ONE}):
        with pytest.raises(TypeError, match="space must be a VarSpace, got None"):
            Polynomial(None, terms)
    with pytest.raises(ValueError):
        Polynomial(space, {(1,): ONE})
    with pytest.raises(ValueError):
        Polynomial(space, {(-1, 0): ONE})
    # a bool is not an exponent, as it is not a rank
    for mono in ((True, 0), (0, False)):
        with pytest.raises(TypeError):
            Polynomial(space, {mono: ONE})
    for power in (True, False, 2.0, Fraction(2)):
        message = re.escape(f"exponent must be an int, got {power!r}")
        for make in (lambda: space.z(1, power), lambda: space.t(1, power),
                     lambda: space.z(1) ** power):
            with pytest.raises(TypeError, match=message):
                make()
    p = space.z(1)
    with pytest.raises(AttributeError):
        p.space = VarSpace(2)
    assert Polynomial(space, {(0, 0): ZERO}).is_zero()
    # raw int and Fraction coefficients are coerced
    p = Polynomial(space, {(0, 0): 1, (1, 0): Fraction(1, 2), (0, 1): 0})
    assert p == space.one() + Fraction(1, 2) * space.z(1)
    assert str(p) == "1/2*z1 + 1"
    assert Polynomial.from_json(p.to_json()) == p


def test_floats_are_rejected_at_the_exact_boundary():
    space = VarSpace(1)
    p = space.z(1) + space.t(1)
    for make in (lambda: GaussianRational(0.5),
                 lambda: GaussianRational(1, 0.25),
                 lambda: GaussianRational(0.1),
                 lambda: space.const(0.1),
                 lambda: Polynomial(space, {(0, 0): 0.5}),
                 lambda: p + 0.5,
                 lambda: p * 2.0,
                 lambda: p.substitute(z={1: 0.5}),
                 lambda: p.evaluate([1], [0.5])):
        with pytest.raises(TypeError):
            make()
    # exact strings stay accepted
    assert GaussianRational("1/2") == Fraction(1, 2)
    assert str(space.const("1/2")) == "1/2"
    assert p.evaluate(["1/2"], ["1/3"]) == Fraction(5, 6)


def _tuple_product(a, b):
    """Reference product on exponent tuples, independent of any packing."""
    out = {}
    for m1, c1 in a.terms():
        for m2, c2 in b.terms():
            mono = tuple(e + f for e, f in zip(m1, m2))
            out[mono] = out.get(mono, ZERO) + c1 * c2
    return {m: c for m, c in out.items() if c}


def test_exponent_overflow_raises():
    limit = EXPONENT_LIMIT
    space = VarSpace(2)
    with pytest.raises(OverflowError):
        Polynomial(space, {(limit, 0, 0, 0): ONE})
    with pytest.raises(OverflowError):
        Polynomial(space, {(0, 0, 0, limit + 5): ONE})
    # an exponent entering by the constructor, from JSON or by z has one message
    message = re.escape(f"exponent 40000 is at or above the limit {limit}")
    for make in (lambda: Polynomial(space, {(0, 40000, 0, 0): ONE}),
                 lambda: Polynomial.from_json({"n": 1, "terms": [
                     {"z": [40000], "t": [0], "re": "1", "im": "0"}]}),
                 lambda: space.z(2, 40000)):
        with pytest.raises(OverflowError, match=message):
            make()
    with pytest.raises(OverflowError):
        space.z(1, limit)
    with pytest.raises(OverflowError):
        space.t(2, limit)
    with pytest.raises(OverflowError):
        space.z(2, limit - 1) * space.z(2)
    with pytest.raises(OverflowError):
        (space.t(1, limit - 3) + space.z(1)) * space.t(1, 3)
    with pytest.raises(OverflowError):
        space.z(1, limit // 2) ** 2
    # a quotient term times a divisor term past the limit
    with pytest.raises(OverflowError):
        (space.z(1, limit - 1) * space.t(1, 3)).exact_div(space.t(1, 3) + space.z(1, 2))


def test_products_just_under_the_exponent_limit():
    limit = EXPONENT_LIMIT
    space = VarSpace(2)
    top = Polynomial(space, {(limit - 1, 0, 0, limit - 1): ONE})
    assert top.terms() == [((limit - 1, 0, 0, limit - 1), ONE)]
    a = space.z(1, limit - 2) + 3 * space.t(1, limit - 3) * space.z(2) - space.t(2)
    b = space.z(1) - Fraction(1, 2) * space.t(1, 2) + space.const(IMAG) * space.t(2)
    product = a * b
    assert dict(product.terms()) == _tuple_product(a, b)
    assert product._degree(space._offset(1, 0)) == limit - 1
    assert product.degree_in_t(1) == limit - 1
    assert product.exact_div(b) == a
    half = space.z(1, limit // 2 - 1) + space.t(2)
    assert dict((half ** 2).terms()) == _tuple_product(half, half)
    assert space.z(1, limit - 1).leading() == ((limit - 1, 0, 0, 0), ONE)
