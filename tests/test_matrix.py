"""Tests for polynomial matrices."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sixvertex.matrix import PolyMatrix, _matdot, _sparse_rows
from sixvertex.poly import EXPONENT_LIMIT, IMAG, GaussianRational, VarSpace, _dot, poly_sum, prod


def random_matrix(rng, space, size):
    return PolyMatrix([[space.const(rng.randint(-5, 5)) for _ in range(size)]
                       for _ in range(size)])


def test_construction_guards():
    space = VarSpace(1)
    with pytest.raises(ValueError):
        PolyMatrix([])
    with pytest.raises(ValueError):
        PolyMatrix([[space.one()], [space.one()]])
    with pytest.raises(ValueError):
        PolyMatrix([[space.one(), VarSpace(2).one()],
                    [space.one(), space.one()]])
    m = PolyMatrix.identity(space, 3)
    with pytest.raises(AttributeError):
        m.size = 4


def test_identity_and_zeros():
    space = VarSpace(1)
    ident = PolyMatrix.identity(space, 3)
    zeros = PolyMatrix.zeros(space, 3)
    assert ident[0, 0] == space.one() and ident[0, 1].is_zero()
    assert zeros.is_zero() and not ident.is_zero()
    assert ident @ ident == ident
    assert ident + zeros == ident


def test_matmul_example():
    space = VarSpace(1)
    z = space.z(1)
    a = PolyMatrix([[z, space.one()], [space.zero(), z]])
    b = PolyMatrix([[space.one(), z], [z, space.zero()]])
    product = a @ b
    assert product[0, 0] == 2 * z
    assert product[0, 1] == z * z
    assert product[1, 0] == z * z
    assert product[1, 1].is_zero()
    with pytest.raises(ValueError):
        a @ PolyMatrix.identity(space, 3)


def test_add_sub_scale():
    rng = random.Random(0)
    space = VarSpace(1)
    a = random_matrix(rng, space, 3)
    b = random_matrix(rng, space, 3)
    assert (a + b) - b == a
    assert (a - a).is_zero()
    assert a.scale(space.const(2)) == a + a
    assert a.scale(space.z(1))[1, 2] == a[1, 2] * space.z(1)


def test_nonzero_entries_row_major():
    space = VarSpace(1)
    z = space.z(1)
    m = PolyMatrix([[space.zero(), z], [space.one(), space.zero()]])
    assert m.nonzero_entries() == [(0, 1, z), (1, 0, space.one())]


def test_scalar_value():
    space = VarSpace(1)
    z = space.z(1)
    assert PolyMatrix.identity(space, 2).scale(z).scalar_value() == z
    assert PolyMatrix.zeros(space, 2).scalar_value() == space.zero()
    off_diag = PolyMatrix([[z, space.one()], [space.zero(), z]])
    assert off_diag.scalar_value() is None
    unequal = PolyMatrix([[z, space.zero()], [space.zero(), space.one()]])
    assert unequal.scalar_value() is None


def test_matmul_refuses_mixed_spaces_whatever_the_entries():
    for left in (PolyMatrix.zeros(VarSpace(1), 2), PolyMatrix.identity(VarSpace(1), 2)):
        with pytest.raises(ValueError, match=r"variable space mismatch: "
                                             r"VarSpace\(1\) vs VarSpace\(2\)"):
            left @ PolyMatrix.identity(VarSpace(2), 2)


COEFFICIENTS = {
    "int": lambda rng: rng.randint(-3, 3),
    "fraction": lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    "gaussian": lambda rng: GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)),
}


def sparse_poly_matrix(rng, space, size, coefficient):
    """About 70% zero entries; the others have 1-3 terms of low degree."""
    def entry():
        if rng.random() < 0.7:
            return space.zero()
        return poly_sum((space.const(coefficient(rng))
                         * prod((space.z(i, rng.randint(0, 2)) * space.t(i, rng.randint(0, 1))
                                 for i in range(1, space.n + 1)), space)
                         for _ in range(rng.randint(1, 3))), space)
    return PolyMatrix([[entry() for _ in range(size)] for _ in range(size)])


def textbook_product(a, b):
    return PolyMatrix([[poly_sum((a[r, k] * b[k, c] for k in range(a.size)), a.space)
                        for c in range(a.size)] for r in range(a.size)])


@pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
def test_matmul_matches_the_textbook_sum(kind):
    rng = random.Random(f"matmul-{kind}")
    coefficient = COEFFICIENTS[kind]
    for size in (1, 2, 4, 8):
        for rank in (0, 1, 2):
            space = VarSpace(rank)
            for _ in range(3):
                a, b, c = (sparse_poly_matrix(rng, space, size, coefficient)
                           for _ in range(3))
                assert a @ b == textbook_product(a, b)
                assert (a @ b) @ c == a @ (b @ c)


@pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
def test_matmul_entries_with_no_pairs_are_zeros_of_the_space(kind):
    rng = random.Random(f"empty-{kind}")
    coefficient = COEFFICIENTS[kind]
    space = VarSpace(2)
    empty_entries = 0
    for size in (2, 4, 8):
        for _ in range(3):
            a, b = (sparse_poly_matrix(rng, space, size, coefficient) for _ in range(2))
            product = a @ b
            assert product == textbook_product(a, b)
            for r in range(size):
                for c in range(size):
                    if not any(a[r, k] and b[k, c] for k in range(size)):
                        empty_entries += 1
                        assert product[r, c].is_zero()
                        assert product[r, c].space is space
    assert empty_entries > 0


def test_matmul_entries_that_cancel_are_zero():
    space = VarSpace(1)
    x, one, zero = space.z(1), space.one(), space.zero()
    # the row [x, x] times the column [1, -1]
    product = PolyMatrix([[x, x], [zero, one]]) @ PolyMatrix([[one, x], [-one, zero]])
    assert product[0, 0].is_zero() and product[0, 0] == zero
    assert product == PolyMatrix([[zero, x * x], [-one, zero]])
    # the row [i*x, x] times the column [i, 1] over the Gaussian rationals
    i = space.const(IMAG)
    gaussian = PolyMatrix([[i * x, x], [zero, zero]])
    square = gaussian @ PolyMatrix([[i, zero], [one, zero]])
    assert square.is_zero()


def test_matmul_keeps_the_exponent_guard():
    space = VarSpace(1)
    top = PolyMatrix([[space.z(1, EXPONENT_LIMIT // 2 - 1)]])
    assert (top @ top)[0, 0] == space.z(1, EXPONENT_LIMIT - 2)
    half, zero = space.z(1, EXPONENT_LIMIT // 2), space.zero()
    over = PolyMatrix([[half]])
    with pytest.raises(OverflowError):
        over @ over
    # a product monomial that reaches the limit raises even when it cancels
    with pytest.raises(OverflowError):
        PolyMatrix([[half, half], [zero, zero]]) @ PolyMatrix([[half, zero], [-half, zero]])


def stored(p):
    """The terms of p with each stored coefficient's type beside its value."""
    return {m: (type(c), c) for m, c in p._terms.items()}


def per_entry_product(a, b):
    """a @ b as one _dot per entry over the pairs of nonzero a[r, k] and
    nonzero b[k, c] in k order, and the one zero where there is no pair."""
    size, zero = a.size, a.space.zero()
    rows = []
    for r in range(size):
        row = []
        for c in range(size):
            pairs = [(a[r, k], b[k, c]) for k in range(size) if a[r, k] and b[k, c]]
            row.append(_dot(a.space, pairs) if pairs else zero)
        rows.append(row)
    return rows


@st.composite
def sparse_matrix_pairs(draw):
    """Two sparse matrices of size 4 or 8 over ranks 0-3, with coefficients
    of one drawn kind, built by sparse_poly_matrix from a drawn stream."""
    space = VarSpace(draw(st.integers(0, 3)))
    size = draw(st.sampled_from((4, 8)))
    coefficient = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]
    rng = draw(st.randoms(use_true_random=False))
    return tuple(sparse_poly_matrix(rng, space, size, coefficient) for _ in range(2))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_matrix_pairs())
def test_matmul_matches_the_per_entry_dot(matrices):
    a, b = matrices
    product = a @ b
    want = per_entry_product(a, b)
    assert product.space is a.space and product.size == a.size
    for r in range(a.size):
        for c in range(a.size):
            assert stored(product[r, c]) == stored(want[r][c])
            assert product[r, c].space is a.space


def textbook_matdot(space, size, pairs, minus):
    """The sum of a @ b over pairs less the sum of c @ d over minus."""
    total = PolyMatrix.zeros(space, size)
    for a, b in pairs:
        total = total + a @ b
    for c, d in minus:
        total = total - c @ d
    return total


def sparse(products):
    """Each chain of matrices as a chain of their ``_sparse_rows``."""
    return [tuple(map(_sparse_rows, chain)) for chain in products]


@st.composite
def matdot_operands(draw):
    """0-2 pairs and 0-2 minus pairs of sparse matrices of one size and rank."""
    space = VarSpace(draw(st.integers(0, 2)))
    size = draw(st.sampled_from((1, 2, 4, 8)))
    coefficient = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]
    rng = draw(st.randoms(use_true_random=False))

    def operands():
        return [tuple(sparse_poly_matrix(rng, space, size, coefficient) for _ in range(2))
                for _ in range(draw(st.integers(0, 2)))]
    return space, size, operands(), operands()


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matdot_operands())
def test_matdot_matches_the_sum_of_products(operands):
    space, size, pairs, minus = operands
    got = _matdot(space, size, sparse(pairs), sparse(minus))
    want = textbook_matdot(space, size, pairs, minus)
    assert got.space is space and got.size == size
    for r in range(size):
        for c in range(size):
            assert got[r, c] == want[r, c]
            assert got[r, c].space is space


def holds_no_zero_coefficient(m):
    return all(all(entry._terms.values()) for row in m.rows for entry in row)


@pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
def test_matdot_subtracts_its_minus_pairs(kind):
    rng = random.Random(f"matdot-{kind}")
    coefficient = COEFFICIENTS[kind]
    space = VarSpace(2)
    for size in (2, 4, 8):
        for _ in range(3):
            a, b, c, d = (sparse_poly_matrix(rng, space, size, coefficient)
                          for _ in range(4))
            ab, ba, cd = sparse(((a, b), (b, a), (c, d)))
            assert _matdot(space, size, (ab,), (cd,)) == a @ b - c @ d
            # a commutator, and a difference that cancels to the one zero
            assert _matdot(space, size, (ab,), (ba,)) == a @ b - b @ a
            cancelled = _matdot(space, size, (ab, cd), (cd,))
            assert cancelled == a @ b and holds_no_zero_coefficient(cancelled)
            assert _matdot(space, size, (ab,), (ab,)).is_zero()
    assert _matdot(space, 2, (), ()) == PolyMatrix.zeros(space, 2)


def test_matdot_keeps_the_exponent_guard_on_minus():
    space = VarSpace(1)
    half, one = space.z(1, EXPONENT_LIMIT // 2), space.one()
    over, unit = PolyMatrix([[half]]), PolyMatrix([[one]])
    with pytest.raises(OverflowError):
        _matdot(space, 1, sparse(((unit, unit),)), sparse(((over, over),)))


def textbook_chain(space, size, chain):
    """The product of a chain of matrices, one textbook_matdot per factor."""
    return functools.reduce(
        lambda left, right: textbook_matdot(space, size, ((left, right),), ()), chain)


@st.composite
def matdot_chains(draw):
    """0-2 chains and 0-2 minus chains of 2-4 sparse matrices of one size and rank."""
    space = VarSpace(draw(st.integers(0, 2)))
    size = draw(st.sampled_from((1, 2, 4, 8)))
    coefficient = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]
    rng = draw(st.randoms(use_true_random=False))

    def chains():
        return [tuple(sparse_poly_matrix(rng, space, size, coefficient)
                      for _ in range(draw(st.integers(2, 4))))
                for _ in range(draw(st.integers(0, 2)))]
    return space, size, chains(), chains()


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matdot_chains())
def test_matdot_chains_match_the_composed_textbook_products(operands):
    space, size, chains, minus = operands
    got = _matdot(space, size, sparse(chains), sparse(minus))
    want = textbook_matdot(space, size,
                           [(textbook_chain(space, size, c[:-1]), c[-1]) for c in chains],
                           [(textbook_chain(space, size, c[:-1]), c[-1]) for c in minus])
    assert got.space is space and got.size == size
    assert holds_no_zero_coefficient(got)
    for r in range(size):
        for c in range(size):
            assert got[r, c] == want[r, c]
            assert got[r, c].space is space


def test_matdot_chain_tests_the_guard_of_each_middle_product():
    # three exponents of limit - 1: the sum of all three carries out of the
    # t field, so only the guard test of the middle product sees it
    space = VarSpace(1)
    near = PolyMatrix([[space.t(1, EXPONENT_LIMIT - 1)]])
    for chains, minus in (((near, near, near),), ()), ((), ((near, near, near),)):
        with pytest.raises(OverflowError, match="exponent overflow"):
            _matdot(space, 1, sparse(chains), sparse(minus))
    below = PolyMatrix([[space.t(1, EXPONENT_LIMIT // 2 - 1)]])
    unit = PolyMatrix([[space.one()]])
    got = _matdot(space, 1, sparse(((below, below, unit),)))
    assert got[0, 0] == space.t(1, EXPONENT_LIMIT - 2)
