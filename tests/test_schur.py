"""Tests for Schur polynomials and the deformed denominators."""

from itertools import combinations_with_replacement, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixvertex import schur
from sixvertex.checks import _SPOT_CHECKS, _partition_grid
from sixvertex.lattice import _plus_rho, gt_patterns
from sixvertex.poly import GaussianRational, Polynomial, VarSpace, poly_sum, prod
from sixvertex.schur import (deformed_denominator, s_gamma, schur_bialternant,
                             schur_pattern_sum)
from sixvertex.weights import IceKind


def test_empty_partition_is_one():
    assert schur_bialternant(()) == VarSpace(0).one()
    assert schur_pattern_sum(()) == VarSpace(0).one()


def test_bialternant_rank_guard_fires_before_any_term(monkeypatch):
    def refuse(lam):
        raise AssertionError("bialternant terms built")

    monkeypatch.setattr(schur, "_schur_bialternant", refuse)
    with pytest.raises(ValueError, match="rank 10 sums 3628800 signed terms"):
        schur_bialternant((0,) * 10)
    monkeypatch.setattr(schur, "_schur_bialternant", lambda lam: lam)
    assert schur_bialternant((0,) * 9) == (0,) * 9


def test_weyl_dimension_counts_the_weak_patterns():
    for lam in _partition_grid(4, 4) + list(_SPOT_CHECKS):
        assert schur._weyl_dimension(lam) == sum(1 for _ in gt_patterns(lam, False)), lam


def test_bialternant_work_guard_fires_before_any_term(monkeypatch):
    # (Weyl dimension) x n! bounds the division: 5376 x 8! is refused, while
    # 1764 x 7! and rank 9 at lambda = 0 (1 x 9!) stay admitted
    def refuse(lam):
        raise AssertionError("bialternant terms built")

    monkeypatch.setattr(schur, "_schur_bialternant", refuse)
    with pytest.raises(ValueError) as info:
        schur_bialternant((3, 2, 1, 0, 0, 0, 0, 0))
    assert str(info.value) == ("the bialternant of rank 8 has work 216760320 "
                               "(Weyl dimension 5376 x 8!); the limit is 50000000")
    # the rank guard still runs first
    with pytest.raises(ValueError, match="rank 10 sums 3628800 signed terms"):
        schur_bialternant((5, 4, 3, 2, 1, 0, 0, 0, 0, 0))
    monkeypatch.setattr(schur, "_schur_bialternant", lambda lam: lam)
    for lam in ((3, 2, 1, 0, 0, 0, 0), (0,) * 9):
        assert schur._weyl_dimension(lam) * factorial(len(lam)) <= schur.MAX_BIALTERNANT_WORK
        assert schur_bialternant(lam) == lam


def test_s_gamma_runs_the_bialternant_guards_before_the_state_sum(monkeypatch):
    def refuse(b):
        raise AssertionError("state sum started before the bialternant guards")

    monkeypatch.setattr(schur, "partition_function", refuse)
    with pytest.raises(ValueError, match=r"rank 8 has work 216760320 \(Weyl dimension"):
        s_gamma((3, 2, 1, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="rank 10 sums 3628800 signed terms"):
        s_gamma((0,) * 10)


def test_small_schur_values():
    space = VarSpace(2)
    z1, z2 = space.z(1), space.z(2)
    assert schur_bialternant((1, 0)) == z1 + z2
    assert schur_bialternant((1, 1)) == z1 * z2
    assert schur_bialternant((2, 0)) == z1 * z1 + z1 * z2 + z2 * z2


# the rank-5 partitions of the benchmark's divide workload, and one of rank 6
LARGER_PARTITIONS = ((1, 1, 0, 0, 0), (1, 1, 1, 0, 0), (2, 1, 0, 0, 0),
                     (2, 2, 2, 1, 0), (3, 0, 0, 0, 0), (3, 3, 3, 3, 0),
                     (2, 1, 0, 0, 0, 0))


def test_methods_agree_on_small_grid():
    for n in range(5):
        for lam in combinations_with_replacement(range(4, -1, -1), n):
            assert schur_bialternant(lam) == schur_pattern_sum(lam)
    for lam in LARGER_PARTITIONS:
        assert schur_bialternant(lam) == schur_pattern_sum(lam)


def ratio_bialternant(lam):
    """The alternant of lambda + rho divided in one step by that of rho."""
    space = VarSpace(len(lam))
    return schur._alternant(space, _plus_rho(lam)).exact_div(
        schur._alternant(space, _plus_rho((0,) * len(lam))))


partitions = st.integers(0, 6).flatmap(
    lambda n: st.lists(st.integers(0, 4), min_size=n, max_size=n)).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


@settings(max_examples=30, deadline=None)
@given(partitions)
def test_bialternant_matches_the_ratio_and_the_pattern_sum(lam):
    assert schur_bialternant(lam) == ratio_bialternant(lam) == schur_pattern_sum(lam)


def one_step_partitions():
    """lambda = 0, (c^n), (c+1, c^(n-1)) and (c^(n-1), c-1): Weyl dimension at most n."""
    for n in range(1, 8):
        yield (0,) * n
        for c in range(1, 4):
            yield (c,) * n
            yield (c + 1,) + (c,) * (n - 1)
            yield (c,) * (n - 1) + (c - 1,)


def test_bialternant_at_weyl_dimension_at_most_n():
    for lam in one_step_partitions():
        assert schur._weyl_dimension(lam) <= len(lam), lam
        assert schur_bialternant(lam) == ratio_bialternant(lam) == schur_pattern_sum(lam), lam


def test_bialternant_at_rank_7():
    lam = (3, 2, 1, 0, 0, 0, 0)
    assert schur_bialternant(lam) == ratio_bialternant(lam) == schur_pattern_sum(lam)


def test_bialternant_divides_once_or_by_each_linear_factor(monkeypatch):
    calls = []
    exact_div = Polynomial.exact_div

    def counted(self, divisor):
        calls.append(len(divisor.terms()))
        return exact_div(self, divisor)

    monkeypatch.setattr(Polynomial, "exact_div", counted)
    # the grid holds 40 partitions of Weyl dimension at most n and 86 above it
    for lam in _partition_grid(4, 4) + list(LARGER_PARTITIONS):
        n = len(lam)
        calls.clear()
        schur._schur_bialternant(lam)
        if schur._weyl_dimension(lam) <= n:
            assert calls == [factorial(n)], lam
        else:
            assert calls == [2] * (n * (n - 1) // 2), lam


def test_alternant_of_rho_is_the_vandermonde():
    for n in range(7):
        space = VarSpace(n)
        vandermonde = prod((space.z(i) - space.z(j)
                            for i in range(1, n + 1) for j in range(i + 1, n + 1)),
                           space)
        assert schur._alternant(space, tuple(range(n - 1, -1, -1))) == vandermonde


def pattern_monomial(space, rows):
    """prod_k z_k^(d_k - d_{k+1}) for the row sums d_k of a pattern."""
    sums = [sum(row) for row in rows] + [0]
    return prod((space.z(k + 1, sums[k] - sums[k + 1]) for k in range(space.n)),
                space)


def reference_schur_pattern_sum(lam):
    """schur_pattern_sum one weak pattern at a time, with no memo over GT rows."""
    space = VarSpace(len(lam))
    return poly_sum((pattern_monomial(space, rows)
                     for rows in gt_patterns(lam, strict=False)), space)


def test_pattern_sum_matches_the_per_pattern_sum():
    for lam in _partition_grid(4, 4) + list(_SPOT_CHECKS):
        assert schur_pattern_sum(lam) == reference_schur_pattern_sum(lam)


def test_principal_specialization():
    s = schur_bialternant((3, 1, 0))
    value = s.evaluate([1, 1, 1], [0, 0, 0])
    assert value == GaussianRational(15)


def test_stability_under_last_variable_restriction():
    # dropping the last variable from s_{(2,1,0)} recovers s_{(2,1)}
    big = schur_bialternant((2, 1, 0)).substitute(z={3: 0})
    small = schur_bialternant((2, 1))
    truncated = {mono[:2] + mono[3:5]: coeff for mono, coeff in big.terms()}
    assert truncated == dict(small.terms())


def test_symmetry_in_rank_variables():
    s = schur_bialternant((2, 1, 0))
    for sigma in permutations((1, 2, 3)):
        assert s.permute_rank_variables(sigma) == s


def test_deformed_denominator_values():
    assert deformed_denominator(IceKind.GAMMA, 0) == VarSpace(0).one()
    assert deformed_denominator(IceKind.DELTA, 1) == VarSpace(1).one()
    space = VarSpace(2)
    assert deformed_denominator(IceKind.GAMMA, 2) == (
        space.t(1) * space.z(2) + space.z(1))
    assert deformed_denominator(IceKind.DELTA, 2) == (
        space.t(2) * space.z(2) + space.z(1))
    with pytest.raises(ValueError, match="rank must be non-negative, got -1"):
        deformed_denominator(IceKind.GAMMA, -1)
    # the rank goes to VarSpace's checks, which refuse a non-int first
    for bad in (-1.5, 2.0, True):
        with pytest.raises(TypeError, match=f"rank must be an int, got {bad!r}"):
            deformed_denominator(IceKind.GAMMA, bad)


def test_deformed_denominator_at_minus_one_is_vandermonde():
    n = 3
    space = VarSpace(n)
    vandermonde = prod((space.z(i) - space.z(j)
                        for i in range(1, n + 1) for j in range(i + 1, n + 1)),
                       space)
    at = {i: -1 for i in range(1, n + 1)}
    for kind in IceKind:
        assert deformed_denominator(kind, n).substitute(t=at) == vandermonde


def test_s_gamma_matches_bialternant():
    assert s_gamma((0, 0)) == VarSpace(2).one()
    assert s_gamma((2, 1)) == schur_bialternant((2, 1))
