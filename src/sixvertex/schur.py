"""Schur polynomials by two independent routes, plus deformed denominators.

The bialternant route divides the alternant of lambda + rho by that of rho,
the Vandermonde product prod_{i<j} (z_i - z_j).  When the Weyl dimension of
lambda is at most n, the quotient has at most n terms and one division by
the n!-term alternant of rho takes at most n steps.  Otherwise it divides by
each linear factor z_i - z_j in turn, i ascending, then j: n(n-1)/2
divisions, each by a two-term divisor.  The sign convention is pinned by
asserting the quotient is positive at a point with increasing positive
coordinates.  The pattern route sums monomials over weakly decreasing
interleaved triangular arrays with top row lambda and never divides, so
the two implementations check each other.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .lattice import (BoundarySpec, _plus_rho, partition_function, row_sum,
                      validate_partition)
from .poly import GuardError, Polynomial, VarSpace, prod
from .weights import IceKind

# each alternant has n! terms: at lambda = 0, rank 9 takes 6-12 s and 207 MiB on a
# 2-vCPU VM and each further rank multiplies the time by about the rank
MAX_BIALTERNANT_RANK = 9
# one division by the alternant of rho costs about (quotient terms) x n!, and the
# Weyl dimension bounds the quotient terms.  The linear factors cost less: on a
# 2-vCPU VM a work of 11,854,080 (rank 7, lambda=(3,2,1,0,...)) takes 0.2 s and
# 20 MiB, where one division took 3.5-4.6 s and 98 MiB.  A work of 216,760,320
# (rank 8, lambda=(3,2,1,0,...)) took 118 s and 1.3 GiB in one division and takes
# 2.4 s and 57 MiB by the linear factors, but stays refused until a bound for
# the linear route is measured.
MAX_BIALTERNANT_WORK = 5 * 10**7


def _weyl_dimension(lam: tuple[int, ...]) -> int:
    """prod_{i<j} (lam_i - lam_j + j - i) / (j - i): the number of weak GT patterns."""
    pairs = list(itertools.combinations(range(len(lam)), 2))
    return (math.prod(lam[i] - lam[j] + j - i for i, j in pairs)
            // math.prod(j - i for i, j in pairs))


def schur_bialternant(lam: Sequence[int]) -> Polynomial:
    """The alternant of lambda + rho divided by the alternant of rho.

    Ranks above MAX_BIALTERNANT_RANK, and a work of (Weyl dimension) x n! above
    MAX_BIALTERNANT_WORK, raise GuardError before any term is built.
    """
    lam = validate_partition(lam)
    _require_bialternant_bounds(lam)
    return _schur_bialternant(lam)


def _require_bialternant_bounds(lam: tuple[int, ...]) -> None:
    """Refuse a partition past the bialternant's rank or work bound."""
    n = len(lam)
    if n > MAX_BIALTERNANT_RANK:
        raise GuardError(f"the bialternant of rank {n} sums {math.factorial(n)} "
                         f"signed terms; the limit is rank {MAX_BIALTERNANT_RANK}")
    dimension = _weyl_dimension(lam)
    work = dimension * math.factorial(n)
    if work > MAX_BIALTERNANT_WORK:
        raise GuardError(f"the bialternant of rank {n} has work {work} (Weyl "
                         f"dimension {dimension} x {n}!); the limit is {MAX_BIALTERNANT_WORK}")


def _schur_bialternant(lam: tuple[int, ...]) -> Polynomial:
    n = len(lam)
    space = VarSpace(n)
    quotient = _alternant(space, _plus_rho(lam))
    if _weyl_dimension(lam) <= n:
        # at most n quotient terms: one division by the n!-term alternant of
        # rho takes at most n steps
        quotient = quotient.exact_div(_alternant(space, _plus_rho((0,) * n)))
    else:
        for i in range(n):
            for j in range(i + 1, n):
                quotient = quotient.exact_div(space.z(i + 1) - space.z(j + 1))
    value = quotient.evaluate([2 ** i for i in range(n)], [0] * n)
    if value.im or value.re <= 0:
        raise ValueError(f"sign convention violated: value {value} at 1,2,4,...")
    return quotient


def _alternant(space: VarSpace, exponents: tuple[int, ...]) -> Polynomial:
    """Sum over permutations sigma of sign(sigma) * prod_j z_j^exponents[sigma(j)],
    for distinct exponents, so that the n! monomials are distinct."""
    t_block = (0,) * space.n
    terms = {}
    for perm in itertools.permutations(range(space.n)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        terms[tuple(exponents[k] for k in perm) + t_block] = -1 if inversions % 2 else 1
    return Polynomial(space, terms)


def schur_pattern_sum(lam: Sequence[int]) -> Polynomial:
    """Sum of z^(row-sum differences) over weak patterns with top row lambda.

    A row_sum: each pair of adjacent rows contributes z_{j+1}^(|row_j| - |row_{j+1}|),
    built once per (j, difference) in a memo local to this call.
    """
    lam = validate_partition(lam)
    space = VarSpace(len(lam))
    powers: dict[tuple[int, int], Polynomial] = {}

    def factor(j: int, above: tuple[int, ...], row: tuple[int, ...]) -> Polynomial:
        key = (j, sum(above) - sum(row))
        out = powers.get(key)
        if out is None:
            out = powers[key] = space.z(j + 1, key[1])
        return out

    return row_sum(lam, False, factor)


def deformed_denominator(kind: IceKind, n: int) -> Polynomial:
    """prod_{i<j} (t_i z_j + z_i) for Gamma, prod_{i<j} (t_j z_j + z_i) for Delta."""
    space = VarSpace(n)
    kind = IceKind(kind)
    factors = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            t_var = space.t(i) if kind is IceKind.GAMMA else space.t(j)
            factors.append(t_var * space.z(j) + space.z(i))
    return prod(factors, space)


def s_gamma(lam: Sequence[int]) -> Polynomial:
    """Partition function divided by the deformed denominator.

    The quotient must be exactly the Schur polynomial and free of every t
    variable; both are enforced.
    """
    lam = validate_partition(lam)
    schur = schur_bialternant(lam)  # first: its guards fire before the state sum
    z_fun = partition_function(BoundarySpec(IceKind.GAMMA, lam))
    quotient = z_fun.exact_div(deformed_denominator(IceKind.GAMMA, len(lam)))
    if quotient.contains_t():
        raise ValueError(f"quotient contains t variables: {quotient}")
    if quotient != schur:
        raise ValueError("quotient disagrees with the bialternant")
    return quotient
