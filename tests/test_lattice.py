"""Tests for square-ice lattices, the pattern bijection, and transfer matrices."""

import copy
import gc
import itertools
import json
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixvertex import lattice
from sixvertex.checks import _SPOT_CHECKS, _partition_grid
from sixvertex.lattice import (BoundarySpec, GTPattern, LatticeState,
                               brute_force_states, enumerate_states,
                               gt_patterns, gt_row_sums, gt_to_state,
                               interleavers, partition_function, row_sum,
                               state_to_gt, state_weight, tokuyama_sum,
                               transfer_matrix, validate_partition)
from sixvertex.matrix import PolyMatrix
from sixvertex.poly import (EXPONENT_LIMIT, IMAG, GaussianRational, Polynomial, VarSpace,
                            poly_sum, prod)
from sixvertex.schur import schur_bialternant
from sixvertex.weights import (IceKind, _vertex_entry, delta, gamma, ice_weights,
                               r_weights_params)

# the grid verify all checks Tokuyama on: at most 4 parts, each at most 4,
# plus the two rank-5 spot checks
TOKUYAMA_GRID = _partition_grid(4, 4) + list(_SPOT_CHECKS)

# the grid the gt-bijection checks cover
BIJECTION_GRID = _partition_grid(3, 3)


def test_validate_partition():
    assert validate_partition([3, 1, 0]) == (3, 1, 0)
    assert validate_partition(()) == ()
    for bad in ([1, 2], [-1], [1.5], [True]):
        with pytest.raises(ValueError):
            validate_partition(bad)


def test_boundary_geometry():
    b = BoundarySpec(IceKind.GAMMA, (3, 1, 0))
    assert (b.n, b.m) == (3, 6)
    assert b.column_labels == (5, 4, 3, 2, 1, 0)
    assert b.top_row() == (5, 2, 0)
    assert b.top_row_spins() == (-1, 1, 1, -1, 1, -1)
    assert b.left_spin == 1 and b.right_spin == -1
    assert [lattice._row_label(b.kind, b.n, r) for r in range(3)] == [1, 2, 3]
    d = BoundarySpec(IceKind.DELTA, (3, 1, 0))
    assert d.left_spin == -1 and d.right_spin == 1
    assert [lattice._row_label(d.kind, d.n, r) for r in range(3)] == [3, 2, 1]
    with pytest.raises(AttributeError):
        b.n = 4
    assert b == BoundarySpec("gamma", [3, 1, 0]) and b != d


def test_gt_pattern_validation():
    GTPattern(((5, 2, 0), (3, 0), (3,)))
    with pytest.raises(ValueError):
        GTPattern(((5, 2, 0), (3,)))
    with pytest.raises(ValueError):
        GTPattern(((5, 5, 0), (3, 0), (3,)))
    with pytest.raises(ValueError):
        GTPattern(((5, 2, 0), (3, 0), (6,)))
    with pytest.raises(ValueError):
        GTPattern(((2, -1), (0,)))
    p = GTPattern(((5, 2, 0), (3, 0), (3,)))
    assert p.n == 3
    assert GTPattern.from_json(p.to_json()) == p
    with pytest.raises(AttributeError):
        p.rows = ()


def test_worked_example_two_states():
    b = BoundarySpec(IceKind.GAMMA, (0, 0))
    space = VarSpace(2)
    states = list(enumerate_states(b))
    assert len(states) == 2
    weights = {state_weight(s) for s in states}
    assert weights == {space.t(1) * space.z(2), space.z(1)}
    assert partition_function(b) == space.t(1) * space.z(2) + space.z(1)


def test_state_counts():
    counts = {(IceKind.GAMMA, (1, 0)): 3,
              (IceKind.DELTA, (1, 0)): 3,
              (IceKind.GAMMA, (3, 1, 0)): 41}
    for (kind, lam), expected in counts.items():
        assert sum(1 for _ in enumerate_states(BoundarySpec(kind, lam))) == expected


@pytest.mark.parametrize("kind", list(IceKind))
def test_state_counts_at_lambda_zero_are_the_alternating_sign_matrix_counts(kind):
    # at lambda = 0 the top row is rho, so the strict GT patterns, and the
    # states, are the n x n alternating sign matrices: prod (3k+1)!/(n+k)!
    def asm_count(n):
        return (math.prod(math.factorial(3 * k + 1) for k in range(n))
                // math.prod(math.factorial(n + k) for k in range(n)))

    counts = [len(list(enumerate_states(BoundarySpec(kind, (0,) * n)))) for n in range(1, 7)]
    assert counts == [asm_count(n) for n in range(1, 7)] == [1, 2, 7, 42, 429, 7436]


def test_enumeration_order_is_descending():
    b = BoundarySpec(IceKind.GAMMA, (1, 0))
    patterns = [state_to_gt(s).to_json() for s in enumerate_states(b)]
    assert patterns == [[[2, 0], [2]], [[2, 0], [1]], [[2, 0], [0]]]


@pytest.mark.parametrize("kind", list(IceKind))
def test_enumerated_states_carry_the_walker_rows(kind):
    # states are built from the walker's rows with no GTPattern check in
    # between, so reading each state back must give those rows, in order
    for lam in BIJECTION_GRID + list(_SPOT_CHECKS):
        b = BoundarySpec(kind, lam)
        assert [state_to_gt(s).rows for s in enumerate_states(b)] \
            == list(gt_patterns(b.top_row(), True))


def test_rank_zero_and_rank_one_partition_functions():
    b = BoundarySpec(IceKind.GAMMA, ())
    assert len(list(enumerate_states(b))) == 1
    assert partition_function(b) == VarSpace(0).one()
    for kind in IceKind:
        z_fun = partition_function(BoundarySpec(kind, (2,)))
        assert z_fun == VarSpace(1).z(1, 2)


def test_brute_force_agrees_with_pattern_enumeration():
    for kind in IceKind:
        for lam in ((), (2,), (1, 0), (2, 2), (3, 1, 0)):
            b = BoundarySpec(kind, lam)
            enum = list(enumerate_states(b))
            brute = list(brute_force_states(b))
            assert len(enum) == len(brute)
            assert set(enum) == set(brute)


def state_without_memo(b, rows):
    """The state of the GT pattern `rows`, spin by spin, sharing nothing."""
    vertical = [[-1 if label in row else 1 for label in b.column_labels]
                for row in rows + ((),)]
    horizontal = []
    for above, below in zip(vertical, vertical[1:]):
        spins = [b.left_spin]
        for north, south in zip(above, below):
            spins.append(spins[-1] * north * south)
        horizontal.append(spins)
    return LatticeState(b, vertical, horizontal)


@pytest.mark.parametrize("kind", list(IceKind))
def test_enumerated_states_match_a_build_without_memo(kind):
    for lam in BIJECTION_GRID + [(1, 1, 1, 0, 0)] + list(_SPOT_CHECKS):
        b = BoundarySpec(kind, lam)
        states = list(enumerate_states(b))
        assert states == [state_without_memo(b, rows)
                          for rows in gt_patterns(b.top_row(), True)]
        # the states skip the constructor, and it must take each one as it is
        assert states == [LatticeState(b, s.vertical, s.horizontal) for s in states]
        if b.n <= 4:
            assert sorted(states, key=repr) == sorted(brute_force_states(b), key=repr)


def test_brute_force_size_guard():
    with pytest.raises(ValueError):
        list(brute_force_states(BoundarySpec(IceKind.GAMMA, (6, 0, 0))))
    with pytest.raises(ValueError):
        list(brute_force_states(BoundarySpec(IceKind.GAMMA, (0,) * 5)))


@pytest.mark.parametrize("kind", list(IceKind))
def test_gt_to_state_of_each_walked_pattern_is_the_enumerated_state(kind):
    # gt_to_state builds each state afresh, enumerate_states only the rows
    # that changed since the previous pattern
    for lam in BIJECTION_GRID + list(_SPOT_CHECKS):
        b = BoundarySpec(kind, lam)
        assert [gt_to_state(GTPattern(rows), b) for rows in gt_patterns(b.top_row(), True)] \
            == list(enumerate_states(b))


def reference_interleavers(row, strict):
    """The recursive interleaving loop, one generator per entry: entry p
    runs down from the smaller of row[p] and the ceiling that the entry
    before it leaves (itself, or one less with `strict`) to row[p + 1]."""
    if not row:
        return

    def below(p, ceiling, acc):
        if p == len(row) - 1:
            yield acc
            return
        for v in range(min(row[p], ceiling), row[p + 1] - 1, -1):
            yield from below(p + 1, v - 1 if strict else v, acc + (v,))

    yield from below(0, row[0], ())


def reference_gt_patterns(top, strict):
    """The recursive GT walk, one generator per level, with its own
    interleaving loop: the order oracle of the explicit-stack walker."""
    if not top:
        yield ()
        return
    for nxt in reference_interleavers(top, strict):
        for rest in reference_gt_patterns(nxt, strict):
            yield (top,) + rest


def test_interleavers():
    assert list(interleavers((2, 0), True)) == [(2,), (1,), (0,)]
    assert list(interleavers((3, 1, 0), True)) == [
        (3, 1), (3, 0), (2, 1), (2, 0), (1, 0)]
    assert list(interleavers((1, 1, 0), False)) == [(1, 1), (1, 0)]
    assert list(interleavers((4,), True)) == [()]
    assert list(interleavers((), True)) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=6), st.booleans())
def test_interleavers_match_the_recursive_loop(parts, strict):
    # any weakly decreasing row, equal neighbours included, not only the
    # top rows lambda + rho and lambda that the walks start from
    row = tuple(sorted(parts, reverse=True))
    assert list(interleavers(row, strict)) == list(reference_interleavers(row, strict))


def test_gt_patterns_keep_the_descending_lex_order():
    for lam in TOKUYAMA_GRID:
        for strict in (True, False):
            top = BoundarySpec(IceKind.GAMMA, lam).top_row() if strict else lam
            patterns = list(gt_patterns(top, strict))
            assert patterns == list(reference_gt_patterns(top, strict))
            assert patterns == sorted(patterns, reverse=True)


# the strict walks of rank 6 reach past 300,000 patterns, so each walk is
# compared up to this many; every weak walk drawn (at most 11,340 patterns,
# at (4, 4, 3, 1, 0, 0)) and every small strict one is compared whole
WALK_PREFIX = 12_000


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda n: st.lists(st.integers(0, 4), min_size=n, max_size=n)), st.booleans())
def test_gt_patterns_match_the_recursive_walk(parts, strict):
    lam = tuple(sorted(parts, reverse=True))
    top = BoundarySpec(IceKind.GAMMA, lam).top_row() if strict else lam
    assert list(itertools.islice(gt_patterns(top, strict), WALK_PREFIX)) \
        == list(itertools.islice(reference_gt_patterns(top, strict), WALK_PREFIX))


def pattern_monomial(space, rows):
    """prod_k z_k^(d_k - d_{k+1}) for the row sums d_k of a pattern, as one term."""
    sums = [sum(row) for row in rows] + [0]
    z_exps = tuple(sums[k] - sums[k + 1] for k in range(space.n))
    return Polynomial(space, {z_exps + (0,) * space.n: 1})


def reference_tokuyama_sum(lam, per_row_t):
    """tokuyama_sum one pattern at a time, with no memo over GT rows.

    Each pattern row below the top multiplies in t^a (t+1)^b at once, where
    a counts its entries equal to their upper-left neighbor (a factor t) and
    b those equal to neither upper neighbor (a factor t + 1).
    """
    n = len(lam)
    space = VarSpace(n)
    top = tuple(p + n - 1 - i for i, p in enumerate(lam))

    def t_factor(j, a, b):
        t_index = j if per_row_t else 1
        return space.t(t_index, a) * (space.t(t_index) + 1) ** b

    # row j has n - j entries, which bound a + b
    factors = {(j, a, b): t_factor(j, a, b) for j in range(1, n)
               for a in range(n - j + 1) for b in range(n - j + 1 - a)}

    def term(rows):
        out = pattern_monomial(space, rows)
        for j in range(1, n):
            above, row = rows[j - 1], rows[j]
            a = sum(entry == above[p] for p, entry in enumerate(row))
            b = sum(entry not in (above[p], above[p + 1]) for p, entry in enumerate(row))
            out = out * factors[j, a, b]
        return out

    return poly_sum(map(term, gt_patterns(top, strict=True)), space)


@pytest.mark.parametrize("per_row_t", [True, False])
def test_tokuyama_sum_matches_the_per_pattern_sum(per_row_t):
    for lam in TOKUYAMA_GRID:
        assert tokuyama_sum(lam, per_row_t) == reference_tokuyama_sum(lam, per_row_t)


@pytest.mark.parametrize("strict", [True, False])
def test_row_sum_matches_the_product_over_each_pattern(strict):
    for lam in _partition_grid(4, 3):
        top = BoundarySpec(IceKind.GAMMA, lam).top_row() if strict else lam
        space = VarSpace(len(top))

        # a factor that sees the row index and both rows, so a memo keyed on
        # too little, or a factor applied to the wrong pair, changes the sum
        def factor(j, above, row):
            return (space.z(j + 1, sum(above) - sum(row))
                    * (space.t(j + 1, len(row)) + space.const(above[-1] + 1)))

        expected = poly_sum(
            (prod((factor(j, rows[j], (rows + ((),))[j + 1])
                   for j in range(len(rows))), space)
             for rows in gt_patterns(top, strict)), space)
        assert row_sum(top, strict, factor) == expected


def reference_row_sum(top, strict, factor):
    """row_sum as the recursion of products and sums: each factor times the
    sum below its next row is built as a polynomial by `*`, and a row's
    products are merged by poly_sum.  The oracle of row_sum's one `_dot`
    per row."""
    top = tuple(top)
    space = VarSpace(len(top))
    below_sums = {(): space.one()}

    def below_sum(row):
        if row not in below_sums:
            j = len(top) - len(row)
            below_sums[row] = poly_sum(
                (factor(j, row, nxt) * below_sum(nxt)
                 for nxt in interleavers(row, strict)), space)
        return below_sums[row]

    return below_sum(top)


def tokuyama_factor(space, per_row_t):
    """The Tokuyama factor of a pair of rows as a loop of multiplies, one per
    entry: t for an entry equal to its upper-left neighbor, t + 1 for one
    equal to neither upper neighbor."""
    def factor(j, above, row):
        out = space.z(j + 1, sum(above) - sum(row))
        t_var = space.t(j + 1 if per_row_t else 1)
        for p, entry in enumerate(row):
            if entry == above[p]:
                out = out * t_var
            elif entry != above[p + 1]:
                out = out * (t_var + space.one())
        return out

    return factor


def schur_factor(space):
    return lambda j, above, row: space.z(j + 1, sum(above) - sum(row))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n)),
    st.booleans(), st.sampled_from(["per-row t", "single t", "schur"]))
def test_row_sum_matches_the_recursion_of_products(parts, strict, which):
    lam = tuple(sorted(parts, reverse=True))
    top = BoundarySpec(IceKind.GAMMA, lam).top_row() if strict else lam
    space = VarSpace(len(top))
    factor = (schur_factor(space) if which == "schur"
              else tokuyama_factor(space, which == "per-row t"))
    assert row_sum(top, strict, factor) == reference_row_sum(top, strict, factor)


@pytest.mark.parametrize("per_row_t", [True, False])
def test_tokuyama_sum_matches_the_recursion_of_products(per_row_t):
    # the factors built once per shape against a loop of multiplies per row pair
    for lam in TOKUYAMA_GRID:
        top = BoundarySpec(IceKind.GAMMA, lam).top_row()
        factor = tokuyama_factor(VarSpace(len(lam)), per_row_t)
        assert tokuyama_sum(lam, per_row_t) == reference_row_sum(top, True, factor)


def test_row_sum_leaves_no_cyclic_garbage():
    # the memo and every below-sum are freed when the call returns, not at
    # the next cyclic collection
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        tokuyama_sum((2, 2, 1, 0, 0), True)
        assert gc.collect() == 0
        row_sum((2, 1, 0), False, schur_factor(VarSpace(3)))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_row_sum_refuses_a_factor_of_another_space_as_the_product_does():
    other = VarSpace(4)  # the row sums are over VarSpace(3)
    for strict, top in ((True, (2, 1, 0)), (False, (1, 1, 0))):
        with pytest.raises(ValueError) as fused:
            row_sum(top, strict, lambda j, above, row: other.z(1))
        with pytest.raises(ValueError) as products:
            reference_row_sum(top, strict, lambda j, above, row: other.z(1))
        assert str(fused.value).startswith("variable space mismatch: ")
        assert str(fused.value) == str(products.value)


def test_row_sum_raises_when_a_product_reaches_the_exponent_limit():
    # each factor alone is below the limit; a top factor times the sum below
    # it reaches it
    space = VarSpace(2)
    almost = EXPONENT_LIMIT - 1

    def factor(j, above, row):
        return space.z(1, almost if j else 1) + space.one()

    for strict, top in ((True, (1, 0)), (False, (1, 1))):
        with pytest.raises(OverflowError) as fused:
            row_sum(top, strict, factor)
        with pytest.raises(OverflowError) as products:
            reference_row_sum(top, strict, factor)
        assert str(fused.value) == str(products.value)
    # one step below the limit, the same sum goes through
    assert row_sum((1, 0), True, lambda j, above, row:
                   space.z(1, almost - 1 if j else 1)) == 2 * space.z(1, almost)


def test_enumeration_state_limit(monkeypatch):
    monkeypatch.setenv("ICE_MAX_STATES", "1")
    with pytest.raises(RuntimeError):
        list(enumerate_states(BoundarySpec(IceKind.GAMMA, (0, 0))))


def test_bijection_round_trip():
    for kind in IceKind:
        b = BoundarySpec(kind, (2, 1))
        for s in enumerate_states(b):
            assert gt_to_state(state_to_gt(s), b) == s


def test_gt_to_state_guards():
    b = BoundarySpec(IceKind.GAMMA, (3, 1, 0))
    with pytest.raises(ValueError):
        gt_to_state(GTPattern(((1, 0), (1,))), b)
    with pytest.raises(ValueError):
        gt_to_state(GTPattern(((4, 2, 0), (3, 0), (3,))), b)


def test_example_pattern_state_and_weight():
    b = BoundarySpec(IceKind.GAMMA, (3, 1, 0))
    pattern = GTPattern(((5, 2, 0), (3, 0), (3,)))
    state = gt_to_state(pattern, b)
    assert state_to_gt(state) == pattern
    assert gt_row_sums(pattern) == (4, 0, 3)
    space = VarSpace(3)
    expected = space.z(1, 4) * space.z(3, 3) * space.t(2) * (space.t(1) + 1)
    assert state_weight(state) == expected


def test_gt_row_sums_single_row():
    assert gt_row_sums(GTPattern(((4,),))) == (4,)


def test_vertical_minus_counts_by_row():
    # row j of vertical edges carries exactly n - j minus spins
    for kind in IceKind:
        b = BoundarySpec(kind, (2, 1, 0))
        for s in enumerate_states(b):
            for j in range(b.n + 1):
                assert sum(1 for spin in s.vertical[j] if spin == -1) == b.n - j


def test_state_validation_errors():
    b = BoundarySpec(IceKind.GAMMA, (0, 0))
    good = next(iter(enumerate_states(b)))
    with pytest.raises(ValueError, match="vertical grid must be 3 x 2"):
        LatticeState(b, good.vertical[:-1], good.horizontal)
    with pytest.raises(ValueError, match=re.escape("spins must be +1 or -1: 0")):
        LatticeState(b, good.vertical,
                     [row[:-1] + (0,) for row in good.horizontal])
    # an unhashable spin, as malformed JSON gives, is a bad spin value too
    with pytest.raises(ValueError, match=re.escape("spins must be +1 or -1: [1]")):
        LatticeState(b, good.vertical[:-1] + (([1], 1),), good.horizontal)
    flipped_left = [(-1,) + row[1:] for row in good.horizontal]
    with pytest.raises(ValueError, match="left boundary spin wrong in row 0"):
        LatticeState(b, good.vertical, flipped_left)
    flipped_right = [row[:-1] + (1,) for row in good.horizontal]
    with pytest.raises(ValueError, match="right boundary spin wrong in row 0"):
        LatticeState(b, good.vertical, flipped_right)
    bad_top = (tuple(-s for s in good.vertical[0]),) + good.vertical[1:]
    with pytest.raises(ValueError, match="top boundary does not match"):
        LatticeState(b, bad_top, good.horizontal)
    bad_bottom = good.vertical[:-1] + ((-1,) + good.vertical[-1][1:],)
    with pytest.raises(ValueError, match=re.escape("bottom boundary must be all +")):
        LatticeState(b, bad_bottom, good.horizontal)


def first_inadmissible(state):
    """Coordinates of the first vertex of ``state`` whose weight is zero, if any."""
    b = state.boundary
    for r in range(b.n):
        mat = lattice._row_matrix(b.kind, b.n, r)
        for c in range(b.m):
            if not mat[_vertex_entry(*state.vertex_pattern(r, c))]:
                return r, c
    return None


def test_inadmissible_vertex_is_reported_with_coordinates():
    for kind in IceKind:
        b = BoundarySpec(kind, (0, 0))
        good = next(iter(enumerate_states(b)))
        assert first_inadmissible(good) is None
        flipped = (good.vertical[0],
                   tuple(-s for s in good.vertical[1]),
                   good.vertical[2])
        near_miss = LatticeState(b, flipped, good.horizontal)
        r, c = first_inadmissible(near_miss)
        message = rf"row {r}, column label {b.m - 1 - c}$"
        # twice: the row memo must not turn the error into a cached weight
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                state_weight(near_miss)


# The paper's vertex table, spins (W, N, E, S) -> weight, kept apart from the
# library's vertex rule so that an oracle using it cannot share a layout mistake.
PAPER_VERTICES = {
    (1, 1, 1, 1): "a1", (-1, -1, -1, -1): "a2",
    (1, -1, 1, -1): "b1", (-1, 1, -1, 1): "b2",
    (-1, 1, 1, -1): "c1", (1, -1, -1, 1): "c2",
    (-1, -1, 1, 1): "d1", (1, 1, -1, -1): "d2"}

# Gamma ice has no d-vertices and Delta ice no c-vertices.
FORBIDDEN = {IceKind.GAMMA: ("d1", "d2"), IceKind.DELTA: ("c1", "c2")}


def test_vertex_rule_matches_the_paper_table():
    space = VarSpace(2)
    for kind in IceKind:
        b = BoundarySpec(kind, (0, 0))
        for r in range(b.n):
            w = ice_weights(space, kind, lattice._row_label(kind, b.n, r))
            mat = lattice._row_matrix(kind, b.n, r)
            admissible = 0
            for pattern in itertools.product((1, -1), repeat=4):
                weight = mat[_vertex_entry(*pattern)]
                name = PAPER_VERTICES.get(pattern)
                if name is None or name in FORBIDDEN[kind]:
                    assert weight.is_zero(), pattern
                else:
                    assert weight == getattr(w, name) and weight, pattern
                    admissible += 1
            assert admissible == 6


def reference_state_weight(s):
    """The product of all n*m vertex weights, one multiply per vertex."""
    b = s.boundary
    space = VarSpace(b.n)
    total = space.one()
    for r in range(b.n):
        w = ice_weights(space, b.kind, lattice._row_label(b.kind, b.n, r))
        for c in range(b.m):
            pattern = s.vertex_pattern(r, c)
            assert PAPER_VERTICES[pattern] not in FORBIDDEN[b.kind]
            total = total * getattr(w, PAPER_VERTICES[pattern])
    return total


def test_state_weight_matches_the_per_vertex_product():
    for lam in BIJECTION_GRID:
        for kind in IceKind:
            b = BoundarySpec(kind, lam)
            states = list(enumerate_states(b))
            weights = [state_weight(s) for s in states]
            for s, weight in zip(states, weights):
                assert weight == reference_state_weight(s)
                # the constructed twin takes the per-row path, not the chain
                twin = LatticeState(b, s.vertical, s.horizontal)
                assert twin == s and hash(twin) == hash(s)
                assert state_weight(twin) == weight
            # taken in reverse walk order, each chain is filled from its
            # deepest node first
            fresh = list(enumerate_states(b))
            unfilled = [(pickle.loads(pickle.dumps(s)), copy.deepcopy(s)) for s in fresh]
            assert [state_weight(s) for s in reversed(fresh)] == weights[::-1]
            for s, weight, clones in zip(fresh, weights, unfilled):
                for clone in (*clones, pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
                    assert clone == s and hash(clone) == hash(s)
                    assert state_weight(clone) == weight


def test_row_weight_memo_is_emptied_after_each_partition_function(monkeypatch):
    # the row weights live in the state builder's memo, local to one
    # enumeration, and no module-level cache holds them: the memo does not
    # outlive the call, and freeing it leaves no cycle for the collector
    b = BoundarySpec(IceKind.DELTA, (2, 1, 0))
    weights = [state_weight(s) for s in enumerate_states(b)]
    assert not hasattr(lattice._row_weight, "cache_info")
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert partition_function(b) == poly_sum(weights)
        assert gc.collect() == 0
        monkeypatch.setenv("ICE_MAX_STATES", "1")
        with pytest.raises(RuntimeError, match="ICE_MAX_STATES=1"):
            partition_function(b)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_partition_function_sums_afresh_on_every_call(monkeypatch):
    # no result outlives its call: a second call sums the states again, so
    # a state limit set in between still fires
    b = BoundarySpec(IceKind.GAMMA, (2, 1, 0))
    first = partition_function(b)
    assert partition_function(b) == first
    monkeypatch.setenv("ICE_MAX_STATES", "1")
    with pytest.raises(RuntimeError, match="ICE_MAX_STATES=1"):
        partition_function(b)


def test_state_json_round_trip():
    for lam in BIJECTION_GRID:
        for kind in IceKind:
            for s in enumerate_states(BoundarySpec(kind, lam)):
                text = json.dumps(s.to_json())
                back = LatticeState.from_json(json.loads(text))
                assert back == s and json.dumps(back.to_json()) == text


# each of these equals 1, and the last two also hash like 1
NOT_INT_SPINS = (True, 1.0, Fraction(1), GaussianRational(1), VarSpace(0).one())


def test_state_json_writes_int_spins():
    # the constructor takes only the ints 1 and -1, so to_json writes ints
    good = next(iter(enumerate_states(BoundarySpec(IceKind.GAMMA, (1, 0)))))
    data = good.to_json()
    assert all(type(spin) is int for row in data["vertical"] for spin in row)
    assert all(type(spin) is int for row in data["horizontal"] for spin in row)
    assert data["vertical"][0][1] == 1
    for bad in NOT_INT_SPINS:
        spins = [list(row) for row in good.vertical]
        spins[0][1] = bad
        with pytest.raises(ValueError, match=re.escape(f"spins must be +1 or -1: {bad!r}")):
            LatticeState(good.boundary, spins, good.horizontal)


def test_state_from_json_refuses_spins_that_are_not_ints():
    good = next(iter(enumerate_states(BoundarySpec(IceKind.GAMMA, (1, 0)))))
    data = good.to_json()
    assert data["vertical"][0][1] == 1
    for bad in NOT_INT_SPINS:
        spins = [row[:] for row in data["vertical"]]
        spins[0][1] = bad
        with pytest.raises(ValueError, match=re.escape(f"spins must be +1 or -1: {bad!r}")):
            LatticeState.from_json(dict(data, vertical=spins))


def test_tokuyama_per_row_matches_partition_function():
    for lam in ((), (2,), (1, 0), (2, 1, 0)):
        z_fun = partition_function(BoundarySpec(IceKind.GAMMA, lam))
        assert tokuyama_sum(lam, per_row_t=True) == z_fun


def test_tokuyama_single_t_factorization():
    lam = (2, 0)
    space = VarSpace(2)
    target = prod((space.z(i) + space.t(1) * space.z(j)
                   for i in range(1, 3) for j in range(i + 1, 3)),
                  space) * schur_bialternant(lam)
    assert tokuyama_sum(lam, per_row_t=False) == target


def test_transfer_matrix_single_column():
    space = VarSpace(1)
    v = transfer_matrix(gamma(space, 1), 1)
    expected = PolyMatrix([[space.z(1) + 1, space.zero()],
                           [space.zero(), space.z(1) + space.t(1)]])
    assert v == expected


def test_transfer_matrix_identity_weights():
    # the identity vertex forces every column to repeat its top spin and
    # the ring of horizontal spins to be constant, giving 2 * I
    space = VarSpace(0)
    v = transfer_matrix(PolyMatrix.identity(space, 4), 3)
    assert v == PolyMatrix.identity(space, 8).scale(space.const(2))


def test_transfer_matrix_commutation():
    space = VarSpace(2)
    v1 = transfer_matrix(gamma(space, 1), 2)
    v2 = transfer_matrix(gamma(space, 2), 2)
    assert v1 @ v2 == v2 @ v1


def brute_force_transfer_matrix(mat: PolyMatrix, n_cols: int) -> PolyMatrix:
    """V[alpha, beta] as the sum over all 2^n_cols periodic rings of
    horizontal spins of the product of vertex weights, one term per ring."""
    space = mat.space
    size = 1 << n_cols

    def bits(value: int) -> tuple[int, ...]:
        return tuple((value >> (n_cols - 1 - i)) & 1 for i in range(n_cols))

    rows = []
    for alpha in range(size):
        abits = bits(alpha)
        row = []
        for beta in range(size):
            bbits = bits(beta)
            total = space.zero()
            for eps in range(size):
                ebits = bits(eps)
                term = space.one()
                for i in range(n_cols):
                    term = term * mat[2 * ebits[(i + 1) % n_cols] + bbits[i],
                                      2 * ebits[i] + abits[i]]
                total = total + term
            row.append(total)
        rows.append(row)
    return PolyMatrix(rows)


def generic_vertex_matrix(space: VarSpace) -> PolyMatrix:
    # 16 distinct entries, so a transposed or swapped index changes the result
    return PolyMatrix([[space.z(1, r + 1) * space.t(1, c) + (4 * r + c + 2)
                        for c in range(4)] for r in range(4)])


def type_d_r_matrix(space: VarSpace) -> PolyMatrix:
    # a type-D R-matrix whose second row has the constant parameters (2, 3)
    return r_weights_params(IceKind.GAMMA, IceKind.DELTA, space.z(1), space.t(1),
                            space.const(2), space.const(3)).end2()


VERTEX_MATRICES = {"gamma": lambda space: gamma(space, 1).end2(),
                   "delta": lambda space: delta(space, 1).end2(),
                   "generic": generic_vertex_matrix,
                   "type-d-r": type_d_r_matrix,
                   "imag-gamma": lambda space: gamma(space, 1).end2().scale(IMAG)}


@pytest.mark.parametrize("name", sorted(VERTEX_MATRICES))
@pytest.mark.parametrize("n_cols", [1, 2, 3, 4])
def test_transfer_matrix_matches_brute_force_ring_sum(name, n_cols):
    mat = VERTEX_MATRICES[name](VarSpace(1))
    v, expected = transfer_matrix(mat, n_cols), brute_force_transfer_matrix(mat, n_cols)
    assert v == expected
    for row, expected_row in zip(v.rows, expected.rows):
        for entry, expected_entry in zip(row, expected_row):
            if expected_entry.is_zero():
                assert entry.is_zero() and entry.space is mat.space


def test_transfer_matrix_guards():
    space = VarSpace(1)
    with pytest.raises(ValueError):
        transfer_matrix(gamma(space, 1), 0)
    with pytest.raises(ValueError):
        transfer_matrix(gamma(space, 1), 7)
    with pytest.raises(ValueError):
        transfer_matrix(PolyMatrix.identity(space, 2), 2)
    for bad in (True, False, 2.0):
        with pytest.raises(TypeError, match="n_cols must be an int"):
            transfer_matrix(gamma(space, 1), bad)
