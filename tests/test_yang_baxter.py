"""Tests for tensor lifts and Yang-Baxter verification machinery."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sixvertex import yang_baxter
from sixvertex.matrix import PolyMatrix, _sparse_rows
from sixvertex.poly import EXPONENT_LIMIT, GaussianRational, Polynomial, VarSpace, poly_sum
from sixvertex.weights import (IceKind, gamma, ice_weights, r_weights, r_weights_params,
                               random_free_fermionic, random_matched_pair,
                               random_mismatched_pair)
from sixvertex.yang_baxter import (check_ice_commutator,
                                   check_parametrized_ybe,
                                   check_triangularity, check_yb_system,
                                   ddagger, hatted, lift, r_family,
                                   r_solution_space, report,
                                   star_triangle_sides, swap_matrix,
                                   yb_commutator)


def random_matrix(rng, space, size):
    return PolyMatrix([[space.const(rng.randint(-4, 4)) for _ in range(size)]
                       for _ in range(size)])


def kron(a, b):
    """The Kronecker product a (x) b, the oracle of the lifts."""
    m, k = a.size, b.size
    return PolyMatrix([[a[r1, c1] * b[r2, c2] for c1 in range(m) for c2 in range(k)]
                       for r1 in range(m) for r2 in range(k)])


def test_kron_block_structure():
    rng = random.Random(1)
    space = VarSpace(1)
    a = random_matrix(rng, space, 2)
    b = random_matrix(rng, space, 2)
    k = kron(a, b)
    assert k.size == 4
    for r1 in range(2):
        for c1 in range(2):
            for r2 in range(2):
                for c2 in range(2):
                    assert k[2 * r1 + r2, 2 * c1 + c2] == a[r1, c1] * b[r2, c2]
    ident = PolyMatrix.identity(space, 2)
    assert kron(ident, ident) == PolyMatrix.identity(space, 4)


def test_kron_mixed_product():
    # (A kron B)(C kron D) = AC kron BD
    rng = random.Random(2)
    space = VarSpace(0)
    a, b, c, d = (random_matrix(rng, space, 2) for _ in range(4))
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_lift_slot_12_and_23_are_kronecker_products():
    rng = random.Random(0)
    space = VarSpace(0)
    ident = PolyMatrix.identity(space, 2)
    for _ in range(5):
        a = random_matrix(rng, space, 4)
        assert lift(a, "12") == kron(a, ident)
        assert lift(a, "23") == kron(ident, a)


def test_lift_slot_13_entries():
    rng = random.Random(1)
    space = VarSpace(0)
    a = random_matrix(rng, space, 4)
    lifted = lift(a, "13")
    for i, j, k in itertools.product(range(2), repeat=3):
        for ip, jp, kp in itertools.product(range(2), repeat=3):
            entry = lifted[4 * i + 2 * j + k, 4 * ip + 2 * jp + kp]
            if j == jp:
                assert entry == a[2 * i + k, 2 * ip + kp]
            else:
                assert entry.is_zero()


def test_lift_guards():
    space = VarSpace(0)
    with pytest.raises(ValueError):
        lift(PolyMatrix.identity(space, 2), "12")
    with pytest.raises(ValueError):
        lift(PolyMatrix.identity(space, 4), "21")


def test_lifts_on_disjoint_factors_commute():
    rng = random.Random(2)
    space = VarSpace(0)
    ident = PolyMatrix.identity(space, 2)
    for _ in range(5):
        a = random_matrix(rng, space, 4)
        b = random_matrix(rng, space, 2)
        third_factor_only = lift(kron(ident, b), "23")
        twelve = lift(a, "12")
        assert twelve @ third_factor_only == third_factor_only @ twelve


def test_star_triangle_sides_match_commutator_entries():
    rng = random.Random(3)
    space = VarSpace(0)
    r, s, t = (random_matrix(rng, space, 4) for _ in range(3))
    comm = yb_commutator(r, s, t)
    for sigma, tau, beta, theta, rho, alpha in itertools.product(range(2), repeat=6):
        lhs, rhs = star_triangle_sides(r, s, t, sigma, tau, beta,
                                       theta, rho, alpha)
        row = 4 * theta + 2 * rho + alpha
        col = 4 * sigma + 2 * tau + beta
        assert rhs - lhs == comm[row, col]


def test_swap_matrix_is_an_involution():
    space = VarSpace(1)
    p = swap_matrix(space)
    assert p @ p == PolyMatrix.identity(space, 4)


def test_ddagger_and_hatted_definitions():
    space = VarSpace(2)
    args = (space.z(1), space.t(1), space.z(2), space.t(2))
    swapped = (space.z(2), space.t(2), space.z(1), space.t(1))
    z_swapped = (space.z(2), space.t(1), space.z(1), space.t(2))
    p = swap_matrix(space)
    for x, y in itertools.product(IceKind, repeat=2):
        fam = r_family(x, y)
        assert ddagger(fam)(*args) == p @ fam(*swapped) @ p
    fam = r_family(IceKind.GAMMA, IceKind.DELTA)
    assert hatted(fam)(*args) == fam(*z_swapped)
    # the double dagger is an involution, so check_yb_system's B^dd is C and
    # its C^dd is B: of its eight axioms, [[A,B^dd,B^dd]] and [[A,C,B^dd]]
    # repeat [[A,C,C]], and [[D,C^dd,C^dd]] and [[D,B,C^dd]] repeat [[D,B,B]]
    space = VarSpace(3)
    points = [(space.z(k), space.t(k)) for k in (1, 2, 3)]
    for x, y in itertools.product(IceKind, repeat=2):
        for wrap in (lambda f: f, hatted):
            fam = wrap(r_family(x, y))
            for first, second in itertools.permutations(points, 2):
                assert ddagger(ddagger(fam))(*first, *second) == fam(*first, *second)


def test_report_shapes():
    space = VarSpace(1)
    ok = report("demo", PolyMatrix.zeros(space, 2))
    assert ok == {"check": "demo", "status": "pass", "witness": None}
    bad = report("demo", PolyMatrix.identity(space, 2))
    assert bad["status"] == "fail"
    assert bad["witness"] == space.one().to_json()
    assert report("demo", space.zero(), "unused")["witness"] is None
    assert report("demo", space.z(1) - 1)["witness"] == (space.z(1) - 1).to_json()
    assert report("demo", True, {"count": 3})["status"] == "pass"
    assert report("demo", False, {"count": 3}) == {
        "check": "demo", "status": "fail", "witness": {"count": 3}}


def test_a_long_residual_witness_keeps_its_leading_terms_and_count():
    space = VarSpace(2)
    z1, z2, t1 = space.z(1), space.z(2), space.t(1)
    residual = poly_sum((k - 25) * z1 ** (k % 7) * z2 ** (k // 7) * t1 ** (k % 2)
                        for k in range(51) if k != 25)
    assert len(residual.terms()) == 50
    lead = Polynomial(space, dict(residual.terms()[:8]))
    witness = report("demo", residual)["witness"]
    assert witness == dict(lead.to_json(), term_count=50)
    # a residual of eight terms or fewer is its whole JSON
    assert report("demo", lead)["witness"] == lead.to_json()
    assert report("demo", PolyMatrix([[space.zero(), residual], [lead, space.zero()]])) == {
        "check": "demo", "status": "fail", "witness": witness}


def test_ice_commutators_vanish():
    for x in IceKind:
        for y in IceKind:
            assert check_ice_commutator(x, y)["status"] == "pass"


def test_parametrized_ybe_vanishes_plain_and_hatted():
    rep = check_parametrized_ybe(IceKind.GAMMA, IceKind.GAMMA, IceKind.DELTA)
    assert rep["status"] == "pass"
    assert rep["check"] == "ybe gamma,gamma,delta"
    rep = check_parametrized_ybe(IceKind.DELTA, IceKind.GAMMA, IceKind.DELTA,
                                 hat=True)
    assert rep["status"] == "pass"
    assert rep["check"].endswith("hatted")


def test_commutator_direct_example():
    space = VarSpace(2)
    r = r_weights_params(IceKind.GAMMA, IceKind.DELTA,
                         space.z(1), space.t(1), space.z(2), space.t(2))
    residual = yb_commutator(r.end2(),
                             ice_weights(space, IceKind.GAMMA, 1).end2(),
                             ice_weights(space, IceKind.DELTA, 2).end2())
    assert residual.is_zero()


def test_triangularity_scalars():
    space = VarSpace(2)
    z1, z2, t1, t2 = space.z(1), space.z(2), space.t(1), space.t(2)
    expected = {
        (IceKind.GAMMA, IceKind.GAMMA): (t1 * z2 + z1) * (t2 * z1 + z2),
        (IceKind.GAMMA, IceKind.DELTA): (t1 * z2 + z1) * (t2 * z2 + z1),
        (IceKind.DELTA, IceKind.GAMMA): (t1 * z1 + z2) * (t2 * z1 + z2),
        (IceKind.DELTA, IceKind.DELTA): (t1 * z1 + z2) * (t2 * z2 + z1)}
    p = swap_matrix(space)
    for (x, y), scalar in expected.items():
        assert check_triangularity(x, y) == scalar
        fwd, rev = r_weights(space, x, y, 1, 2).end2(), r_weights(space, y, x, 2, 1).end2()
        assert fwd @ p @ rev @ p == PolyMatrix.identity(space, 4).scale(scalar)


def test_solution_space_spans_only_commuting_weights():
    rng = random.Random(4)
    s, t = random_matched_pair(rng)
    basis = r_solution_space(s, t)
    assert basis
    space = s.space
    zero = space.zero()
    for vec in basis:
        slots = [space.const(v) for v in vec]
        rows = [[slots[0], zero, zero, zero],
                [zero, slots[2], slots[4], zero],
                [zero, slots[5], slots[3], zero],
                [zero, zero, zero, slots[1]]]
        assert yb_commutator(PolyMatrix(rows), s.end2(), t.end2()).is_zero()


def test_solution_space_excludes_mismatched_pairs():
    rng = random.Random(5)
    for _ in range(5):
        s, t = random_mismatched_pair(rng)
        basis = r_solution_space(s, t)
        # no admissible solution: every basis vector has zero c-weights
        assert all(not vec[4] and not vec[5] for vec in basis)


def test_solution_space_rejects_space_mismatch():
    rng = random.Random(6)
    s, _ = random_matched_pair(rng)
    with pytest.raises(ValueError):
        r_solution_space(s, gamma(VarSpace(1), 1))


_AXIOM_NAMES = ("A,A,A", "D,D,D", "A,C,C", "D,B,B",
                "A,B^dd,B^dd", "D,C^dd,C^dd", "A,C,B^dd", "D,B,C^dd")


def test_yb_system_reports():
    reports = check_yb_system(IceKind.GAMMA, IceKind.DELTA)
    assert all(rep["status"] == "pass" for rep in reports)
    assert [rep["check"] for rep in reports] == [
        f"yb-system gamma,delta [[{name}]]" for name in _AXIOM_NAMES]
    hatted_reports = check_yb_system(IceKind.GAMMA, IceKind.DELTA, hat=True)
    assert all(rep["status"] == "pass" for rep in hatted_reports)
    assert all(" hatted " in rep["check"] for rep in hatted_reports)


def test_checks_take_a_kind_as_its_string():
    g, d = IceKind.GAMMA, IceKind.DELTA
    assert check_ice_commutator("gamma", "delta") == check_ice_commutator(g, d)
    assert check_parametrized_ybe("gamma", "gamma", "delta", hat=True) \
        == check_parametrized_ybe(g, g, d, hat=True)
    assert check_yb_system("gamma", "delta") == check_yb_system(g, d)
    for check, args in ((check_ice_commutator, ("g", "delta")),
                        (check_parametrized_ybe, ("gamma", "g", "delta")),
                        (check_yb_system, ("gamma", "g"))):
        with pytest.raises(ValueError, match="'g' is not a valid IceKind"):
            check(*args)


def test_yb_system_computes_each_identity_once(monkeypatch):
    # B^dd is C and C^dd is B, so the eight axioms are four identities
    calls = []
    real = yang_baxter._ybe_residual

    def counting(*families):
        calls.append(families)
        return real(*families)

    monkeypatch.setattr(yang_baxter, "_ybe_residual", counting)
    for x, y in itertools.product(IceKind, repeat=2):
        for hat in (False, True):
            calls.clear()
            assert len(check_yb_system(x, y, hat)) == 8
            assert len(calls) == 4


def test_yb_system_reports_a_broken_mixed_family_under_every_name(monkeypatch):
    # the mixed family's a1 entry off by 1 breaks every axiom that has B or C
    real = yang_baxter.r_family

    def broken(x, y):
        fam = real(x, y)
        if x is y:
            return fam

        def off(za, ta, zb, tb):
            m = fam(za, ta, zb, tb)
            one, zero = m.space.one(), m.space.zero()
            return m + PolyMatrix([[one if r == c == 0 else zero for c in range(4)]
                                   for r in range(4)])
        return off

    monkeypatch.setattr(yang_baxter, "r_family", broken)
    for x, y in ((IceKind.GAMMA, IceKind.DELTA), (IceKind.DELTA, IceKind.GAMMA)):
        for hat in (False, True):
            reports = dict(zip(_AXIOM_NAMES, check_yb_system(x, y, hat)))
            assert [name for name, rep in reports.items() if rep["status"] == "pass"] == [
                "A,A,A", "D,D,D"]
            for names in (("A,C,C", "A,B^dd,B^dd", "A,C,B^dd"),
                          ("D,B,B", "D,C^dd,C^dd", "D,B,C^dd")):
                witnesses = [reports[name]["witness"] for name in names]
                assert witnesses[0] is not None
                assert witnesses == [witnesses[0]] * 3


# -- the chain product against the star-triangle sides and the lifts ----------

def lifted_commutator(r, s, t):
    """[[R, S, T]] from the definition: three lifts and four 8x8 products."""
    lift = yang_baxter.lift  # looked up at each call, so a test can count the lifts
    r12, s13, t23 = lift(r, "12"), lift(s, "13"), lift(t, "23")
    return r12 @ s13 @ t23 - t23 @ s13 @ r12


def assert_entrywise_equal(got, want):
    assert got.space is want.space and got.size == want.size == 8
    for row in range(8):
        for col in range(8):
            assert got[row, col] == want[row, col]
            assert got[row, col].space is want.space


def star_triangle_commutator(r, s, t):
    """[[R, S, T]] entry by entry from ``star_triangle_sides``, whose index
    sums share no code with ``yb_commutator``'s chain product."""
    rows = [[None] * 8 for _ in range(8)]
    for sigma, tau, beta, theta, rho, alpha in itertools.product(range(2), repeat=6):
        lhs, rhs = star_triangle_sides(r, s, t, sigma, tau, beta, theta, rho, alpha)
        rows[4 * theta + 2 * rho + alpha][4 * sigma + 2 * tau + beta] = rhs - lhs
    return PolyMatrix(rows)


def sparse_matrix(rng, space, coefficient=lambda rng: rng.randint(-3, 3)):
    """A 4x4 matrix, about half of its entries zero, the others 1-3 terms
    of low degree with coefficients drawn by ``coefficient``."""
    def entry():
        if rng.random() < 0.5:
            return space.zero()
        return Polynomial(space, {tuple(rng.randint(0, 2) for _ in range(2 * space.n)):
                                  coefficient(rng) for _ in range(rng.randint(1, 3))})
    return PolyMatrix([[entry() for _ in range(4)] for _ in range(4)])


def kronecker_lift(phi, slot):
    """The lift built from Kronecker products: phi (x) I, I (x) phi, and for
    slot 13 phi (x) I with the second and third factors exchanged, which
    moves rows and columns and multiplies nothing."""
    ident = PolyMatrix.identity(phi.space, 2)
    if slot == "12":
        return kron(phi, ident)
    if slot == "23":
        return kron(ident, phi)
    order = [4 * a + 2 * c + b for a, b, c in itertools.product(range(2), repeat=3)]
    wide = kron(phi, ident)
    return PolyMatrix([[wide[r, c] for c in order] for r in order])


def test_lifted_rows_are_the_sparse_rows_of_the_kronecker_lifts():
    rng = random.Random(6)
    space = VarSpace(2)
    for _ in range(10):
        phi = sparse_matrix(rng, space)
        for slot in ("12", "13", "23"):
            want = kronecker_lift(phi, slot)
            assert yang_baxter._lifted_rows(phi, slot) == _sparse_rows(want)
            assert lift(phi, slot) == want


def test_commutator_matches_the_star_triangle_sides_on_the_ice_families():
    # the rank-3 triples of the ybe check, plain and hatted, which vanish,
    # and their arguments rotated, which do not
    space = VarSpace(3)
    p1, p2, p3 = [(space.z(k), space.t(k)) for k in (1, 2, 3)]
    nonzero = 0
    for x, y, z in itertools.product(IceKind, repeat=3):
        for hat in (False, True):
            f12, f13, f23 = yang_baxter._families(((x, y), (x, z), (y, z)), hat)
            r, s, t = f12(*p1, *p2), f13(*p1, *p3), f23(*p2, *p3)
            for k, triple in enumerate(((r, s, t), (s, t, r), (t, r, s))):
                got = yb_commutator(*triple)
                assert_entrywise_equal(got, star_triangle_commutator(*triple))
                assert got.is_zero() == (k == 0)
                nonzero += not got.is_zero()
    assert nonzero == 2 * 2 * 8


def test_commutator_matches_the_star_triangle_sides_on_gaussian_triples():
    rng = random.Random(7)
    nonzero = 0
    for rank in (0, 1, 2):
        space = VarSpace(rank)
        for _ in range(5):
            triple = [sparse_matrix(rng, space, lambda rng: GaussianRational(
                rng.randint(-2, 2), rng.randint(-2, 2))) for _ in range(3)]
            got = yb_commutator(*triple)
            assert_entrywise_equal(got, star_triangle_commutator(*triple))
            nonzero += not got.is_zero()
    assert nonzero >= 10


def test_commutator_matches_the_lifted_products_on_the_ice_families():
    # every kind/hat triple of the ybe check, which vanishes, and its
    # arguments rotated, which do not
    space = VarSpace(3)
    p1, p2, p3 = [(space.z(k), space.t(k)) for k in (1, 2, 3)]
    nonzero = 0
    for kinds in itertools.product(IceKind, repeat=3):
        x, y, z = kinds
        for hat in (False, True):
            f12, f13, f23 = yang_baxter._families(((x, y), (x, z), (y, z)), hat)
            r, s, t = f12(*p1, *p2), f13(*p1, *p3), f23(*p2, *p3)
            for triple in ((r, s, t), (s, t, r), (t, r, s)):
                got = yb_commutator(*triple)
                assert_entrywise_equal(got, lifted_commutator(*triple))
                # the entries that cancel, wholly or in part, keep no zero
                assert all(all(entry._terms.values()) for row in got.rows for entry in row)
                nonzero += not got.is_zero()
    assert nonzero >= 16


COEFFICIENTS = {
    "int": st.integers(-3, 3),
    "fraction": st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    "gaussian": st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2)),
}


@st.composite
def matrix_triples(draw):
    """Three 4x4 matrices over one rank 0-3, every entry (the corners d1 and
    d2 of a type-D system too) zero with one drawn probability, else 1-3
    terms of low degree with coefficients of one drawn kind."""
    space = VarSpace(draw(st.integers(0, 3)))
    coefficient = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]
    sparsity = draw(st.sampled_from((0.0, 0.3, 0.6, 0.9)))

    def entry():
        if draw(st.floats(0, 1)) < sparsity:
            return space.zero()
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            mono = tuple(draw(st.integers(0, 2)) for _ in range(2 * space.n))
            terms[mono] = draw(coefficient)
        return Polynomial(space, terms)
    return tuple(PolyMatrix([[entry() for _ in range(4)] for _ in range(4)])
                 for _ in range(3))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrix_triples())
def test_commutator_matches_the_lifted_products(triple):
    assert_entrywise_equal(yb_commutator(*triple), lifted_commutator(*triple))


def test_commutator_matches_the_lifted_products_on_free_fermionic_draws():
    # constant type C and type D systems: a type-D system has d entries
    rng = random.Random(5)
    for k in range(30):
        triple = [random_free_fermionic("CD"[(k + j) % 2], rng).end2() for j in range(3)]
        assert_entrywise_equal(yb_commutator(*triple), lifted_commutator(*triple))


def test_commutator_keeps_the_exponent_guard():
    space = VarSpace(1)
    limit = EXPONENT_LIMIT

    def full(p):
        return PolyMatrix([[p] * 4 for _ in range(4)])
    # R.S at limit - 2 and one more from T: both forms compute it
    below = (full(space.z(1, limit // 2 - 1)), full(space.z(1, limit // 2 - 1)),
             full(space.z(1)))
    assert_entrywise_equal(yb_commutator(*below), lifted_commutator(*below))
    # R.S at the limit: both forms raise
    at = (full(space.z(1, limit // 2)), full(space.z(1, limit // 2)), full(space.one()))
    # three exponents of limit - 1: their sum carries out of the t field, so
    # only the guard test of the R.S pair sees it
    carry = tuple(full(space.t(1, limit - 1)) for _ in range(3))
    for triple in (at, carry):
        for form in (yb_commutator, lifted_commutator):
            with pytest.raises(OverflowError, match="exponent overflow"):
                form(*triple)


def test_commutator_refuses_what_the_lifts_refuse():
    space = VarSpace(1)
    four, two = PolyMatrix.identity(space, 4), PolyMatrix.identity(space, 2)
    for triple in ((two, four, four), (four, two, four), (four, four, two)):
        with pytest.raises(ValueError, match="lift expects a 4x4 matrix"):
            yb_commutator(*triple)
    other = PolyMatrix.identity(VarSpace(2), 4)
    for triple in ((four, other, four), (four, four, other)):
        for form in (yb_commutator, lifted_commutator):
            with pytest.raises(ValueError, match=r"variable space mismatch: "
                                                 r"VarSpace\(1\) vs VarSpace\(2\)"):
                form(*triple)


def test_lift_refuses_a_weight_system_in_place_of_its_end2():
    space = VarSpace(1)
    for bad in (gamma(space, 1), gamma(space, 1).end2().rows, None):
        with pytest.raises(TypeError, match=r"PolyMatrix, such as a weight system's end2\(\), "
                                            f"got {type(bad).__name__}$"):
            lift(bad, "12")
    with pytest.raises(ValueError, match="^lift expects a 4x4 matrix$"):
        lift(PolyMatrix.identity(space, 2), "12")


def test_commutator_refuses_a_weight_system_in_place_of_its_end2():
    space = VarSpace(1)
    weights = gamma(space, 1)
    four = weights.end2()
    for triple in ((weights, four, four), (four, weights, four), (four, four, weights)):
        with pytest.raises(TypeError, match=r"PolyMatrix, such as a weight system's end2\(\), "
                                            r"got VertexWeights$"):
            yb_commutator(*triple)


def test_commutator_lifts_multiplies_and_subtracts_nothing(monkeypatch):
    calls = []

    def counting(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    monkeypatch.setattr(yang_baxter, "lift", counting("lift", yang_baxter.lift))
    monkeypatch.setattr(PolyMatrix, "__matmul__",
                        counting("@", PolyMatrix.__matmul__))
    monkeypatch.setattr(Polynomial, "__sub__", counting("-", Polynomial.__sub__))
    space = VarSpace(2)
    triple = (ice_weights(space, IceKind.GAMMA, 1).end2(),
              r_weights(space, IceKind.GAMMA, IceKind.DELTA, 1, 2).end2(),
              ice_weights(space, IceKind.DELTA, 2).end2())
    assert not yb_commutator(*triple).is_zero()
    assert calls == []
    # the counters see the oracle's lifts, products and subtractions
    lifted_commutator(*triple)
    assert set(calls) == {"lift", "@", "-"}
