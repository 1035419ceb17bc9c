"""Tests for Boltzmann weight systems and their composition group law."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from sixvertex import weights
from sixvertex.matrix import PolyMatrix
from sixvertex.poly import IMAG, GaussianRational, Polynomial, VarSpace
from sixvertex.weights import (IceKind, VertexWeights, compose, delta,
                               delta_invariants, free_fermion, gamma,
                               ice_weights, inverse_scaled, invariants_match,
                               pi_map, r_weights, r_weights_params,
                               random_free_fermionic, random_matched_pair,
                               random_mismatched_pair, solve_R_from_ST)
from sixvertex.yang_baxter import yb_commutator


def test_gamma_weight_table():
    space = VarSpace(2)
    w = gamma(space, 2)
    z, t = space.z(2), space.t(2)
    assert w.kind == "C"
    assert w.a1 == space.one()
    assert w.a2 == z
    assert w.b1 == t
    assert w.b2 == z
    assert w.c1 == z * (t + 1)
    assert w.c2 == space.one()
    assert w.d1.is_zero() and w.d2.is_zero()


def test_delta_weight_table():
    space = VarSpace(2)
    w = delta(space, 1)
    z, t = space.z(1), space.t(1)
    assert w.kind == "D"
    assert w.a1 == z
    assert w.a2 == space.one()
    assert w.b1 == z * t
    assert w.b2 == space.one()
    assert w.d1 == space.one()
    assert w.d2 == z * (t + 1)
    assert w.c1.is_zero() and w.c2.is_zero()
    assert ice_weights(space, IceKind.GAMMA, 1) == gamma(space, 1)
    assert ice_weights(space, IceKind.DELTA, 1) == delta(space, 1)


def test_unknown_ice_kinds_are_refused():
    space = VarSpace(2)
    with pytest.raises(ValueError, match="'bogus' is not a valid IceKind"):
        ice_weights(space, "bogus", 1)
    with pytest.raises(ValueError, match="'nope' is not a valid IceKind"):
        r_weights(space, IceKind.GAMMA, "nope", 1, 2)
    with pytest.raises(ValueError, match="'nope' is not a valid IceKind"):
        r_weights_params("nope", IceKind.DELTA, space.z(1), space.t(1),
                         space.z(2), space.t(2))
    assert ice_weights(space, "gamma", 1) == gamma(space, 1)
    assert ice_weights(space, "delta", 1) == delta(space, 1)
    assert (r_weights(space, "gamma", "delta", 1, 2)
            == r_weights(space, IceKind.GAMMA, IceKind.DELTA, 1, 2))


def test_classification_rejects_mixed_weights():
    space = VarSpace(1)
    one, zero = space.one(), space.zero()
    with pytest.raises(ValueError):
        VertexWeights(one, one, one, one, one, one, one, one)
    with pytest.raises(ValueError):
        VertexWeights(one, one, one, one, zero, zero, zero, zero)
    with pytest.raises(ValueError):
        VertexWeights(one, one, one, one, one, zero, zero, zero)
    assert VertexWeights.type_c(one, one, one, one, one, one).kind == "C"
    assert VertexWeights.type_d(one, one, one, one, one, one).kind == "D"
    with pytest.raises(AttributeError):
        gamma(space, 1).a1 = one


def test_end2_layout():
    space = VarSpace(1)
    w = delta(space, 1)
    m = w.end2()
    assert m[0, 0] == w.a1 and m[3, 3] == w.a2
    assert m[1, 1] == w.b1 and m[2, 2] == w.b2
    assert m[1, 2] == w.c1 and m[2, 1] == w.c2
    assert m[0, 3] == w.d1 and m[3, 0] == w.d2
    for r, c in ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)):
        assert m[r, c].is_zero()


def test_json_round_trip_and_declared_type():
    space = VarSpace(2)
    for w in (gamma(space, 1), delta(space, 2),
              r_weights(space, IceKind.GAMMA, IceKind.DELTA, 1, 2)):
        assert VertexWeights.from_json(w.to_json()) == w
    data = gamma(space, 1).to_json()
    data["type"] = "D"
    with pytest.raises(ValueError):
        VertexWeights.from_json(data)


def test_r_weights_requires_distinct_rows():
    space = VarSpace(2)
    with pytest.raises(ValueError):
        r_weights(space, IceKind.GAMMA, IceKind.GAMMA, 1, 1)


# The four printed R-matrix families, weight for weight: the oracle that
# r_weights_params, built by the group law, must equal.
PRINTED_R = {
    (IceKind.GAMMA, IceKind.GAMMA): lambda za, ta, zb, tb: VertexWeights.type_c(
        zb + tb * za, za + ta * zb,
        ta * zb - tb * za, za - zb,
        za * (ta + 1), zb * (tb + 1)),
    (IceKind.DELTA, IceKind.DELTA): lambda za, ta, zb, tb: VertexWeights.type_c(
        za * ta + zb, zb * tb + za,
        za - zb, zb * tb - za * ta,
        zb * tb + zb, za * ta + za),
    (IceKind.GAMMA, IceKind.DELTA): lambda za, ta, zb, tb: VertexWeights.type_d(
        -za + ta * tb * zb, za - zb,
        zb * tb + za, zb * ta + za,
        za * ta + za, zb * tb + zb),
    (IceKind.DELTA, IceKind.GAMMA): lambda za, ta, zb, tb: VertexWeights.type_d(
        za - zb, zb - ta * tb * za,
        za * ta + zb, za * tb + zb,
        zb * tb + zb, za * ta + za),
}


def printed_ice(kind, z, t):
    """Gamma (1, z, t, z, z(t+1), 1) or Delta (z, 1, zt, 1; 1, z(t+1)) at (z, t)."""
    one = z.space.one()
    if kind == IceKind.GAMMA:
        return VertexWeights.type_c(one, z, t, z, z * (t + 1), one)
    return VertexWeights.type_d(z, one, z * t, one, one, z * (t + 1))


def r_matrix_points():
    """Parameter pairs (za, ta, zb, tb): rows, hatted orders and rank-0 numbers."""
    points = []
    for n in (2, 3):
        s = VarSpace(n)
        points += [(s.z(1), s.t(1), s.z(2), s.t(2)), (s.z(2), s.t(1), s.z(1), s.t(2))]
    s = VarSpace(3)
    points.append((s.z(3), s.t(2), s.z(1), s.t(3)))
    c = VarSpace(0).const
    points += [(c(2), c(3), c(5), c(7)),
               (c(Fraction(1, 3)), c(2), c(-4), c(Fraction(5, 2))),
               (c(IMAG), c(1), c(2), c(3)),
               (c(2), c(IMAG), c(3), c(-2 * IMAG))]
    return points


def test_r_families_equal_the_printed_tables():
    c = VarSpace(0).const
    zero_point = (c(0), c(1), c(2), c(3))
    for x in IceKind:
        for y in IceKind:
            for point in r_matrix_points():
                got, want = r_weights_params(x, y, *point), PRINTED_R[x, y](*point)
                assert got == want
                assert got.to_json() == want.to_json()
            # a zero parameter leaves neither type, on both paths
            with pytest.raises(ValueError, match="neither type C nor type D"):
                r_weights_params(x, y, *zero_point)
            with pytest.raises(ValueError, match="neither type C nor type D"):
                PRINTED_R[x, y](*zero_point)


def test_r_families_follow_the_group_law():
    # pi(R_XY(a, b)) @ pi(Y(b)) = zb (1 + tb) pi(X(a)) for both kinds of Y
    for x in IceKind:
        for y in IceKind:
            for za, ta, zb, tb in r_matrix_points():
                r = r_weights_params(x, y, za, ta, zb, tb)
                assert (pi_map(r) @ pi_map(printed_ice(y, zb, tb))
                        == pi_map(printed_ice(x, za, ta)).scale(zb * (tb + 1)))


def test_free_fermion_on_weight_families():
    space = VarSpace(2)
    assert free_fermion(gamma(space, 1)).is_zero()
    assert free_fermion(delta(space, 2)).is_zero()
    for x in IceKind:
        for y in IceKind:
            assert free_fermion(r_weights(space, x, y, 1, 2)).is_zero()
    generic = VertexWeights.type_c(*(space.const(k) for k in (1, 2, 3, 4, 5, 6)))
    assert free_fermion(generic) == space.const(1 * 2 + 3 * 4 - 5 * 6)


def test_pi_map_is_homomorphism():
    rng = random.Random(0)
    for _ in range(20):
        r = random_free_fermionic(rng.choice("CD"), rng)
        t = random_free_fermionic(rng.choice("CD"), rng)
        assert pi_map(compose(r, t)) == pi_map(r) @ pi_map(t)
        assert free_fermion(compose(r, t)).is_zero()


def test_compose_kind_table():
    rng = random.Random(1)
    table = {("C", "C"): "C", ("C", "D"): "D", ("D", "C"): "D", ("D", "D"): "C"}
    for (kr, kt), expected in table.items():
        r = random_free_fermionic(kr, rng)
        t = random_free_fermionic(kt, rng)
        assert compose(r, t).kind == expected


def test_compose_associativity_samples():
    rng = random.Random(2)
    for _ in range(20):
        triple = [random_free_fermionic(rng.choice("CD"), rng) for _ in range(3)]
        left = compose(compose(triple[0], triple[1]), triple[2])
        right = compose(triple[0], compose(triple[1], triple[2]))
        assert left == right


def test_compose_rejects_non_free_fermionic_inputs():
    space = VarSpace(0)
    generic = VertexWeights.type_c(*(space.const(k) for k in (1, 2, 3, 4, 5, 6)))
    ff = random_free_fermionic("C", random.Random(3))
    with pytest.raises(ValueError):
        compose(generic, ff)
    with pytest.raises(ValueError):
        compose(ff, generic)


def reference_free_fermion(w):
    """a1 a2 + b1 b2 - c1 c2 - d1 d2 by chained products and sums."""
    return w.a1 * w.a2 + w.b1 * w.b2 - w.c1 * w.c2 - w.d1 * w.d2


def reference_compose(r, t):
    """The group law's four case tables by chained products and sums."""
    for w in (r, t):
        if not reference_free_fermion(w).is_zero():
            raise ValueError("compose requires free-fermionic weights")
    if r.kind == "C" and t.kind == "C":
        return VertexWeights.type_c(
            r.a1 * t.a1 - r.b2 * t.b1,
            r.a2 * t.a2 - r.b1 * t.b2,
            r.b1 * t.a1 + r.a2 * t.b1,
            r.a1 * t.b2 + r.b2 * t.a2,
            r.c1 * t.c1,
            r.c2 * t.c2)
    if r.kind == "C" and t.kind == "D":
        return VertexWeights.type_d(
            r.a2 * t.a1 + r.b1 * t.b1,
            r.a1 * t.a2 + r.b2 * t.b2,
            r.a1 * t.b1 - r.b2 * t.a1,
            r.a2 * t.b2 - r.b1 * t.a2,
            r.c1 * t.d1,
            r.c2 * t.d2)
    if r.kind == "D" and t.kind == "C":
        return VertexWeights.type_d(
            r.a1 * t.a2 + r.b2 * t.b2,
            r.a2 * t.a1 + r.b1 * t.b1,
            r.b1 * t.a2 - r.a2 * t.b2,
            r.b2 * t.a1 - r.a1 * t.b1,
            r.d1 * t.c2,
            r.d2 * t.c1)
    return VertexWeights.type_c(
        r.b1 * t.b2 - r.a2 * t.a2,
        r.b2 * t.b1 - r.a1 * t.a1,
        r.b2 * t.a2 + r.a1 * t.b2,
        r.b1 * t.a1 + r.a2 * t.b1,
        r.d1 * t.d2,
        r.d2 * t.d1)


def times_imag(w):
    """Every weight times i: Gaussian coefficients, and still free-fermionic,
    since the free-fermion residual is homogeneous of degree 2."""
    return VertexWeights(*(getattr(w, f) * IMAG for f in VertexWeights._FIELDS))


def symbolic_free_fermionic_systems():
    space = VarSpace(2)
    plain = [gamma(space, 1), delta(space, 2)] + [
        r_weights(space, x, y, 1, 2) for x in IceKind for y in IceKind]
    return plain + [times_imag(w) for w in plain]


def test_compose_and_free_fermion_match_the_chained_formulas():
    systems = symbolic_free_fermionic_systems()
    assert any(w.kind == "C" for w in systems) and any(w.kind == "D" for w in systems)
    for w in systems:
        assert free_fermion(w) == reference_free_fermion(w)
        assert free_fermion(w).is_zero()
    for r in systems:
        for t in systems:
            composed = compose(r, t)
            assert composed == reference_compose(r, t)
            assert composed.space is r.space
    space = VarSpace(2)
    z, t = space.z(1), space.t(2)
    generic = VertexWeights.type_d(z + 1, t * IMAG, z * t - 3, z, 2 * t + IMAG, z * z)
    assert free_fermion(generic) == reference_free_fermion(generic)
    assert not free_fermion(generic).is_zero()
    generic_c = VertexWeights.type_c(z, t, z + t, space.const(3) * IMAG, z - 2, t * t)
    assert free_fermion(generic_c) == reference_free_fermion(generic_c)
    assert not free_fermion(generic_c).is_zero()


def test_inverse_scaled_both_kinds():
    rng = random.Random(4)
    space = VarSpace(0)
    for kind in "CD":
        for _ in range(10):
            w = random_free_fermionic(kind, rng)
            inv, scale = inverse_scaled(w)
            assert pi_map(inv) @ pi_map(w) == \
                PolyMatrix.identity(space, 4).scale(scale)
            assert pi_map(w) @ pi_map(inv) == \
                PolyMatrix.identity(space, 4).scale(scale)


def test_delta_invariants_shape_and_guards():
    space = VarSpace(0)
    w = VertexWeights.type_c(*(space.const(k) for k in (1, 2, 3, 4, 5, 6)))
    (n1, d1), (n2, d2) = delta_invariants(w)
    assert n1 == n2 == space.const(1 * 2 + 3 * 4 - 5 * 6)
    assert d1 == space.const(2 * 1 * 3)
    assert d2 == space.const(2 * 2 * 4)
    with pytest.raises(ValueError):
        delta_invariants(delta(VarSpace(1), 1))
    degenerate = VertexWeights.type_c(
        space.const(1), space.const(1), space.zero(),
        space.const(1), space.const(1), space.const(1))
    with pytest.raises(ZeroDivisionError):
        delta_invariants(degenerate)


def test_invariants_match_residuals():
    rng = random.Random(5)
    for _ in range(50):
        s, t = random_matched_pair(rng)
        res1, res2 = invariants_match(s, t)
        assert res1.is_zero() and res2.is_zero()
    s, t = random_mismatched_pair(rng)
    res1, res2 = invariants_match(s, t)
    assert res1 or res2


def test_second_printed_forms_differ_by_the_invariant_residuals():
    # solve_R_from_ST prints a1 = N1 / t.a1 and a2 = N2 / t.a2; the second
    # forms N1' / s.b1 and N2' / s.b2 differ from them by res1 / (2 s.b1 t.a1)
    # and res2 / (2 s.b2 t.a2), cleared of denominators here
    space = VarSpace(6)
    variables = [space.z(i) for i in range(1, 7)] + [space.t(i) for i in range(1, 7)]
    s, t = VertexWeights.type_c(*variables[:6]), VertexWeights.type_c(*variables[6:])
    n1 = s.b2 * t.a1 * t.b1 - s.a1 * t.b1 * t.b2 + s.a1 * t.c1 * t.c2
    n1_second = s.a1 * s.b1 * t.a2 - s.a1 * s.a2 * t.b1 + s.c1 * s.c2 * t.b1
    n2 = s.b1 * t.a2 * t.b2 - s.a2 * t.b1 * t.b2 + s.a2 * t.c1 * t.c2
    n2_second = s.a2 * s.b2 * t.a1 - s.a1 * s.a2 * t.b2 + s.c1 * s.c2 * t.b2
    res1, res2 = invariants_match(s, t)
    assert res1 and res2
    assert 2 * (s.b1 * n1 - t.a1 * n1_second) == res1
    assert 2 * (s.b2 * n2 - t.a2 * n2_second) == res2


def test_solve_matches_r_family_on_ice_weights():
    space = VarSpace(2)
    g1, g2 = gamma(space, 1), gamma(space, 2)
    solved = solve_R_from_ST(g1, g2)
    family = r_weights(space, IceKind.GAMMA, IceKind.GAMMA, 1, 2)
    assert solved == family
    assert yb_commutator(solved.end2(), g1.end2(), g2.end2()).is_zero()


def test_solve_on_matched_pairs_kills_commutator():
    rng = random.Random(6)
    for _ in range(5):
        s, t = random_matched_pair(rng)
        r = solve_R_from_ST(s, t)
        assert yb_commutator(r.end2(), s.end2(), t.end2()).is_zero()


def test_solve_guards():
    space = VarSpace(2)
    with pytest.raises(ValueError):
        solve_R_from_ST(delta(space, 1), delta(space, 2))
    zero_slot = VertexWeights.type_c(
        space.one(), space.one(), space.zero(),
        space.one(), space.one(), space.one())
    with pytest.raises(ValueError):
        solve_R_from_ST(zero_slot, gamma(space, 2))
    rng = random.Random(7)
    s, t = random_mismatched_pair(rng)
    with pytest.raises(ValueError):
        solve_R_from_ST(s, t)


def test_random_free_fermionic_properties():
    rng = random.Random(8)
    for kind in "CD":
        for _ in range(10):
            w = random_free_fermionic(kind, rng)
            assert w.kind == kind
            assert free_fermion(w).is_zero()
            live = ("a1", "a2", "b1", "b2") + \
                (("c1", "c2") if kind == "C" else ("d1", "d2"))
            assert all(not getattr(w, f).is_zero() for f in live)
    with pytest.raises(ValueError):
        random_free_fermionic("X", rng)


# The numbers a stream may draw before it counts as spinning: each stream
# below draws 50 to 100, and a wrong solve fails its guard on every redraw.
DRAW_BUDGET = 1000


class _BudgetedRandom(random.Random):
    """A seeded stream that raises after DRAW_BUDGET numbers, instead of
    letting a redraw loop run forever."""

    drawn = 0

    def choice(self, seq):
        # every drawn number makes exactly two choice calls: its numerator,
        # then its denominator
        self.drawn += 1
        if self.drawn > 2 * DRAW_BUDGET:
            raise AssertionError(f"{DRAW_BUDGET} numbers drawn and no draw accepted")
        return super().choice(seq)


DRAW_STREAMS = {
    "free-fermionic-C": lambda rng: [random_free_fermionic("C", rng).to_json()
                                     for _ in range(20)],
    "free-fermionic-D": lambda rng: [random_free_fermionic("D", rng).to_json()
                                     for _ in range(20)],
    "matched-pair": lambda rng: [[w.to_json() for w in random_matched_pair(rng)]
                                 for _ in range(5)],
    "mismatched-pair": lambda rng: [[w.to_json() for w in random_mismatched_pair(rng)]
                                    for _ in range(5)],
}

# md5 of json.dumps(stream, sort_keys=True).  No output line shows a drawn
# weight, so these digests are what holds every seed's draws in place: a
# changed value, or a changed number or order of draws, changes them.
DRAW_DIGESTS = {
    ("free-fermionic-C", 1): "0d922227234c81d4fa450418f866a073",
    ("free-fermionic-C", 7919): "8fc62f5f8e79edfd3691d46692c2fa13",
    ("free-fermionic-D", 1): "9f9c08d2f69e2cc8ad455419f38962bf",
    ("free-fermionic-D", 7919): "b5aec8973377b52582f97b6a77d4c79b",
    ("matched-pair", 1): "8d1375fdbe0b239d5744adc8a3fd44f0",
    ("matched-pair", 7919): "3ad61d49c1a316361c64ed20e504c622",
    ("mismatched-pair", 1): "170f65dc4b6e871d70d5db8b1135060a",
    ("mismatched-pair", 7919): "78c5639fc6c696deb692ff09d40074f5",
}


@pytest.mark.parametrize(("stream", "seed"), sorted(DRAW_DIGESTS))
def test_draw_streams_are_pinned(stream, seed):
    draws = DRAW_STREAMS[stream](_BudgetedRandom(seed))
    text = json.dumps(draws, sort_keys=True)
    assert hashlib.md5(text.encode()).hexdigest() == DRAW_DIGESTS[stream, seed]


def stored(p):
    """The terms of p with each stored coefficient's type, and a Gaussian
    coefficient's part types, beside its value."""
    return {m: (type(c), c, (type(c.re), type(c.im)) if type(c) is GaussianRational else ())
            for m, c in p._terms.items()}


def stored_system(w):
    return w.kind, [stored(getattr(w, f)) for f in VertexWeights._FIELDS]


def scalar_imag_pi_map(w):
    """pi_map of a type-D system with its +-i entries as w.x * IMAG."""
    zero = w.space.zero()
    return [[zero, zero, zero, w.d1],
            [zero, w.a2 * IMAG, -(w.b1 * IMAG), zero],
            [zero, w.b2 * IMAG, w.a1 * IMAG, zero],
            [w.d2, zero, zero, zero]]


def type_d_systems():
    """Type-D systems with int, Fraction and Gaussian coefficients, also a
    Gaussian one whose imaginary part cancelled."""
    rng = random.Random(3)
    space = VarSpace(2)
    z, t, i = space.z(1), space.t(2), space.const(IMAG)
    systems = [w for w in symbolic_free_fermionic_systems() if w.kind == "D"]
    systems += [random_free_fermionic("D", rng) for _ in range(20)]
    systems.append(VertexWeights.type_d(z + 1, t * IMAG, i * i * z - 3, z * Fraction(2, 3),
                                        2 * t + IMAG, z * z))
    return systems


def test_type_d_pi_map_equals_the_scalar_imag_form():
    for w in type_d_systems():
        got, want = pi_map(w), scalar_imag_pi_map(w)
        for r in range(4):
            for c in range(4):
                assert stored(got[r, c]) == stored(want[r][c])


def _counting(monkeypatch, name):
    """Count the calls of the Polynomial method ``name``."""
    calls = []
    real = getattr(Polynomial, name)

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(Polynomial, name, counted)
    return calls


def test_signed_accumulations_negate_no_polynomial(monkeypatch):
    rng = random.Random(5)
    systems = {kind: [random_free_fermionic(kind, rng) for _ in range(3)] for kind in "CD"}
    pairs = [random_matched_pair(rng), random_mismatched_pair(rng)]
    negations = _counting(monkeypatch, "__neg__")
    for r_kind in "CD":
        for t_kind in "CD":
            for r, t in zip(systems[r_kind], systems[t_kind]):
                compose(r, t)
                free_fermion(r)
    for s, t in pairs:
        invariants_match(s, t)
    assert negations == []
    -VarSpace(0).one()  # the counter counts
    assert negations == ["__neg__"]


def test_type_d_pi_map_multiplies_no_polynomial(monkeypatch):
    systems = type_d_systems()
    multiplies = [_counting(monkeypatch, name) for name in ("__mul__", "__rmul__")]
    for w in systems:
        pi_map(w)
    assert multiplies == [[], []]
    VarSpace(0).one() * 2
    assert multiplies == [["__mul__"], []]


def _fraction_draw(rng):
    """The draw as a Fraction of rng.choice(_NUMERATORS) and rng.randint(1, 9)."""
    return Fraction(rng.choice(weights._NUMERATORS), rng.randint(1, 9))


DRAWERS = {
    "random_free_fermionic-C": lambda rng: stored_system(random_free_fermionic("C", rng)),
    "random_free_fermionic-D": lambda rng: stored_system(random_free_fermionic("D", rng)),
    "random_matched_pair": lambda rng: [stored_system(w) for w in random_matched_pair(rng)],
    "random_mismatched_pair": lambda rng: [stored_system(w)
                                           for w in random_mismatched_pair(rng)],
}


def test_table_draws_equal_the_fraction_formula(monkeypatch):
    for seed in range(100):
        rng, oracle = random.Random(seed), random.Random(seed)
        for _ in range(3):
            drawn, want = weights._random_nonzero(rng), _fraction_draw(oracle)
            assert (type(drawn), drawn) == (type(want), want)
        assert rng.getstate() == oracle.getstate()
    for name, draw in DRAWERS.items():
        for seed in range(100):
            rng, oracle = random.Random(seed), random.Random(seed)
            got = draw(rng)
            with monkeypatch.context() as patch:
                patch.setattr(weights, "_random_nonzero", _fraction_draw)
                want = draw(oracle)
            assert got == want, (name, seed)
            assert rng.getstate() == oracle.getstate(), (name, seed)
