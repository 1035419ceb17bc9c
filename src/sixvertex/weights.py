"""Boltzmann weight systems and the group law on free-fermionic R-matrices.

A vertex system is eight polynomials (a1, a2, b1, b2, c1, c2, d1, d2)
arranged as the endomorphism

    [a1  0   0  d1]
    [0   b1  c1  0]
    [0   c2  b2  0]
    [d2  0   0  a2]

of V (x) V in the basis ++, +-, -+, --.  ``_END2`` holds this one layout:
lattice weights and admissibility read it through the vertex rule of
``_vertex_entry``, and the solution space of [[R, S, T]] = 0 reads the
positions of the type-C weights from it.  Type C has d1 = d2 = 0 and
c1*c2 != 0; type D has c1 = c2 = 0 and d1*d2 != 0.  The pi map linearizes
composition: pi(compose(R, T)) = pi(R) @ pi(T), with the four type-pair
case tables C.C -> C, C.D -> D, D.C -> D, D.D -> C.

The R-matrix families come from the group law alone: R_XY(a, b) is
X(a) composed with the scaled inverse of Y(b), signed so that
pi(R_XY(a, b)) @ pi(Y(b)) = z_b (1 + t_b) pi(X(a)) for either kind of Y.
The four printed kind-pair tables are kept only in the tests, as the
oracle these products must equal.
"""

from __future__ import annotations

import enum
import random
from fractions import Fraction

from .matrix import PolyMatrix
from .poly import GaussianRational, IMAG, Immutable, Polynomial, VarSpace, _check_space, _dot


class IceKind(str, enum.Enum):
    GAMMA = "gamma"
    DELTA = "delta"


# The weight at each entry of the vertex matrix, None for an entry that is
# always zero; the module docstring shows the same layout.
_END2 = (("a1", None, None, "d1"),
         (None, "b1", "c1", None),
         (None, "c2", "b2", None),
         ("d2", None, None, "a2"))


def _vertex_entry(w: int, n: int, e: int, s: int) -> tuple[int, int]:
    """The vertex rule: the (row, column) of the vertex matrix that holds the
    weight of a vertex with spins (W, N, E, S), each read as a bit with 0
    for + (``spin < 0``), so the weight is end2()[2E+S, 2W+N].  The vertex
    is admissible exactly when that entry is nonzero."""
    return 2 * (e < 0) + (s < 0), 2 * (w < 0) + (n < 0)


class VertexWeights(Immutable):
    """Eight Boltzmann weights with a type-C or type-D classification."""

    __slots__ = ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2", "kind")

    _FIELDS = ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")

    def __init__(self, a1, a2, b1, b2, c1, c2, d1, d2):
        values = (a1, a2, b1, b2, c1, c2, d1, d2)
        _check_space(a1.space, values)
        if c1.is_zero() and c2.is_zero() and not d1.is_zero() and not d2.is_zero():
            kind = "D"
        elif d1.is_zero() and d2.is_zero() and not c1.is_zero() and not c2.is_zero():
            kind = "C"
        else:
            raise ValueError("weights are neither type C nor type D")
        for name, v in zip(self._FIELDS, values):
            object.__setattr__(self, name, v)
        object.__setattr__(self, "kind", kind)

    @classmethod
    def type_c(cls, a1, a2, b1, b2, c1, c2) -> "VertexWeights":
        zero = a1.space.zero()
        return cls(a1, a2, b1, b2, c1, c2, zero, zero)

    @classmethod
    def type_d(cls, a1, a2, b1, b2, d1, d2) -> "VertexWeights":
        zero = a1.space.zero()
        return cls(a1, a2, b1, b2, zero, zero, d1, d2)

    @property
    def space(self) -> VarSpace:
        return self.a1.space

    def end2(self) -> PolyMatrix:
        """The vertex matrix in End(V (x) V), laid out as ``_END2``."""
        zero = self.space.zero()
        return PolyMatrix([[getattr(self, f) if f else zero for f in row] for row in _END2])

    def __repr__(self) -> str:
        hidden = "d" if self.kind == "C" else "c"
        body = ", ".join(f"{f}={getattr(self, f)}"
                         for f in self._FIELDS if f[0] != hidden)
        return f"<VertexWeights type {self.kind}: {body}>"

    def to_json(self) -> dict:
        data = {"type": self.kind}
        data.update({f: getattr(self, f).to_json() for f in self._FIELDS})
        return data

    @classmethod
    def from_json(cls, data: dict) -> "VertexWeights":
        w = cls(*(Polynomial.from_json(data[f]) for f in cls._FIELDS))
        if w.kind != data["type"]:
            raise ValueError(f"declared type {data['type']} but weights are type {w.kind}")
        return w


def _ice(kind: IceKind, z: Polynomial, t: Polynomial) -> VertexWeights:
    """The ice rule at any parameter pair (z, t): Gamma (1, z, t, z, z(t+1), 1)
    or Delta (z, 1, zt, 1; d1=1, d2=z(t+1))."""
    one = z.space.one()
    if kind == IceKind.GAMMA:
        return VertexWeights.type_c(one, z, t, z, z * (t + 1), one)
    return VertexWeights.type_d(z, one, z * t, one, one, z * (t + 1))


def gamma(space: VarSpace, i: int) -> VertexWeights:
    """Gamma ice weights for lattice row i: (1, z, t, z, z(t+1), 1)."""
    return _ice(IceKind.GAMMA, space.z(i), space.t(i))


def delta(space: VarSpace, i: int) -> VertexWeights:
    """Delta ice weights for lattice row i: (z, 1, zt, 1; d1=1, d2=z(t+1))."""
    return _ice(IceKind.DELTA, space.z(i), space.t(i))


def r_weights_params(x: IceKind, y: IceKind,
                     za: Polynomial, ta: Polynomial,
                     zb: Polynomial, tb: Polynomial) -> VertexWeights:
    """R-matrix weights for the (x, y) family at parameter pairs (za, ta), (zb, tb):
    X(a) composed with the scaled inverse of Y(b), so that
    pi(R) @ pi(Y(b)) = zb (1 + tb) pi(X(a))."""
    x, y = IceKind(x), IceKind(y)
    inverse = inverse_scaled(_ice(y, zb, tb))[0]
    if y == IceKind.DELTA:  # a type-D inverse carries the scalar -(d1 d2)
        inverse = VertexWeights(*(-getattr(inverse, f) for f in VertexWeights._FIELDS))
    return compose(_ice(x, za, ta), inverse)


def r_weights(space: VarSpace, x: IceKind, y: IceKind, i: int, j: int) -> VertexWeights:
    """R-matrix weights attaching rows i and j: r_weights_params at (z_i,t_i), (z_j,t_j)."""
    if i == j:
        raise ValueError(f"row indices must differ, got i = j = {i}")
    return r_weights_params(x, y, space.z(i), space.t(i), space.z(j), space.t(j))


def ice_weights(space: VarSpace, kind: IceKind, i: int) -> VertexWeights:
    return _ice(IceKind(kind), space.z(i), space.t(i))


def free_fermion(w: VertexWeights) -> Polynomial:
    """The residual a1 a2 + b1 b2 - c1 c2 - d1 d2; zero on the free-fermion locus."""
    return _dot(w.space, ((w.a1, w.a2), (w.b1, w.b2), (-w.c1, w.c2), (-w.d1, w.d2)))


def pi_map(w: VertexWeights) -> PolyMatrix:
    """The 4x4 linearization under which compose becomes matrix multiplication."""
    zero = w.space.zero()
    if w.kind == "C":
        return PolyMatrix([
            [w.c1, zero, zero, zero],
            [zero, w.a1, w.b2, zero],
            [zero, -w.b1, w.a2, zero],
            [zero, zero, zero, w.c2]])
    i = IMAG
    return PolyMatrix([
        [zero, zero, zero, w.d1],
        [zero, w.a2 * i, -(w.b1 * i), zero],
        [zero, w.b2 * i, w.a1 * i, zero],
        [w.d2, zero, zero, zero]])


def delta_invariants(w: VertexWeights) -> tuple[tuple[Polynomial, Polynomial],
                                                tuple[Polynomial, Polynomial]]:
    """The two anisotropy invariants of a type-C system, as unreduced ratios.

    Returns ((num, 2*a1*b1), (num, 2*a2*b2)) with num = a1 a2 + b1 b2 - c1 c2,
    the free-fermion residual of a type-C system, so Delta = 0 is the
    free-fermion locus.  Ratios stay unreduced; compare them by
    cross-multiplication.
    """
    if w.kind != "C":
        raise ValueError("invariants are defined for type-C weights")
    den1 = 2 * (w.a1 * w.b1)
    den2 = 2 * (w.a2 * w.b2)
    if den1.is_zero() or den2.is_zero():
        raise ZeroDivisionError("invariant denominator vanishes")
    num = free_fermion(w)
    return (num, den1), (num, den2)


def invariants_match(s: VertexWeights, t: VertexWeights) -> tuple[Polynomial, Polynomial]:
    """Cross-multiplied residuals of both invariant equalities; zero means match."""
    (n_s, d1_s), (_, d2_s) = delta_invariants(s)
    (n_t, d1_t), (_, d2_t) = delta_invariants(t)
    space = s.space
    _check_space(space, (t,))
    return (_dot(space, ((n_s, d1_t), (-n_t, d1_s))),
            _dot(space, ((n_s, d2_t), (-n_t, d2_s))))


def compose(r: VertexWeights, t: VertexWeights) -> VertexWeights:
    """The group law: weights s with pi_map(s) = pi_map(r) @ pi_map(t).

    Both factors must be free-fermionic, so a1 a2 + b1 b2 = c1 c2 (type C)
    or d1 d2 (type D), which VertexWeights keeps nonzero in an integral
    domain.  The type follows the pattern C.C -> C, C.D -> D, D.C -> D, D.D -> C.
    """
    space = r.space
    _check_space(space, (t,))
    for w in (r, t):
        if not free_fermion(w).is_zero():
            raise ValueError("compose requires free-fermionic weights")
    # a weight with two products is one accumulation of both, signs on the left
    if r.kind == "C" and t.kind == "C":
        return VertexWeights.type_c(
            _dot(space, [(r.a1, t.a1), (-r.b2, t.b1)]),
            _dot(space, [(r.a2, t.a2), (-r.b1, t.b2)]),
            _dot(space, [(r.b1, t.a1), (r.a2, t.b1)]),
            _dot(space, [(r.a1, t.b2), (r.b2, t.a2)]),
            r.c1 * t.c1,
            r.c2 * t.c2)
    if r.kind == "C" and t.kind == "D":
        return VertexWeights.type_d(
            _dot(space, [(r.a2, t.a1), (r.b1, t.b1)]),
            _dot(space, [(r.a1, t.a2), (r.b2, t.b2)]),
            _dot(space, [(r.a1, t.b1), (-r.b2, t.a1)]),
            _dot(space, [(r.a2, t.b2), (-r.b1, t.a2)]),
            r.c1 * t.d1,
            r.c2 * t.d2)
    if r.kind == "D" and t.kind == "C":
        return VertexWeights.type_d(
            _dot(space, [(r.a1, t.a2), (r.b2, t.b2)]),
            _dot(space, [(r.a2, t.a1), (r.b1, t.b1)]),
            _dot(space, [(r.b1, t.a2), (-r.a2, t.b2)]),
            _dot(space, [(r.b2, t.a1), (-r.a1, t.b1)]),
            r.d1 * t.c2,
            r.d2 * t.c1)
    return VertexWeights.type_c(
        _dot(space, [(r.b1, t.b2), (-r.a2, t.a2)]),
        _dot(space, [(r.b2, t.b1), (-r.a1, t.a1)]),
        _dot(space, [(r.b2, t.a2), (r.a1, t.b2)]),
        _dot(space, [(r.b1, t.a1), (r.a2, t.b1)]),
        r.d1 * t.d2,
        r.d2 * t.d1)


def inverse_scaled(w: VertexWeights) -> tuple[VertexWeights, Polynomial]:
    """A division-free inverse through pi: pi(inv) @ pi(w) = scalar * identity.

    The scalar is c1 c2 for type C and -(d1 d2) for type D; staying inside
    the polynomial ring costs this projective factor.
    """
    if w.kind == "C":
        inv = VertexWeights.type_c(w.a2, w.a1, -w.b1, -w.b2, w.c2, w.c1)
        return inv, w.c1 * w.c2
    inv = VertexWeights.type_d(w.a2, w.a1, -w.b1, -w.b2, -w.d1, -w.d2)
    return inv, -(w.d1 * w.d2)


def solve_R_from_ST(s: VertexWeights, t: VertexWeights) -> VertexWeights:
    """Construct type-C weights r with vanishing Yang-Baxter commutator [[r, s, t]].

    Requires all twelve weights of s and t nonzero and both invariant
    equalities (cross-multiplied).  a1(r) and a2(r) have second printed
    forms, over s.b1 and s.b2, that differ from these by the two invariant
    residuals over 2 s.b1 t.a1 and 2 s.b2 t.a2 (tests/test_weights.py), so
    they agree here.  Divisions must stay in the polynomial ring.
    """
    for name, w in (("s", s), ("t", t)):
        if w.kind != "C":
            raise ValueError(f"{name} must be type C")
        for f in ("a1", "a2", "b1", "b2", "c1", "c2"):
            if getattr(w, f).is_zero():
                raise ValueError(f"{name}.{f} must be nonzero")
    res1, res2 = invariants_match(s, t)
    if res1 or res2:
        raise ValueError(f"invariant mismatch, residuals {res1} and {res2}")
    a1 = (s.b2 * t.a1 * t.b1 - s.a1 * t.b1 * t.b2 + s.a1 * t.c1 * t.c2).exact_div(t.a1)
    a2 = (s.b1 * t.a2 * t.b2 - s.a2 * t.b1 * t.b2 + s.a2 * t.c1 * t.c2).exact_div(t.a2)
    return VertexWeights.type_c(
        a1, a2,
        s.b1 * t.a2 - s.a2 * t.b1,
        s.b2 * t.a1 - s.a1 * t.b2,
        s.c1 * t.c2,
        s.c2 * t.c1)


_NUMERATORS = tuple(k for k in range(-9, 10) if k)  # rng.choice indexes this order


def _random_nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_NUMERATORS), rng.randint(1, 9))


def _constant_weights(kind: str, values: tuple[Fraction, ...]) -> VertexWeights:
    """Rank-0 weights of kind "C" or "D" from the numbers in their six live slots."""
    space = VarSpace(0)
    build = VertexWeights.type_c if kind == "C" else VertexWeights.type_d
    return build(*(space.const(v) for v in values))


def random_free_fermionic(kind: str, rng: random.Random) -> VertexWeights:
    """Random constant free-fermionic weights of the given kind ("C" or "D").

    Five slots are drawn as small nonzero rationals and the last is solved
    from a1 a2 + b1 b2 = c1 c2 (or d1 d2), resampling when it degenerates.
    """
    if kind not in ("C", "D"):
        raise ValueError(f"kind must be 'C' or 'D', not {kind!r}")
    while True:
        a1, a2, b1, b2, e1 = (_random_nonzero(rng) for _ in range(5))
        numerator = a1 * a2 + b1 * b2
        if numerator:
            return _constant_weights(kind, (a1, a2, b1, b2, e1, numerator / e1))


def random_matched_pair(rng: random.Random,
                        ) -> tuple[VertexWeights, VertexWeights]:
    """Random type-C pair (s, t) sharing both anisotropy invariants.

    Draws s freely (resampling while its invariants vanish, since the t
    construction divides by them), then solves t's b2 and c2 so that the
    invariant pair of t equals that of s, so the pair matches as drawn;
    all twelve weights come out nonzero.
    """
    while True:
        s_values = tuple(_random_nonzero(rng) for _ in range(6))
        s_a1, s_a2, s_b1, s_b2, s_c1, s_c2 = s_values
        num_s = s_a1 * s_a2 + s_b1 * s_b2 - s_c1 * s_c2
        if not num_s:
            continue
        a1, a2, b1, c1 = (_random_nonzero(rng) for _ in range(4))
        # Delta_1(t) = Delta_1(s) and Delta_2(t) = Delta_2(s) force:
        #   b2 = Delta_1(s) a1 b1 / Delta_2(s) a2
        #   c1 c2 = a1 a2 + b1 b2 - 2 Delta_1(s) a1 b1
        delta1_s = num_s / (2 * s_a1 * s_b1)
        delta2_s = num_s / (2 * s_a2 * s_b2)
        b2 = delta1_s * a1 * b1 / (delta2_s * a2)
        cc = a1 * a2 + b1 * b2 - 2 * delta1_s * a1 * b1
        if not cc:
            continue
        return (_constant_weights("C", s_values),
                _constant_weights("C", (a1, a2, b1, b2, c1, cc / c1)))


def random_mismatched_pair(rng: random.Random,
                           ) -> tuple[VertexWeights, VertexWeights]:
    """Random type-C pair (s, t) whose anisotropy invariants differ."""
    while True:
        s, t = (_constant_weights("C", tuple(_random_nonzero(rng) for _ in range(6)))
                for _ in range(2))
        res1, res2 = invariants_match(s, t)
        if not (res1.is_zero() and res2.is_zero()):
            return s, t
