"""Tensor lifts, the Yang-Baxter commutator, and the Yang-Baxter checks.

The commutator of three endomorphisms of V (x) V is the 8x8 matrix

    [[R, S, T]] = R_12 S_13 T_23 - T_23 S_13 R_12

acting on V (x) V (x) V; identities hold exactly when every entry is the
zero polynomial.  This module also verifies projective triangularity
R_XY(i,j) P R_YX(j,i) P = c * I and the eight axioms of a parametrized
Yang-Baxter system built from the R-matrix families.
"""

from __future__ import annotations

import itertools
from typing import Callable

from .matrix import PolyMatrix
from .poly import (ONE, ZERO, GaussianRational, Polynomial, VarSpace, _SHOWN_TERMS,
                   _check_space, _dot, _head)
from .weights import (IceKind, VertexWeights, _END2, ice_weights, r_weights,
                      r_weights_params)

Family = Callable[[Polynomial, Polynomial, Polynomial, Polynomial], PolyMatrix]

# Each slot: the two factors of V (x) V (x) V that phi acts on, then the
# omitted factor, on which the lift is the identity.
_SLOT_FACTORS = {"12": (0, 1, 2), "13": (0, 2, 1), "23": (1, 2, 0)}
_BASIS3 = tuple(itertools.product(range(2), repeat=3))  # (a, b, c) at index 4a + 2b + c


def lift(phi: PolyMatrix, slot: str) -> PolyMatrix:
    """Extend a 4x4 endomorphism of V (x) V to V^3, identity on the omitted factor."""
    if phi.size != 4:
        raise ValueError("lift expects a 4x4 matrix")
    if slot not in _SLOT_FACTORS:
        raise ValueError(f"slot must be one of {tuple(_SLOT_FACTORS)}")
    i, j, k = _SLOT_FACTORS[slot]
    zero = phi.space.zero()
    return PolyMatrix([[phi[2 * x[i] + x[j], 2 * y[i] + y[j]] if x[k] == y[k] else zero
                        for y in _BASIS3] for x in _BASIS3])


def _moves(w: PolyMatrix) -> list[list[tuple[int, Polynomial]]]:
    """The nonzero entries of a 4x4 matrix by input pair: item 2x+y lists
    (2u+v, W[2u+v, 2x+y]), the vertices that send (x, y) to (u, v)."""
    return [[(out, row[col]) for out, row in enumerate(w.rows) if row[col]]
            for col in range(4)]


def yb_commutator(r: PolyMatrix, s: PolyMatrix, t: PolyMatrix) -> PolyMatrix:
    """The 8x8 difference R_12 S_13 T_23 - T_23 S_13 R_12.

    It is computed as the star-triangle path sum (Baxter, *Exactly Solved
    Models*, ch. 8-9), with no lift and no 8x8 product.  By the vertex rule
    W sends the spins (x, y) to (u, v) with weight W[2u+v, 2x+y].  From the
    basis vector (a, b, c), the left side follows T on (b, c), then S on
    (a, c'), then R on (a, b'); the right side follows R on (a, b), then S
    on (a', c), then T on (b', c').  Each R.S pair of a side is one
    ``_dot``, which also tests its guard bits: three exponents below the
    limit can carry past their field, two cannot.  A path files its R.S
    product with its T entry under the entry it reaches, the right side's
    with the subtracted pairs, and each entry is one ``_dot`` of its two
    lists; an entry that no path reaches is the one zero.  ``lift`` builds
    the oracle.
    """
    for phi in (r, s, t):
        if phi.size != 4:
            raise ValueError("lift expects a 4x4 matrix")
    space = r.space
    _check_space(space, (s, t))
    r_moves, s_moves, t_moves = _moves(r), _moves(s), _moves(t)
    # from each (a, b, c), the R.S pairs of each side and the state each
    # reaches: on the left S on (a, c), then R on (a', b), reach
    # (a'', b'', c'); on the right R on (a, b), then S on (a', c), reach
    # (a'', b', c')
    sides = ([[(2 * r_out + (s_out & 1), r_entry, s_entry)
               for s_out, s_entry in s_moves[2 * a + c]
               for r_out, r_entry in r_moves[2 * (s_out >> 1) + b]] for a, b, c in _BASIS3],
             [[(4 * (s_out >> 1) + 2 * (r_out & 1) + (s_out & 1), r_entry, s_entry)
               for r_out, r_entry in r_moves[2 * a + b]
               for s_out, s_entry in s_moves[2 * (r_out >> 1) + c]] for a, b, c in _BASIS3])
    left, right = ([[(out, _dot(space, ((r_entry, s_entry),))) for out, r_entry, s_entry in paths]
                    for paths in side] for side in sides)
    # entry (row, col) at 8 row + col: its pairs and its subtracted pairs
    cells: list[tuple[list, list] | None] = [None] * 64
    for col, (a, b, c) in enumerate(_BASIS3):
        # the left side: T on (b, c), then the R.S pairs from (a, b', c')
        for t_out, t_entry in t_moves[2 * b + c]:
            for row, rs in left[4 * a + t_out]:
                cell = cells[8 * row + col]
                if cell is None:
                    cell = cells[8 * row + col] = ([], [])
                cell[0].append((rs, t_entry))
        # the right side: the R.S pairs from (a, b, c), then T on (b', c')
        for mid, rs in right[col]:
            base = 8 * (mid & 4) + col  # row 4a'' + t_out
            for t_out, t_entry in t_moves[mid & 3]:
                cell = cells[base + 8 * t_out]
                if cell is None:
                    cell = cells[base + 8 * t_out] = ([], [])
                cell[1].append((rs, t_entry))
    zero = space.zero()
    return PolyMatrix._raw(space, 8, tuple(
        tuple(zero if cell is None else _dot(space, *cell) for cell in cells[row:row + 8])
        for row in range(0, 64, 8)))


def star_triangle_sides(r: PolyMatrix, s: PolyMatrix, t: PolyMatrix,
                        sigma: int, tau: int, beta: int,
                        theta: int, rho: int, alpha: int,
                        ) -> tuple[Polynomial, Polynomial]:
    """Both sides of the star-triangle identity as explicit index sums.

    Spins are bits, and by the vertex rule (README, "Conventions") a weight
    W_{xy}^{uv} is the matrix entry W[2u+v, 2x+y].  For the fixed outer
    spins the two sides are

        sum over gamma, mu, nu of R_{sigma tau}^{nu mu} S_{nu beta}^{theta gamma}
            T_{mu gamma}^{rho alpha}
        sum over delta, phi, psi of T_{tau beta}^{psi delta} S_{sigma delta}^{phi alpha}
            R_{phi psi}^{theta rho}

    and the ((theta,rho,alpha), (sigma,tau,beta)) entry of [[R, S, T]]
    equals the second sum minus the first.
    """
    space = r.space
    lhs = space.zero()
    rhs = space.zero()
    for g, m, n in itertools.product(range(2), repeat=3):
        lhs = lhs + (r[2 * n + m, 2 * sigma + tau]
                     * s[2 * theta + g, 2 * n + beta]
                     * t[2 * rho + alpha, 2 * m + g])
    for d, f, p in itertools.product(range(2), repeat=3):
        rhs = rhs + (t[2 * p + d, 2 * tau + beta]
                     * s[2 * f + alpha, 2 * sigma + d]
                     * r[2 * theta + rho, 2 * f + p])
    return lhs, rhs


def swap_matrix(space: VarSpace) -> PolyMatrix:
    """The permutation P of V (x) V exchanging the two factors."""
    one, zero = space.one(), space.zero()
    return PolyMatrix([
        [one, zero, zero, zero],
        [zero, zero, one, zero],
        [zero, one, zero, zero],
        [zero, zero, zero, one]])


def _swap_conjugate(m: PolyMatrix) -> PolyMatrix:
    """P m P with no product: P exchanges the basis vectors +- and -+, so rows
    1 and 2 trade places and so do columns 1 and 2 (b1 with b2, c1 with c2)."""
    order = (0, 2, 1, 3)
    return PolyMatrix([[m[r, c] for c in order] for r in order])


def r_family(x: IceKind, y: IceKind) -> Family:
    """The (x, y) R-matrix as a function of two full parameter pairs."""
    def fam(za, ta, zb, tb):
        return r_weights_params(x, y, za, ta, zb, tb).end2()
    return fam


def ddagger(family: Family) -> Family:
    """The dagger-swap of a family: X^dd(z1,t1,z2,t2) = P X(z2,t2,z1,t1) P."""
    def fam(za, ta, zb, tb):
        return _swap_conjugate(family(zb, tb, za, ta))
    return fam


def hatted(family: Family) -> Family:
    """The hat-swap of a family: exchanges the z parameters but not the t."""
    def fam(za, ta, zb, tb):
        return family(zb, ta, za, tb)
    return fam


def _families(pairs: tuple[tuple[IceKind, IceKind], ...], hat: bool) -> list[Family]:
    """The R-matrix family of each kind pair, hat-swapped when ``hat`` is set."""
    return [hatted(r_family(*pair)) if hat else r_family(*pair) for pair in pairs]


def report(check: str, outcome: PolyMatrix | Polynomial | bool,
           witness: object = None) -> dict:
    """The ``{"check", "status", "witness"}`` record of one verification.

    A residual passes iff it is identically zero; its witness is the JSON of
    the polynomial, or of the first nonzero entry of a matrix, cut to its
    ``_SHOWN_TERMS`` leading terms plus a ``"term_count"`` when it has
    more.  A boolean outcome passes iff true, with ``witness`` recorded
    only on failure.
    """
    if isinstance(outcome, PolyMatrix):
        bad = outcome.nonzero_entries()
        outcome = bad[0][2] if bad else outcome.space.zero()
    if isinstance(outcome, Polynomial):
        outcome, witness = outcome.is_zero(), _residual_witness(outcome)
    return {"check": check, "status": "pass" if outcome else "fail",
            "witness": None if outcome else witness}


def _residual_witness(residual: Polynomial) -> dict:
    """The JSON of ``residual``, or of its ``_SHOWN_TERMS`` leading terms and
    its ``"term_count"`` when it has more."""
    count = len(residual._terms)
    if count <= _SHOWN_TERMS:
        return residual.to_json()
    return dict(_head(residual).to_json(), term_count=count)


def check_ice_commutator(x: IceKind, y: IceKind) -> dict:
    """Verifies [[R_XY(1,2), X(1), Y(2)]] = 0 symbolically."""
    x, y = IceKind(x), IceKind(y)
    space = VarSpace(2)
    r = r_weights(space, x, y, 1, 2)
    residual = yb_commutator(r.end2(),
                             ice_weights(space, x, 1).end2(),
                             ice_weights(space, y, 2).end2())
    return report(f"ice-commutator {x.value},{y.value}", residual)


def _ybe_residual(f12: Family, f13: Family, f23: Family) -> PolyMatrix:
    """[[F12(1,2), F13(1,3), F23(2,3)]], where F(j,k) is the family F at the
    parameter pairs (z_j, t_j) and (z_k, t_k) of rank 3."""
    space = VarSpace(3)
    p1, p2, p3 = [(space.z(k), space.t(k)) for k in (1, 2, 3)]
    return yb_commutator(f12(*p1, *p2), f13(*p1, *p3), f23(*p2, *p3))


def check_parametrized_ybe(x: IceKind, y: IceKind, z: IceKind,
                           hat: bool = False) -> dict:
    """Verifies [[R_XY(1,2), R_XZ(1,3), R_YZ(2,3)]] = 0, plainly or hatted."""
    x, y, z = IceKind(x), IceKind(y), IceKind(z)
    residual = _ybe_residual(*_families(((x, y), (x, z), (y, z)), hat))
    tag = " hatted" if hat else ""
    return report(f"ybe {x.value},{y.value},{z.value}{tag}", residual)


def check_triangularity(x: IceKind, y: IceKind) -> Polynomial:
    """The scalar c with R_XY(1,2) P R_YX(2,1) P = c * I; errors if not scalar."""
    space = VarSpace(2)
    fwd = r_weights(space, x, y, 1, 2)
    rev = r_weights(space, y, x, 2, 1)
    product = fwd.end2() @ _swap_conjugate(rev.end2())
    scalar = product.scalar_value()
    if scalar is None:
        raise ValueError(f"product is not scalar: {product!r}")
    return scalar


def r_solution_space(s: VertexWeights, t: VertexWeights,
                     ) -> list[tuple[GaussianRational, ...]]:
    """Basis of the type-C weight vectors (a1,a2,b1,b2,c1,c2) solving
    [[R, S, T]] = 0 for constant S and T.

    The commutator is linear in the weights of R, so the solutions form the
    nullspace of a 64x6 linear system; admissible R-matrices need nonzero
    c1 and c2, so an all-solutions basis with vanishing c-slots certifies
    that no admissible R exists.
    """
    space = s.space
    _check_space(space, (t,))
    s2, t2 = s.end2(), t.end2()
    zero, one = space.zero(), space.one()
    columns = []
    for field in VertexWeights._FIELDS[:6]:  # a1, a2, b1, b2, c1, c2
        rows = [[one if f == field else zero for f in row] for row in _END2]
        comm = yb_commutator(PolyMatrix(rows), s2, t2)
        columns.append([comm[r, c].constant_value()
                        for r in range(8) for c in range(8)])
    system = [[columns[k][row] for k in range(6)] for row in range(64)]
    return _nullspace(system)


def _nullspace(rows: list[list[GaussianRational]],
               ) -> list[tuple[GaussianRational, ...]]:
    """Basis of the right nullspace by exact Gauss-Jordan elimination."""
    width = len(rows[0])
    work = [list(r) for r in rows if any(r)]
    pivots: list[int] = []
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        scale = work[rank][col]
        work[rank] = [v / scale for v in work[rank]]
        for i, row in enumerate(work):
            if i != rank and row[col]:
                factor = row[col]
                work[i] = [v - factor * p for v, p in zip(row, work[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        vec = [ZERO] * width
        vec[free] = ONE
        for i, pc in enumerate(pivots):
            vec[pc] = -work[i][free]
        basis.append(tuple(vec))
    return basis


_AXIOMS = (("A,A,A", "AAA"), ("D,D,D", "DDD"),
           ("A,C,C", "ACC"), ("D,B,B", "DBB"),
           ("A,B^dd,B^dd", "ACC"), ("D,C^dd,C^dd", "DBB"),
           ("A,C,B^dd", "ACC"), ("D,B,C^dd", "DBB"))


def check_yb_system(x: IceKind, y: IceKind, hat: bool = False) -> list[dict]:
    """Verifies the eight Yang-Baxter system axioms for A = R_XX, B = C^dd,
    C = R_XY and D = R_YY^dd, hat-swapped first when requested.  As B^dd is C
    and C^dd is B, the axioms state four identities, each computed once."""
    x, y = IceKind(x), IceKind(y)
    a, c, d = _families(((x, x), (x, y), (y, y)), hat)
    roles = {"A": a, "B": ddagger(c), "C": c, "D": ddagger(d)}
    residuals = {identity: _ybe_residual(*(roles[role] for role in identity))
                 for identity in dict.fromkeys(identity for _, identity in _AXIOMS)}
    tag = " hatted" if hat else ""
    return [report(f"yb-system {x.value},{y.value}{tag} [[{name}]]", residuals[identity])
            for name, identity in _AXIOMS]
