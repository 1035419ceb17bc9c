"""The verification suite: each claim of the paper as exact checks.

Every function returns a list of records built by ``yang_baxter.report``;
:func:`suite` groups them all for ``verify all`` and the acceptance tests.
Randomized checks are seeded and embed the seed in the check name.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from typing import Iterable, Sequence

from .lattice import (MAX_TRANSFER_COLS, BoundarySpec, GTPattern,
                      brute_force_states, enumerate_states, gt_row_sums,
                      gt_to_state, partition_function, state_to_gt,
                      state_weight, tokuyama_sum, transfer_matrix)
from .poly import Polynomial, VarSpace, _require_int, prod
from .schur import deformed_denominator, schur_bialternant
from .weights import (IceKind, compose, free_fermion, gamma, pi_map,
                      random_free_fermionic, random_matched_pair,
                      random_mismatched_pair, solve_R_from_ST)
from .yang_baxter import (check_ice_commutator, check_parametrized_ybe,
                          check_triangularity, check_yb_system,
                          r_solution_space, report, yb_commutator)

_KINDS = (IceKind.GAMMA, IceKind.DELTA)
_SPOT_CHECKS = ((2, 1, 0, 0, 0), (2, 2, 1, 0, 0))


def _lam_label(lam: tuple[int, ...]) -> str:
    return f"lambda=({','.join(map(str, lam))})"


def _partition_grid(max_n: int, max_part: int) -> list[tuple[int, ...]]:
    """Every partition with at most max_n parts, each at most max_part."""
    return [lam for n in range(max_n + 1)
            for lam in itertools.combinations_with_replacement(
                range(max_part, -1, -1), n)]


def _require_at_least(value: int, name: str, flag: str, least: int) -> None:
    """Refuse a count or grid bound that is not an int (a bool included) or
    is below ``least``, before any work, so that no check runs on zero draws
    or columns and reports success."""
    _require_int(value, name)
    if value < least:
        raise ValueError(f"{flag} must be at least {least}")


def factorization(kind: IceKind, lam: tuple[int, ...], z_fun: Polynomial,
                  schur: Polynomial) -> list[dict]:
    """Z = deformed denominator * Schur polynomial, from the Z and s_lambda of lam."""
    expected = deformed_denominator(kind, len(lam)) * schur
    return [report(f"factorization {kind.value} {_lam_label(lam)}", z_fun - expected)]


def worked_example() -> list[dict]:
    """The two states of the rank-2 gamma lattice with lambda = (0, 0)."""
    b = BoundarySpec(IceKind.GAMMA, (0, 0))
    space = VarSpace(2)
    states = list(enumerate_states(b))
    weights = sorted((state_weight(s) for s in states), key=str)
    expected = sorted((space.t(1) * space.z(2), space.z(1)), key=str)
    return [
        report("worked-example state-count", len(states) == 2,
               {"count": len(states)}),
        report("worked-example state-weights", weights == expected,
               [str(w) for w in weights]),
        report("worked-example partition-function",
               partition_function(b) - (space.t(1) * space.z(2) + space.z(1)))]


def ybe(kinds: tuple[IceKind, IceKind, IceKind] | None = None,
        hats: Sequence[bool] = (False,)) -> list[dict]:
    """Ice commutators and the parametrized Yang-Baxter equation.

    Without ``kinds``: the ice commutator of every kind pair, then every
    kind triple once per entry of ``hats``.  With ``kinds``: only that
    triple.
    """
    if kinds is not None:
        return [check_parametrized_ybe(*kinds, hat) for hat in hats]
    return ([check_ice_commutator(x, y) for x, y in itertools.product(_KINDS, repeat=2)]
            + [check_parametrized_ybe(x, y, z, hat) for hat in hats
               for x, y, z in itertools.product(_KINDS, repeat=3)])


def group_law(samples: int, seed: int) -> list[dict]:
    """pi is a homomorphism, compose keeps free fermions, and compose is associative."""
    _require_at_least(samples, "samples", "--samples", 1)
    _require_int(seed, "seed")
    rng = random.Random(seed)
    reports = []
    for combo in ("CC", "CD", "DC", "DD"):
        pi_ok = ff_ok = True
        pi_wit = ff_wit = None
        for _ in range(samples):
            r = random_free_fermionic(combo[0], rng)
            t = random_free_fermionic(combo[1], rng)
            composed = compose(r, t)
            if pi_ok and pi_map(composed) != pi_map(r) @ pi_map(t):
                pi_ok, pi_wit = False, {"r": r.to_json(), "t": t.to_json()}
            if ff_ok and not free_fermion(composed).is_zero():
                ff_ok, ff_wit = False, {"r": r.to_json(), "t": t.to_json()}
        suffix = f"{combo} samples={samples} seed={seed}"
        reports.append(report(f"group-law pi-homomorphism {suffix}", pi_ok, pi_wit))
        reports.append(report(f"group-law free-fermion {suffix}", ff_ok, ff_wit))
    assoc_ok, assoc_wit = True, None
    for _ in range(samples):
        triple = [random_free_fermionic(rng.choice("CD"), rng) for _ in range(3)]
        try:
            left = compose(compose(triple[0], triple[1]), triple[2])
            right = compose(triple[0], compose(triple[1], triple[2]))
        except ValueError as exc:
            if assoc_ok:
                assoc_ok, assoc_wit = False, {"error": str(exc)}
            continue
        if assoc_ok and left != right:
            assoc_ok, assoc_wit = False, [w.to_json() for w in triple]
    reports.append(report(f"group-law associativity samples={samples} seed={seed}",
                          assoc_ok, assoc_wit))
    return reports


def construction(samples: int, seed: int) -> list[dict]:
    """R solved from a matched pair commutes; a mismatched pair admits no R."""
    _require_at_least(samples, "samples", "--samples", 1)
    _require_int(seed, "seed")
    rng = random.Random(seed)
    zero_ok, zero_wit = True, None
    for _ in range(samples):
        s, t = random_matched_pair(rng)
        r = solve_R_from_ST(s, t)
        if zero_ok and not yb_commutator(r.end2(), s.end2(), t.end2()).is_zero():
            zero_ok, zero_wit = False, {"s": s.to_json(), "t": t.to_json()}
    reports = [report(f"construction zero-commutator samples={samples} seed={seed}",
                      zero_ok, zero_wit)]
    need_ok, need_wit = True, None
    for _ in range(samples):
        s, t = random_mismatched_pair(rng)
        # admissible solutions need c1 and c2 nonzero (slots 4 and 5)
        if need_ok and any(vec[4] or vec[5] for vec in r_solution_space(s, t)):
            need_ok, need_wit = False, {"s": s.to_json(), "t": t.to_json()}
    reports.append(report(f"construction necessity samples={samples} seed={seed}",
                          need_ok, need_wit))
    return reports


def bijection(max_n: int, max_part: int) -> list[dict]:
    """Pattern enumeration equals brute force and round-trips, per grid boundary."""
    _require_at_least(max_n, "max_n", "--max-n", 0)
    _require_at_least(max_part, "max_part", "--max-part", 0)
    reports = []
    for lam in _partition_grid(max_n, max_part):
        label = _lam_label(lam)
        for kind in _KINDS:
            b = BoundarySpec(kind, lam)
            enum = list(enumerate_states(b))
            brute = list(brute_force_states(b))
            ok, witness = True, None
            if len(enum) != len(brute) or set(enum) != set(brute):
                ok = False
                witness = {"enumerated": len(enum), "brute": len(brute)}
            elif any(gt_to_state(state_to_gt(s), b) != s for s in enum):
                ok, witness = False, {"roundtrip": "failed"}
            reports.append(report(f"gt-bijection {kind.value} {label}", ok, witness))
    b = BoundarySpec(IceKind.GAMMA, (3, 1, 0))
    pattern = GTPattern(((5, 2, 0), (3, 0), (3,)))
    state = gt_to_state(pattern, b)
    space = VarSpace(3)
    expected = space.z(1, 4) * space.z(3, 3) * space.t(2) * (space.t(1) + space.one())
    ok = (state_to_gt(state) == pattern
          and gt_row_sums(pattern) == (4, 0, 3)
          and state_weight(state) == expected)
    reports.append(report("gt-bijection example-pattern", ok, state.to_json()))
    return reports


def tokuyama(lam: tuple[int, ...]) -> list[dict]:
    """The deformed pattern sums against Z_Gamma and the single-t product formula."""
    schur = schur_bialternant(lam)  # first: its guards fire before the state sum
    return _tokuyama(lam, schur, partition_function(BoundarySpec(IceKind.GAMMA, lam)))


def _tokuyama(lam: tuple[int, ...], schur: Polynomial, z_gamma: Polynomial) -> list[dict]:
    label = _lam_label(lam)
    n = len(lam)
    space = VarSpace(n)
    single_target = prod(
        (space.z(i) + space.t(1) * space.z(j)
         for i in range(1, n + 1) for j in range(i + 1, n + 1)),
        space) * schur
    return [
        report(f"tokuyama per-row {label}", tokuyama_sum(lam, True) - z_gamma),
        report(f"tokuyama single-t {label}", tokuyama_sum(lam, False) - single_target)]


def statement_b(lam: tuple[int, ...]) -> list[dict]:
    """Cross-kind identity den_Delta * Z_Gamma = Z_Delta * den_Gamma.

    Verified by cancellation: each side is divided exactly by both
    denominators and the quotients compared, which is equivalent in the
    polynomial ring and avoids multiplying millions of terms at rank 5.
    The divisions must themselves be exact or the check fails.
    """
    return _statement_b(lam, *(partition_function(BoundarySpec(k, lam)) for k in _KINDS))


def _statement_b(lam: tuple[int, ...], z_gamma: Polynomial,
                 z_delta: Polynomial) -> list[dict]:
    name = f"statement-b {_lam_label(lam)}"
    n = len(lam)
    try:
        q_gamma = z_gamma.exact_div(deformed_denominator(IceKind.GAMMA, n))
        q_delta = z_delta.exact_div(deformed_denominator(IceKind.DELTA, n))
    except ValueError as exc:
        return [report(name, False, {"error": str(exc)})]
    return [report(name, q_gamma - q_delta)]


def symmetry_degrees(lam: tuple[int, ...], z_gamma: Polynomial,
                     z_delta: Polynomial) -> list[dict]:
    """Train-argument symmetry of (t_{k+1} z_k + z_{k+1}) Z_Gamma, and t-degrees."""
    label = _lam_label(lam)
    n = len(lam)
    space = VarSpace(n)
    reports = []
    for k in range(1, n):
        product = (space.t(k + 1) * space.z(k) + space.z(k + 1)) * z_gamma
        sigma = list(range(1, n + 1))
        sigma[k - 1], sigma[k] = k + 1, k
        reports.append(report(f"train-symmetry {label} k={k}",
                              product.permute_rank_variables(sigma) - product))
    gamma_degrees = [z_gamma.degree_in_t(i) for i in range(1, n + 1)]
    delta_degrees = [z_delta.degree_in_t(i) for i in range(1, n + 1)]
    reports.append(report(f"t-degree gamma {label}",
                          gamma_degrees == [n - i for i in range(1, n + 1)],
                          {"degrees": gamma_degrees}))
    reports.append(report(f"t-degree delta {label}",
                          delta_degrees == [i - 1 for i in range(1, n + 1)],
                          {"degrees": delta_degrees}))
    return reports


def triangularity() -> list[dict]:
    """R_XY P R_YX P is a nonzero scalar, normalized for gamma,gamma."""
    space = VarSpace(2)
    reports = []
    for x, y in itertools.product(_KINDS, repeat=2):
        name = f"triangularity {x.value},{y.value} scalar"
        try:
            scalar = check_triangularity(x, y)
        except ValueError as exc:
            reports.append(report(name, False, {"error": str(exc)}))
            continue
        reports.append(report(name, not scalar.is_zero(), scalar.to_json()))
        if x is IceKind.GAMMA and y is IceKind.GAMMA:
            target = ((space.t(1) * space.z(2) + space.z(1))
                      * (space.t(2) * space.z(1) + space.z(2)))
            reports.append(report("triangularity gamma,gamma normalized",
                                  scalar - target))
    return reports


def yb_system(pairs: Iterable[tuple[IceKind, IceKind]],
              hats: Sequence[bool] = (False,)) -> list[dict]:
    """The eight system axioms for each kind pair, once per entry of ``hats``."""
    return [r for x, y in pairs for hat in hats for r in check_yb_system(x, y, hat)]


def transfer_commute(max_cols: int) -> list[dict]:
    """Gamma row-transfer matrices with labels 1 and 2 commute, 1..max_cols columns."""
    _require_at_least(max_cols, "max_cols", "--cols", 1)
    if max_cols > MAX_TRANSFER_COLS:
        raise ValueError(f"--cols must be at most {MAX_TRANSFER_COLS}")
    space = VarSpace(2)
    w1, w2 = gamma(space, 1), gamma(space, 2)
    reports = []
    for cols in range(1, max_cols + 1):
        v1 = transfer_matrix(w1, cols)
        v2 = transfer_matrix(w2, cols)
        reports.append(report(f"transfer-commute cols={cols}", v1 @ v2 - v2 @ v1))
    return reports


def suite(max_n: int, max_part: int) -> dict[str, list[dict]]:
    """Every check of ``verify all``, grouped by claim, in the order they run.

    The per-partition checks run over every partition with at most max_n
    parts, each at most max_part, plus two rank-5 spot checks when
    max_n >= 4 and max_part >= 2.
    """
    _require_at_least(max_n, "max_n", "--max-n", 0)
    _require_at_least(max_part, "max_part", "--max-part", 0)
    lambdas = _partition_grid(max_n, max_part)
    if max_n >= 4 and max_part >= 2:
        lambdas += _SPOT_CHECKS
    groups: dict[str, list[dict]] = defaultdict(list)
    for lam in lambdas:
        # s_lambda, Z_Gamma and Z_Delta once for all the checks of lam
        schur = schur_bialternant(lam)  # first: its guards fire before any state sum
        z_funs = [partition_function(BoundarySpec(kind, lam)) for kind in _KINDS]
        for kind, z_fun in zip(_KINDS, z_funs):
            groups[f"factorization {kind.value}"] += factorization(kind, lam, z_fun, schur)
        groups["tokuyama"] += _tokuyama(lam, schur, z_funs[0])
        groups["statement-b"] += _statement_b(lam, *z_funs)
        groups["symmetry-degrees"] += symmetry_degrees(lam, *z_funs)
    groups["worked-example"] = worked_example()
    groups["ybe"] = ybe(hats=(False, True))
    groups["group-law"] = group_law(100, 0)
    groups["construction"] = construction(50, 1)
    groups["gt-bijection"] = bijection(3, 3)
    groups["triangularity"] = triangularity()
    groups["yb-system"] = yb_system(itertools.product(_KINDS, repeat=2), (False, True))
    groups["transfer-commute"] = transfer_commute(4)
    return dict(groups)
