"""The verification suite: each claim of the paper as exact checks.

Every function returns a list of records built by ``yang_baxter.report``.
:data:`CATALOG` has one row per group of ``verify all``, and :func:`suite`,
``verify tokuyama``, ``verify statement-b`` and the acceptance tests read
it.  Every group runs for one input through one rule, :func:`run`: a check
that raises reports one FAIL under the group's name.  Randomized checks are
seeded and embed the seed in the check name.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Callable, Iterable, NamedTuple, Sequence

from .lattice import (MAX_TRANSFER_COLS, BoundarySpec, GTPattern,
                      brute_force_states, enumerate_states, gt_row_sums,
                      gt_to_state, partition_function, state_to_gt,
                      state_weight, tokuyama_sum, transfer_matrix,
                      validate_partition)
from .matrix import _matdot
from .poly import GuardError, Polynomial, VarSpace, _require_int, prod
from .schur import _require_bialternant_bounds, deformed_denominator, schur_bialternant
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
        raise GuardError(f"{flag} must be at least {least}")


class Partition:
    """The input of a per-partition group: lam, with s_lambda, Z_Gamma and
    Z_Delta each computed on first use and shared by every group run on it.
    A Z whose state sum raised is remembered as its error, which each later
    group that needs it raises again, with no second state sum."""

    def __init__(self, lam: tuple[int, ...]):
        self.lam = lam
        self.label = _lam_label(lam)
        self._z_funs: dict[IceKind, Polynomial | ValueError | ZeroDivisionError] = {}

    @functools.cached_property
    def schur(self) -> Polynomial:
        return schur_bialternant(self.lam)

    def z_fun(self, kind: IceKind) -> Polynomial:
        if kind not in self._z_funs:
            try:
                self._z_funs[kind] = partition_function(BoundarySpec(kind, self.lam))
            except (ValueError, ZeroDivisionError) as exc:
                self._z_funs[kind] = exc.with_traceback(None)  # frames not kept
        z_fun = self._z_funs[kind]
        if isinstance(z_fun, Exception):
            raise z_fun
        return z_fun


def factorization(kind: IceKind, partition: Partition) -> list[dict]:
    """Z = deformed denominator * Schur polynomial."""
    expected = deformed_denominator(kind, len(partition.lam)) * partition.schur
    return [report(f"factorization {kind.value} {partition.label}",
                   partition.z_fun(kind) - expected)]


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


def tokuyama(partition: Partition) -> list[dict]:
    """The deformed pattern sums against Z_Gamma and the single-t product formula."""
    schur = partition.schur  # first: its guards fire before the state sum
    z_gamma = partition.z_fun(IceKind.GAMMA)
    lam, label = partition.lam, partition.label
    n = len(lam)
    space = VarSpace(n)
    single_target = prod(
        (space.z(i) + space.t(1) * space.z(j)
         for i in range(1, n + 1) for j in range(i + 1, n + 1)),
        space) * schur
    return [
        report(f"tokuyama per-row {label}", tokuyama_sum(lam, True) - z_gamma),
        report(f"tokuyama single-t {label}", tokuyama_sum(lam, False) - single_target)]


def statement_b(partition: Partition) -> list[dict]:
    """Cross-kind identity den_Delta * Z_Gamma = Z_Delta * den_Gamma.

    Verified by cancellation: each side is divided exactly by both
    denominators and the quotients compared, which is equivalent in the
    polynomial ring and avoids multiplying millions of terms at rank 5.
    A division that is not exact raises, and :func:`run` reports it.
    """
    n = len(partition.lam)
    q_gamma, q_delta = (partition.z_fun(kind).exact_div(deformed_denominator(kind, n))
                        for kind in _KINDS)
    return [report(f"statement-b {partition.label}", q_gamma - q_delta)]


def symmetry_degrees(partition: Partition) -> list[dict]:
    """Train-argument symmetry of (t_{k+1} z_k + z_{k+1}) Z_Gamma, and t-degrees."""
    label = partition.label
    z_gamma, z_delta = (partition.z_fun(kind) for kind in _KINDS)
    n = len(partition.lam)
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
        raise GuardError(f"--cols must be at most {MAX_TRANSFER_COLS}")
    space = VarSpace(2)
    w1, w2 = gamma(space, 1), gamma(space, 2)
    reports = []
    for cols in range(1, max_cols + 1):
        v1 = transfer_matrix(w1, cols)
        v2 = transfer_matrix(w2, cols)
        reports.append(report(f"transfer-commute cols={cols}",
                              _matdot(v1.space, v1.size, ((v1, v2),), ((v2, v1),))))
    return reports


def run(group: str, label: str, check: Callable[..., list[dict]], *args) -> list[dict]:
    """The reports of ``check(*args)``, one group run for one input.

    A ValueError or ZeroDivisionError raised inside becomes one FAIL named
    ``<group> <label>`` (``<group>`` when the label is empty), with the
    witness ``{"error": text}``, so that every other group still runs.  A
    GuardError is a refusal before any work, not a result, and goes through.
    """
    try:
        return check(*args)
    except GuardError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        return [report(f"{group} {label}" if label else group, False, {"error": str(exc)})]


class Group(NamedTuple):
    """One group of ``verify all``: one claim of the paper."""

    name: str
    criterion: int  # its acceptance test, test_criterion_NN_*
    count: int  # its checks in suite(4, 4)
    check: Callable[..., list[dict]]
    args: tuple | None  # suite's arguments to check; None: one Partition per run


CATALOG = (
    Group("factorization gamma", 1, 128, functools.partial(factorization, IceKind.GAMMA), None),
    Group("factorization delta", 2, 128, functools.partial(factorization, IceKind.DELTA), None),
    Group("tokuyama", 8, 256, tokuyama, None),
    Group("statement-b", 9, 128, statement_b, None),
    Group("symmetry-degrees", 10, 559, symmetry_degrees, None),
    Group("worked-example", 3, 3, worked_example, ()),
    Group("ybe", 4, 20, ybe, (None, (False, True))),
    Group("group-law", 5, 9, group_law, (100, 0)),
    Group("construction", 6, 2, construction, (50, 1)),
    Group("gt-bijection", 7, 71, bijection, (3, 3)),
    Group("triangularity", 11, 5, triangularity, ()),
    Group("yb-system", 12, 64, yb_system,
          (tuple(itertools.product(_KINDS, repeat=2)), (False, True))),
    Group("transfer-commute", 13, 4, transfer_commute, (4,)),
)


def for_partition(group: str, lam: Sequence[int]) -> list[dict]:
    """The reports of the per-partition group named ``group`` at lam."""
    check = next(row.check for row in CATALOG if row.name == group and row.args is None)
    partition = Partition(validate_partition(lam))
    return run(group, partition.label, check, partition)


def suite(max_n: int, max_part: int) -> dict[str, list[dict]]:
    """Every group of CATALOG, in its order, for ``verify all``.

    The per-partition groups run over every partition with at most max_n
    parts, each at most max_part, plus two rank-5 spot checks when
    max_n >= 4 and max_part >= 2.  The grid bounds, then the bialternant's
    bounds at every partition, are checked before any check runs.
    """
    _require_at_least(max_n, "max_n", "--max-n", 0)
    _require_at_least(max_part, "max_part", "--max-part", 0)
    lambdas = _partition_grid(max_n, max_part)
    if max_n >= 4 and max_part >= 2:
        lambdas += _SPOT_CHECKS
    for lam in lambdas:
        _require_bialternant_bounds(lam)
    groups: dict[str, list[dict]] = {row.name: [] for row in CATALOG}
    for lam in lambdas:
        partition = Partition(lam)  # its values go once its groups are done
        for row in CATALOG:
            if row.args is None:
                groups[row.name] += run(row.name, partition.label, row.check, partition)
    for row in CATALOG:
        if row.args is not None:
            groups[row.name] = run(row.name, "", row.check, *row.args)
    return groups
