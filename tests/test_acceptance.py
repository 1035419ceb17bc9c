"""Acceptance suite: one test per advertised guarantee, all exact.

Each test asserts on one group of ``checks.suite(4, 4)``, the suite that
``sixvertex verify all`` prints, run once per module.  Its partition grid
covers every partition with at most 4 rows and parts at most 4, plus two
rank-5 spot checks.  Each group's name and check count come from its row
of ``checks.CATALOG``, found by the test's criterion number.
"""

import pytest

from sixvertex import checks
from sixvertex.poly import VarSpace
from sixvertex.weights import IceKind
from sixvertex.yang_baxter import check_triangularity

CRITERIA = {row.criterion: row for row in checks.CATALOG}


@pytest.fixture(scope="module")
def groups():
    """The same suite that ``sixvertex verify all`` runs, computed once."""
    return checks.suite(4, 4)


def assert_criterion(groups, number):
    """Every check of the criterion's group passes, and there are as many
    as its catalog row says."""
    row = CRITERIA[number]
    reports = groups[row.name]
    failures = [(r["check"], r["witness"]) for r in reports
                if r["status"] != "pass"]
    assert not failures, failures
    assert len(reports) == row.count


def test_every_group_has_one_criterion():
    assert sorted(CRITERIA) == list(range(1, len(checks.CATALOG) + 1))


def test_criterion_01_gamma_factorization_on_partition_grid(groups):
    assert_criterion(groups, 1)


def test_criterion_02_delta_factorization_on_partition_grid(groups):
    assert_criterion(groups, 2)


def test_criterion_03_rank_two_worked_example(groups):
    assert_criterion(groups, 3)


def test_criterion_04_ice_and_parametrized_commutators_vanish(groups):
    assert_criterion(groups, 4)


def test_criterion_05_composition_group_law(groups):
    assert_criterion(groups, 5)


def test_criterion_06_solved_r_matrices_and_necessity(groups):
    assert_criterion(groups, 6)


def test_criterion_07_pattern_state_bijection(groups):
    assert_criterion(groups, 7)


def test_criterion_08_deformed_pattern_sums(groups):
    assert_criterion(groups, 8)


def test_criterion_09_cross_kind_state_sum_identity(groups):
    # verified straight from the state sums; never consults the factored
    # forms established by criteria 1 and 2
    assert_criterion(groups, 9)


def test_criterion_10_train_symmetry_and_t_degrees(groups):
    assert_criterion(groups, 10)


def test_criterion_11_triangular_scalars_normalize_to_one(groups):
    assert_criterion(groups, 11)
    space = VarSpace(2)
    z1, z2, t1, t2 = space.z(1), space.z(2), space.t(1), space.t(2)
    factors = {
        (IceKind.GAMMA, IceKind.GAMMA): (t1 * z2 + z1, t2 * z1 + z2),
        (IceKind.GAMMA, IceKind.DELTA): (t1 * z2 + z1, t2 * z2 + z1),
        (IceKind.DELTA, IceKind.GAMMA): (t1 * z1 + z2, t2 * z1 + z2),
        (IceKind.DELTA, IceKind.DELTA): (t1 * z1 + z2, t2 * z2 + z1),
    }
    for (x, y), (first, second) in factors.items():
        scalar = check_triangularity(x, y)
        assert scalar.exact_div(first).exact_div(second) == space.one(), (x, y)


def test_criterion_12_yang_baxter_system_axioms(groups):
    assert_criterion(groups, 12)


def test_criterion_13_transfer_matrices_commute(groups):
    assert_criterion(groups, 13)
