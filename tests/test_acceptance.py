"""Acceptance suite: one test per advertised guarantee, all exact.

Each test asserts on one group of ``checks.suite(4, 4)``, the suite that
``sixvertex verify all`` prints, run once per module.  Its partition grid
covers every partition with at most 4 rows and parts at most 4, plus two
rank-5 spot checks.
"""

import pytest

from sixvertex import checks
from sixvertex.poly import VarSpace
from sixvertex.weights import IceKind
from sixvertex.yang_baxter import check_triangularity

# 126 partitions with at most 4 rows and parts at most 4, plus 2 spot checks.
PARTITIONS = 128


@pytest.fixture(scope="module")
def groups():
    """The same suite that ``sixvertex verify all`` runs, computed once."""
    return checks.suite(4, 4)


def assert_all_pass(reports):
    failures = [(r["check"], r["witness"]) for r in reports
                if r["status"] != "pass"]
    assert not failures, failures


def test_criterion_01_gamma_factorization_on_partition_grid(groups):
    assert len(groups["factorization gamma"]) == PARTITIONS
    assert_all_pass(groups["factorization gamma"])


def test_criterion_02_delta_factorization_on_partition_grid(groups):
    assert len(groups["factorization delta"]) == PARTITIONS
    assert_all_pass(groups["factorization delta"])


def test_criterion_03_rank_two_worked_example(groups):
    assert_all_pass(groups["worked-example"])


def test_criterion_04_ice_and_parametrized_commutators_vanish(groups):
    assert len(groups["ybe"]) == 20
    assert_all_pass(groups["ybe"])


def test_criterion_05_composition_group_law(groups):
    assert_all_pass(groups["group-law"])


def test_criterion_06_solved_r_matrices_and_necessity(groups):
    assert_all_pass(groups["construction"])


def test_criterion_07_pattern_state_bijection(groups):
    assert_all_pass(groups["gt-bijection"])


def test_criterion_08_deformed_pattern_sums(groups):
    assert len(groups["tokuyama"]) == 2 * PARTITIONS
    assert_all_pass(groups["tokuyama"])


def test_criterion_09_cross_kind_state_sum_identity(groups):
    # verified straight from the state sums; never consults the factored
    # forms established by criteria 1 and 2
    assert len(groups["statement-b"]) == PARTITIONS
    assert_all_pass(groups["statement-b"])


def test_criterion_10_train_symmetry_and_t_degrees(groups):
    assert_all_pass(groups["symmetry-degrees"])


def test_criterion_11_triangular_scalars_normalize_to_one(groups):
    assert_all_pass(groups["triangularity"])
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
    assert len(groups["yb-system"]) == 64
    assert_all_pass(groups["yb-system"])


def test_criterion_13_transfer_matrices_commute(groups):
    assert_all_pass(groups["transfer-commute"])
