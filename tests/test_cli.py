"""End-to-end tests for the command-line interface."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from sixvertex import checks, cli, schur
from sixvertex.cli import main
from sixvertex.lattice import BoundarySpec, partition_function
from sixvertex.poly import Polynomial, VarSpace
from sixvertex.weights import IceKind
from sixvertex.yang_baxter import report


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zfun_text_output(capsys):
    code, out, err = run_cli(capsys, "zfun", "--kind", "gamma", "--lambda", "0,0")
    assert (code, err) == (0, "")
    assert out == "t1*z2 + z1\n"


def test_zfun_json_round_trip_and_determinism(capsys):
    argv = ("zfun", "--kind", "delta", "--lambda", "1,0", "--format", "json")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    poly = Polynomial.from_json(json.loads(out))
    text_code, text_out, _ = run_cli(capsys, "zfun", "--kind", "delta",
                                     "--lambda", "1,0")
    assert text_code == 0
    assert str(poly) + "\n" == text_out
    assert run_cli(capsys, *argv)[1] == out


@pytest.mark.parametrize("lam", ["2,1,0", "1,1,1,0,0"])
def test_zfun_writes_the_json_and_text_forms_of_z(capsys, lam):
    for kind in ("gamma", "delta"):
        z_fun = partition_function(BoundarySpec(IceKind(kind), tuple(map(int, lam.split(",")))))
        for fmt, expected in (("json", json.dumps(z_fun.to_json(), sort_keys=True)),
                              ("text", str(z_fun))):
            argv = ("zfun", "--kind", kind, "--lambda", lam, "--format", fmt)
            assert run_cli(capsys, *argv) == (0, expected + "\n", "")


class CountingStdout(io.StringIO):
    """A stdout that counts its writes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_polynomial_output_arrives_term_by_term(monkeypatch):
    # a polynomial of k terms is written in about k pieces, with no string
    # of the whole output built first
    z_fun = partition_function(BoundarySpec(IceKind.GAMMA, (2, 1, 0)))
    schur_poly = schur.schur_pattern_sum((2, 2, 1, 0))
    for argv, poly in ((("zfun", "--kind", "gamma", "--lambda", "2,1,0", "--format", "json"),
                        z_fun),
                       (("zfun", "--kind", "gamma", "--lambda", "2,1,0"), z_fun),
                       (("schur", "--lambda", "2,2,1,0", "--method", "pattern"), schur_poly)):
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(list(argv)) == 0
        terms = len(poly.terms())
        assert terms > 10
        assert terms <= out.writes <= terms + 3, argv


def test_schur_output_and_method_agreement(capsys):
    code, out, _ = run_cli(capsys, "schur", "--lambda", "0")
    assert (code, out) == (0, "1\n")
    by_method = [run_cli(capsys, "schur", "--lambda", "2,1,0",
                         "--method", method)[1]
                 for method in ("bialternant", "pattern")]
    assert by_method[0] == by_method[1]


def test_states_listing_and_gt_view(capsys):
    code, out, _ = run_cli(capsys, "states", "--kind", "gamma", "--lambda", "1,0")
    assert code == 0
    assert len(out.splitlines()) == 3
    code, out, _ = run_cli(capsys, "states", "--kind", "gamma",
                           "--lambda", "1,0", "--gt")
    assert code == 0
    assert out.splitlines()[0] == "[[2, 0], [2]]"


def test_malformed_partition_is_a_usage_error(capsys):
    for bad in ("1,2", "a,b", "-1"):
        with pytest.raises(SystemExit) as info:
            main(["zfun", "--kind", "gamma", "--lambda", bad])
        assert info.value.code == 2
        capsys.readouterr()


def test_verify_tokuyama(capsys):
    code, out, _ = run_cli(capsys, "verify", "tokuyama", "--lambda", "2,0")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "2/2 checks passed"
    assert all(line.startswith("PASS ") for line in lines[:-1])


def test_verify_statement_b(capsys):
    code, out, _ = run_cli(capsys, "verify", "statement-b", "--lambda", "1,0")
    assert code == 0
    assert out.splitlines() == ["PASS statement-b lambda=(1,0)",
                                "1/1 checks passed"]


def test_verify_transfer_commute(capsys):
    code, out, _ = run_cli(capsys, "verify", "transfer-commute", "--cols", "2")
    assert code == 0
    assert out.splitlines()[-1] == "2/2 checks passed"


def test_verify_ybe_selected_triple(capsys):
    code, out, _ = run_cli(capsys, "verify", "ybe", "--kinds", "GGD")
    assert code == 0
    assert out.splitlines() == ["PASS ybe gamma,gamma,delta",
                                "1/1 checks passed"]
    code, out, _ = run_cli(capsys, "verify", "ybe", "--kinds",
                           "delta,delta,gamma", "--hatted")
    assert code == 0
    assert out.splitlines()[0] == "PASS ybe delta,delta,gamma hatted"


def test_verify_ybe_rejects_bad_kinds(capsys):
    for bad in ("GX", "GG", "GGGG"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "ybe", "--kinds", bad])
        assert info.value.code == 2
        capsys.readouterr()


def test_verify_yb_system(capsys):
    code, out, _ = run_cli(capsys, "verify", "yb-system",
                           "--x", "gamma", "--y", "delta")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "8/8 checks passed"
    assert "PASS yb-system gamma,delta [[A,A,A]]" in lines


def test_verify_group_law_seeded_determinism(capsys):
    argv = ("verify", "group-law", "--samples", "2", "--seed", "7")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == "9/9 checks passed"
    assert "seed=7" in out
    assert run_cli(capsys, *argv)[1] == out


def test_verify_group_law_rejects_zero_samples(capsys):
    code, out, err = run_cli(capsys, "verify", "group-law", "--samples", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_transfer_commute_rejects_zero_cols(capsys):
    code, out, err = run_cli(capsys, "verify", "transfer-commute", "--cols", "0")
    assert code == 2
    assert out == ""
    assert err == "error: --cols must be at least 1\n"


def test_group_law_reports_a_compose_failure_as_a_fail(capsys, monkeypatch):
    # with two samples, the pi-homomorphism and free-fermion loops make
    # 4 * 2 compose calls; every later one, in the associativity loop, fails
    real, calls = checks.compose, []

    def failing(r, t):
        calls.append((r, t))
        if len(calls) > 8:
            raise ValueError("compose failed")
        return real(r, t)

    monkeypatch.setattr(checks, "compose", failing)
    code, out, err = run_cli(capsys, "verify", "group-law", "--samples", "2")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert ('FAIL group-law associativity samples=2 seed=0 witness={"error": "compose failed"}'
            in lines)
    assert lines[-1] == "8/9 checks passed"
    assert len(calls) == 8 + 2


def _refuse_draws(monkeypatch):
    def refuse(*args):
        raise AssertionError("a sample was drawn")

    for name in ("random_free_fermionic", "random_matched_pair", "random_mismatched_pair"):
        monkeypatch.setattr(checks, name, refuse)


def test_checks_refuse_to_run_zero_checks(monkeypatch):
    # a verification that checks nothing must not report success
    _refuse_draws(monkeypatch)
    for samples in (0, -1):
        with pytest.raises(ValueError, match="--samples must be at least 1"):
            checks.group_law(samples, 1)
        with pytest.raises(ValueError, match="--samples must be at least 1"):
            checks.construction(samples, 1)
    with pytest.raises(ValueError, match="--cols must be at least 1"):
        checks.transfer_commute(0)


def test_sample_counts_must_be_ints_not_bools(monkeypatch):
    # True == 1, so a bool used to run one draw and name its checks samples=True
    _refuse_draws(monkeypatch)
    for bad in (True, False, 2.0, "2"):
        with pytest.raises(TypeError, match="samples must be an int"):
            checks.group_law(bad, 0)
        with pytest.raises(TypeError, match="samples must be an int"):
            checks.construction(bad, 1)


def test_seeds_must_be_ints_not_bools(monkeypatch):
    # a bool or a float seed used to run and be printed in the check names
    _refuse_draws(monkeypatch)
    for run, bad in ((lambda: checks.group_law(1, True), True),
                     (lambda: checks.construction(1, 1.5), 1.5)):
        with pytest.raises(TypeError, match=re.escape(f"seed must be an int, got {bad!r}")):
            run()


def test_column_counts_must_be_ints_not_bools(monkeypatch):
    # True == 1, so a bool used to pass the range checks as one column
    def refuse(*args):
        raise AssertionError("transfer_matrix called")

    monkeypatch.setattr(checks, "transfer_matrix", refuse)
    for bad in (True, False, 2.0, "2"):
        with pytest.raises(TypeError, match="max_cols must be an int"):
            checks.transfer_commute(bad)


def test_transfer_commute_refuses_too_many_cols_before_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("transfer_matrix called")

    monkeypatch.setattr(checks, "transfer_matrix", refuse)
    with pytest.raises(ValueError, match="--cols must be at most 6"):
        checks.transfer_commute(7)
    code, out, err = run_cli(capsys, "verify", "transfer-commute", "--cols", "7")
    assert code == 2
    assert out == ""
    assert err == "error: --cols must be at most 6\n"


def test_verify_all_refuses_a_negative_grid_before_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("partition grid built")

    monkeypatch.setattr(checks, "_partition_grid", refuse)
    for max_n, max_part, flag in ((-1, 4, "--max-n"), (4, -1, "--max-part")):
        with pytest.raises(ValueError, match=f"{flag} must be at least 0"):
            checks.suite(max_n, max_part)
        code, out, err = run_cli(capsys, "verify", "all", "--max-n", str(max_n),
                                 "--max-part", str(max_part))
        assert (code, out, err) == (2, "", f"error: {flag} must be at least 0\n")


def test_bijection_refuses_a_negative_grid_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("partition grid built")

    monkeypatch.setattr(checks, "_partition_grid", refuse)
    for max_n, max_part, flag in ((-1, 2, "--max-n"), (2, -1, "--max-part")):
        with pytest.raises(ValueError, match=f"{flag} must be at least 0"):
            checks.bijection(max_n, max_part)


def _refuse_lattice(monkeypatch):
    def refuse(*args):
        raise AssertionError("a lattice entry point was called")

    for name in ("_partition_grid", "enumerate_states", "brute_force_states",
                 "partition_function", "state_weight", "tokuyama_sum", "transfer_matrix"):
        monkeypatch.setattr(checks, name, refuse)


def test_grid_bounds_must_be_ints_not_bools(monkeypatch):
    # True == 1, so a bool bound used to run the whole suite on a one-part grid
    _refuse_lattice(monkeypatch)
    _refuse_draws(monkeypatch)
    for run, name, bad in ((lambda: checks.suite(True, 1), "max_n", True),
                           (lambda: checks.suite(1, 2.0), "max_part", 2.0),
                           (lambda: checks.suite(1, True), "max_part", True),
                           (lambda: checks.bijection(True, 1), "max_n", True),
                           (lambda: checks.bijection(2, "2"), "max_part", "2")):
        with pytest.raises(TypeError, match=re.escape(f"{name} must be an int, got {bad!r}")):
            run()


def test_verify_all_accepts_an_empty_grid():
    groups = checks.suite(0, 0)
    assert [r["check"] for r in groups["tokuyama"]] == [
        "tokuyama per-row lambda=()", "tokuyama single-t lambda=()"]


def test_suite_computes_each_partition_function_and_schur_polynomial_once(monkeypatch):
    # no cache hides a recompute, so the checks of a partition share its values
    z_calls, schur_calls = Counter(), Counter()

    def counted(fn, calls, key):
        def run(arg):
            calls[key(arg)] += 1
            return fn(arg)
        return run

    monkeypatch.setattr(checks, "partition_function", counted(
        checks.partition_function, z_calls, lambda b: (b.kind, b.lam)))
    monkeypatch.setattr(checks, "schur_bialternant", counted(
        checks.schur_bialternant, schur_calls, tuple))
    checks.suite(2, 2)
    lambdas = checks._partition_grid(2, 2)
    assert schur_calls == Counter(lambdas)
    # the worked example sums gamma lambda=(0,0) once more
    assert z_calls == Counter([(kind, lam) for lam in lambdas for kind in checks._KINDS]
                              + [(IceKind.GAMMA, (0, 0))])


@pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
def test_a_check_that_raises_fails_under_its_group_and_partition(capsys, monkeypatch, error):
    argv = ("verify", "all", "--max-n", "1", "--max-part", "1")
    code, clean, _ = run_cli(capsys, *argv)
    assert code == 0
    real = next(row.check for row in checks.CATALOG if row.name == "tokuyama")

    def raising(partition):
        if partition.lam == (1,):
            raise error("no sum")
        return real(partition)

    monkeypatch.setattr(checks, "CATALOG", tuple(
        row._replace(check=raising) if row.name == "tokuyama" else row
        for row in checks.CATALOG))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, "")
    # the two tokuyama checks at lambda=(1) become one FAIL; every other line stays
    lines = clean.splitlines()[:-1]
    kept = [line for line in lines if not line.startswith("PASS tokuyama ")
            or not line.endswith(" lambda=(1)")]
    assert len(kept) == len(lines) - 2
    fail = 'FAIL tokuyama lambda=(1) witness={"error": "no sum"}'
    assert out.splitlines() == sorted(kept + [fail]) + [
        f"{len(kept)}/{len(kept) + 1} checks passed"]


def test_a_raising_partition_function_runs_once_per_kind_and_partition(capsys, monkeypatch):
    calls = Counter()

    def raising(boundary):
        calls[boundary.kind, boundary.lam] += 1
        raise ValueError("no sum")

    monkeypatch.setattr(checks, "partition_function", raising)
    code, out, err = run_cli(capsys, "verify", "all", "--max-n", "1", "--max-part", "1")
    assert (code, err) == (1, "")
    # a later group of the partition raises the remembered error again
    lambdas = checks._partition_grid(1, 1)
    assert calls == Counter([(kind, lam) for lam in lambdas for kind in checks._KINDS]
                            + [(IceKind.GAMMA, (0, 0))])
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    per_partition = sum(row.args is None for row in checks.CATALOG)
    assert len(fails) == per_partition * len(lambdas) + 1  # and the worked example
    assert all(line.endswith(' witness={"error": "no sum"}') for line in fails)


def test_a_command_whose_check_raises_fails_under_its_name(capsys, monkeypatch):
    # an inexact division in statement B fails under the group and partition
    monkeypatch.setattr(checks, "deformed_denominator",
                        lambda kind, n: VarSpace(n).z(1) * 2 + VarSpace(n).t(1))
    code, out, err = run_cli(capsys, "verify", "statement-b", "--lambda", "1,0")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        'FAIL statement-b lambda=(1,0) witness={"error": "inexact division, remainder '
        't1*z2^2 - 1/2*t1^2*z2 + z1^2 + z1*z2"}',
        "0/1 checks passed"]

    # a command of no partition fails under the command's name
    def raising():
        raise ValueError("not scalar")

    monkeypatch.setattr(checks, "triangularity", raising)
    code, out, err = run_cli(capsys, "verify", "triangularity")
    assert (code, err) == (1, "")
    assert out.splitlines() == ['FAIL triangularity witness={"error": "not scalar"}',
                                "0/1 checks passed"]


def test_rank_ten_bialternant_is_refused_before_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("work started before the rank guard")

    monkeypatch.setattr(schur, "_schur_bialternant", refuse)
    monkeypatch.setattr(checks, "partition_function", refuse)
    eleven = ",".join("0" * 11)
    code, out, err = run_cli(capsys, "schur", "--lambda", eleven)
    assert (code, out) == (2, "")
    assert err == ("error: the bialternant of rank 11 sums 39916800 signed terms; "
                   "the limit is rank 9\n")
    ten = ("error: the bialternant of rank 10 sums 3628800 signed terms; "
           "the limit is rank 9\n")
    code, out, err = run_cli(capsys, "verify", "tokuyama", "--lambda", ",".join("0" * 10))
    assert (code, out, err) == (2, "", ten)
    # verify all checks the bounds at every partition of its grid first:
    # ranks 0 to 9 pass, and rank 10 is refused before any state sum
    code, out, err = run_cli(capsys, "verify", "all", "--max-n", "10", "--max-part", "0")
    assert (code, out, err) == (2, "", ten)
    code, out, _ = run_cli(capsys, "schur", "--lambda", eleven, "--method", "pattern")
    assert (code, out) == (0, "1\n")


def test_bialternant_work_guard_fires_before_building(capsys, monkeypatch):
    # rank 8 passes the rank guard, but its Weyl dimension x 8! is over the limit
    def refuse(*args):
        raise AssertionError("work started before the work guard")

    monkeypatch.setattr(schur, "_schur_bialternant", refuse)
    monkeypatch.setattr(checks, "partition_function", refuse)
    lam = "3,2,1,0,0,0,0,0"
    err = ("error: the bialternant of rank 8 has work 216760320 (Weyl dimension 5376 x 8!); "
           "the limit is 50000000\n")
    for argv in (("schur", "--lambda", lam), ("verify", "tokuyama", "--lambda", lam)):
        assert run_cli(capsys, *argv) == (2, "", err)


def test_lambda_is_parsed_alike_by_every_command(capsys):
    errors = set()
    for argv in (("zfun", "--kind", "gamma"), ("schur",), ("states", "--kind", "gamma"),
                 ("verify", "tokuyama"), ("verify", "statement-b")):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--lambda", "1,,0"])
        assert info.value.code == 2
        errors.add(capsys.readouterr().err.splitlines()[-1].partition(": error: ")[2])
    assert errors == {"argument --lambda: not a comma-separated partition: '1,,0'"}


def test_every_verify_command_prints_its_reports_through_finish(capsys, monkeypatch):
    # each checks entry point returns the same reports, so no real check runs
    _refuse_lattice(monkeypatch)
    _refuse_draws(monkeypatch)
    reports = [report("b sentinel", True), report("a sentinel", False, {"k": 1})]
    calls, finished, finish = [], [], cli._finish

    def entry(name):
        def run(*args):
            calls.append((name, args))
            return {"group": list(reports)} if name == "suite" else list(reports)
        return run

    for name in ("ybe", "for_partition", "group_law", "yb_system",
                 "triangularity", "transfer_commute", "suite"):
        monkeypatch.setattr(checks, name, entry(name))
    monkeypatch.setattr(cli, "_finish", lambda reps: finished.append(reps) or finish(reps))
    gamma, delta = IceKind.GAMMA, IceKind.DELTA
    for argv, call in (
            (("ybe", "--kinds", "GGD", "--hatted"), ("ybe", ((gamma, gamma, delta), (True,)))),
            (("tokuyama", "--lambda", "2,1,0"), ("for_partition", ("tokuyama", (2, 1, 0)))),
            (("statement-b", "--lambda", "1,0"), ("for_partition", ("statement-b", (1, 0)))),
            (("group-law", "--samples", "3", "--seed", "5"), ("group_law", (3, 5))),
            (("yb-system", "--x", "gamma", "--y", "delta"),
             ("yb_system", ([(gamma, delta)], (False,)))),
            (("triangularity",), ("triangularity", ())),
            (("transfer-commute", "--cols", "3"), ("transfer_commute", (3,))),
            (("all", "--max-n", "2", "--max-part", "1"), ("suite", (2, 1)))):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, err) == (1, "")
        assert out.splitlines() == ['FAIL a sentinel witness={"k": 1}', "PASS b sentinel",
                                    "1/2 checks passed"]
        assert (calls, finished) == ([call], [reports])
        calls.clear()
        finished.clear()


def test_failed_check_prints_sorted_lines_witness_and_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(checks, "triangularity", lambda: [
        report("a passing check", True),
        report("z failing check", False, {"z": 1, "a": [2]})])
    code, out, err = run_cli(capsys, "verify", "triangularity")
    assert (code, err) == (1, "")
    assert out.splitlines() == ['FAIL z failing check witness={"a": [2], "z": 1}',
                                "PASS a passing check",
                                "1/2 checks passed"]


def test_main_parses_with_the_parser_built_at_import(capsys, monkeypatch):
    def refuse():
        raise AssertionError("the parser is rebuilt per call")
    monkeypatch.setattr(cli, "_build_parser", refuse)
    code, out, err = run_cli(capsys, "verify", "triangularity")
    assert (code, err) == (0, "")
    assert out.endswith(" checks passed\n")


def test_state_limit_guard_is_a_runtime_error(capsys, monkeypatch):
    # zfun sums the states on every call, so the limit of one state stops
    # any partition that has more than one
    monkeypatch.setenv("ICE_MAX_STATES", "1")
    code, out, err = run_cli(capsys, "zfun", "--kind", "gamma", "--lambda", "5,0")
    assert code == 2
    assert err.startswith("error:")
    # a check's state sum is refused too, not reported as a FAIL
    code, out, err = run_cli(capsys, "verify", "tokuyama", "--lambda", "1,0")
    assert (code, out, err) == (2, "", "error: enumeration exceeded ICE_MAX_STATES=1\n")


def test_state_limit_that_is_not_an_integer_is_named(capsys, monkeypatch):
    for text in ("abc", "1.5", ""):
        monkeypatch.setenv("ICE_MAX_STATES", text)
        for argv in (("states", "--kind", "gamma"), ("verify", "tokuyama")):
            code, out, err = run_cli(capsys, *argv, "--lambda", "1,0")
            assert (code, out) == (2, "")
            assert err == f"error: ICE_MAX_STATES must be an integer, got {text!r}\n"
    # an integer keeps its meaning: (1, 0) has three states
    for text, code_wanted, lines in (("3", 0, 3), (" 3 ", 0, 3), ("2", 2, 2)):
        monkeypatch.setenv("ICE_MAX_STATES", text)
        code, out, err = run_cli(capsys, "states", "--kind", "gamma", "--lambda", "1,0")
        assert (code, len(out.splitlines())) == (code_wanted, lines)


def test_a_reader_that_closes_the_pipe_early_gets_exit_141_and_no_traceback():
    # each output is more than a pipe holds, so the writer is still writing
    # when the reader takes its first bytes and closes its end, as `| head
    # -c` does: gamma (3,2,1,0) lists 646 states in about 200 KB, and the
    # JSON Z of gamma (1,1,0,0,0) is about 300 KB on one line, written term
    # by term
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for args, head in (
            (["states", "--kind", "gamma", "--lambda", "3,2,1,0"], b'{"horizontal": [[1, '),
            (["zfun", "--kind", "gamma", "--lambda", "1,1,0,0,0", "--format", "json"],
             b'{"n": 5, "terms": [{"im": "0", "re": "1", "t": [')):
        argv = [sys.executable, "-m", "sixvertex.cli", *args]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.read(len(head)) == head
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert b"Traceback" not in err, args
        assert (code, err) == (141, b""), args


@pytest.mark.parametrize("method", ["bialternant", "pattern"])
def test_exponent_overflow_is_a_guard_violation(capsys, method):
    # at (40000, 0) the bialternant's largest exponent is lambda_1 + 1, from
    # lambda + rho, and the pattern sum's is lambda_1
    for lam, exponent in (("40000", 40000),
                          ("40000,0", 40001 if method == "bialternant" else 40000)):
        code, out, err = run_cli(capsys, "schur", "--lambda", lam, "--method", method)
        assert (code, out) == (2, "")
        assert err == f"error: exponent {exponent} is at or above the limit 32768\n"


# Run in a fresh interpreter with -S (no site-packages) and -I (no
# PYTHONPATH, no user site): sixvertex and the standard library are all
# that can be imported, so a third-party import anywhere on this path fails.
# -I also drops PYTHONDONTWRITEBYTECODE, so -B keeps src free of bytecode.
_STDLIB_ONLY = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from sixvertex import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["verify", "triangularity"])
loaded = {name.partition(".")[0] for name in sys.modules}
print(code, out.getvalue().splitlines()[-1])
print(sorted(loaded - set(sys.stdlib_module_names) - {"__main__", "sixvertex"}))
"""


def test_the_runtime_needs_only_the_standard_library():
    src = Path(__file__).resolve().parent.parent / "src"
    argv = [sys.executable, "-S", "-I", "-B", "-c", _STDLIB_ONLY, str(src)]
    result = subprocess.run(argv, capture_output=True, text=True, check=False)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines() == ["0 5/5 checks passed", "[]"]


def readme_examples() -> dict[str, str]:
    """Each `$ sixvertex` line of README.md's sh blocks whose shown output
    has no `...`, mapped to that output: the lines up to the next blank or
    `$` line."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = {}
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for command, shown in re.findall(r"^\$ sixvertex (.*)\n((?:[^$\n].*\n)*)",
                                         block, re.M):
            if "..." not in shown:
                examples[command] = shown
    return examples


def test_readme_examples_print_what_the_readme_shows(capsys):
    examples = readme_examples()
    assert {"zfun --kind gamma --lambda 1,0",
            "schur --lambda 2,1 --method bialternant",
            "states --kind gamma --lambda 1,0 --gt",
            "verify tokuyama --lambda 2,0"} <= examples.keys()
    for command, shown in examples.items():
        assert run_cli(capsys, *shlex.split(command, comments=True)) == (0, shown, "")
