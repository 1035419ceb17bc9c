"""Seeded inputs, operations and oracles for the three benchmark workloads.

A workload is a list of :class:`Op`.  An op's ``run`` is the timed call
into the program: the CLI through ``sixvertex.cli.main`` with captured
output, or public functions of ``lattice``, ``schur``, ``weights`` and
``yang_baxter``.  Its ``check`` is the untimed oracle: it raises
:class:`OracleError` when the output is wrong and otherwise returns the
output's sizes (terms per polynomial, checks per CLI call).

Every name is looked up on its module at call time, so the benchmark's
tracer sees each call.  The seed picks the inputs from bounded pools.  The
members of one pool entry are dual partitions (lambda_i -> lambda_1 -
lambda_{n+1-i}) with the same number of states and of output terms, so
every seed does the same amount of work and the spread between seeds is
measurement noise, not input size.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from sixvertex import cli, schur, weights, yang_baxter
from sixvertex.poly import Polynomial
from sixvertex.weights import IceKind

WORKLOADS = ("lattice", "divide", "algebra")

# The seed the pinned sizes and the documented figures use, and a second
# seed that later performance claims must also pass.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

_KINDS = (IceKind.GAMMA, IceKind.DELTA)

# lattice: `zfun` on 2,002-state partitions and `verify tokuyama` on
# 1,287-state ones, all rank 5.
ZFUN_POOL = ((1, 1, 0, 0, 0), (1, 1, 1, 0, 0))
TOKUYAMA_POOL = ((1, 0, 0, 0, 0), (1, 1, 1, 1, 0))

# divide: one partition from each stratum per seed, rank 5, lambda_1 <= 3,
# with kinds gamma, delta, gamma.  Products of 4,460, 10,810 and 12,864 terms.
DIVIDE_STRATA = (((1, 1, 0, 0, 0), (1, 1, 1, 0, 0)),
                 ((2, 1, 0, 0, 0), (2, 2, 2, 1, 0)),
                 ((3, 0, 0, 0, 0), (3, 3, 3, 3, 0)))

# algebra: group-law seeds and the number of solve_R_from_ST inputs.
GROUP_LAW_SEEDS = (0, 1, 2, 3)
SOLVE_R_PAIRS = 50
TRANSFER_COLS = 5

# Small inputs for the benchmark's own tests.
TINY = {"zfun": ((1, 0, 0), (1, 1, 0)), "tokuyama": ((1, 0), (1, 1)),
        "divide": (((1, 0, 0), (1, 1, 0)), ((2, 0, 0), (2, 2, 0))),
        "solve_r_pairs": 3, "transfer_cols": 2, "group_law_samples": 3}


class OracleError(Exception):
    """An op's output failed its oracle."""


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], dict]


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def _lam_arg(lam: tuple[int, ...]) -> str:
    return ",".join(map(str, lam))


def _run_cli(argv: list[str]) -> Callable[[], CliResult]:
    def run() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return CliResult(code, out.getvalue(), err.getvalue())
    return run


def _clean(result: CliResult) -> None:
    if result.code != 0 or result.err:
        raise OracleError(f"exit {result.code}, stderr {result.err[:200]!r}")


def _check_verify(result: CliResult) -> dict:
    """Exit 0, only PASS lines, then a correct `k/k checks passed` line."""
    _clean(result)
    *lines, summary = result.out.splitlines() or [""]
    bad = [line for line in lines if not line.startswith("PASS ")]
    if not lines or bad:
        raise OracleError(f"not all checks passed: {bad[:3]}")
    if summary != f"{len(lines)}/{len(lines)} checks passed":
        raise OracleError(f"summary {summary!r} after {len(lines)} PASS lines")
    return {"checks": len(lines)}


def _verify_op(argv: list[str]) -> Op:
    return Op(" ".join(argv), _run_cli(argv), _check_verify)


def _zfun_op(kind: IceKind, lam: tuple[int, ...]) -> Op:
    argv = ["zfun", "--kind", kind.value, "--lambda", _lam_arg(lam),
            "--format", "json"]

    def check(result: CliResult) -> dict:
        _clean(result)
        z_fun = Polynomial.from_json(json.loads(result.out))
        expected = (schur.deformed_denominator(kind, len(lam))
                    * schur.schur_bialternant(lam))
        if z_fun != expected:
            raise OracleError("partition function is not "
                              "deformed_denominator * schur_bialternant")
        return {"terms": len(z_fun.terms())}

    return Op(" ".join(argv), _run_cli(argv), check)


def _schur_pattern_op(lam: tuple[int, ...]) -> Op:
    argv = ["schur", "--lambda", _lam_arg(lam), "--method", "pattern"]

    def check(result: CliResult) -> dict:
        _clean(result)
        expected = schur.schur_bialternant(lam)
        if result.out != f"{expected}\n":
            raise OracleError("pattern sum differs from the bialternant")
        return {"terms": len(expected.terms())}

    return Op(" ".join(argv), _run_cli(argv), check)


def _divide_op(kind: IceKind, lam: tuple[int, ...]) -> Op:
    """Schur times deformed denominator, then divided back by each factor."""
    n = len(lam)

    def run() -> tuple[Polynomial, ...]:
        s = schur.schur_bialternant(lam)
        den = schur.deformed_denominator(kind, n)
        product = den * s
        return s, den, product, product.exact_div(den), product.exact_div(s)

    def check(out: tuple[Polynomial, ...]) -> dict:
        s, den, product, by_den, by_schur = out
        if by_den != s or by_schur != den:
            raise OracleError("a quotient differs from the other factor")
        if s != schur.schur_pattern_sum(lam):
            raise OracleError("bialternant differs from the pattern sum")
        return {"schur_terms": len(s.terms()), "den_terms": len(den.terms()),
                "product_terms": len(product.terms())}

    return Op(f"divide {kind.value} lambda={_lam_arg(lam)}", run, check)


def _solve_r_op(pairs: list) -> Op:
    def run() -> list:
        return [weights.solve_R_from_ST(s, t) for s, t in pairs]

    def check(solutions: list) -> dict:
        if len(solutions) != len(pairs):
            raise OracleError(f"{len(solutions)} solutions for {len(pairs)} pairs")
        for r, (s, t) in zip(solutions, pairs):
            if not yang_baxter.yb_commutator(r.end2(), s.end2(), t.end2()).is_zero():
                raise OracleError("solved R has a nonzero Yang-Baxter commutator")
        return {"solutions": len(solutions)}

    return Op(f"solve_R_from_ST pairs={len(pairs)}", run, check)


def _lattice(rng: random.Random, tiny: bool) -> list[Op]:
    zfun_lam = rng.choice(TINY["zfun"] if tiny else ZFUN_POOL)
    tokuyama_lam = rng.choice(TINY["tokuyama"] if tiny else TOKUYAMA_POOL)
    return ([_zfun_op(kind, zfun_lam) for kind in _KINDS]
            + [_verify_op(["verify", "tokuyama", "--lambda", _lam_arg(tokuyama_lam)]),
               _schur_pattern_op(zfun_lam)])


def _divide(rng: random.Random, tiny: bool) -> list[Op]:
    # The kinds alternate over the strata rather than being drawn, so every
    # seed has the same mix of kinds.
    return [_divide_op(_KINDS[i % 2], rng.choice(stratum))
            for i, stratum in enumerate(TINY["divide"] if tiny else DIVIDE_STRATA)]


def _algebra(rng: random.Random, tiny: bool) -> list[Op]:
    group_law = ["verify", "group-law", "--seed", str(rng.choice(GROUP_LAW_SEEDS))]
    if tiny:
        group_law += ["--samples", str(TINY["group_law_samples"])]
    pairs = [weights.random_matched_pair(rng)
             for _ in range(TINY["solve_r_pairs"] if tiny else SOLVE_R_PAIRS)]
    cols = TINY["transfer_cols"] if tiny else TRANSFER_COLS
    kind_pairs = [(x, y) for x in ("gamma", "delta") for y in ("gamma", "delta")]
    if tiny:
        kind_pairs = kind_pairs[1:2]
    argvs = ([["verify", "ybe"], ["verify", "ybe", "--hatted"]]
             + [["verify", "yb-system", "--x", x, "--y", y] + hat
                for x, y in kind_pairs for hat in ([], ["--hatted"])]
             + [group_law, ["verify", "triangularity"],
                ["verify", "transfer-commute", "--cols", str(cols)]])
    return [_verify_op(argv) for argv in argvs] + [_solve_r_op(pairs)]


_BUILDERS = {"lattice": _lattice, "divide": _divide, "algebra": _algebra}


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's ops for this seed, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng, tiny)
    rng.shuffle(ops)
    return ops


def warmup(workload: str) -> Op:
    """A rank-1 (for algebra, single-column) op run once before timing."""
    if workload == "lattice":
        return _zfun_op(IceKind.GAMMA, (1,))
    if workload == "divide":
        return _divide_op(IceKind.GAMMA, (1,))
    return _verify_op(["verify", "transfer-commute", "--cols", "1"])
