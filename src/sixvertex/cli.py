"""Command-line front end: computations and the verification suite's output.

Every verify subcommand prints one PASS/FAIL line per check, sorted, then a
summary count.  Exit codes: 0 when all checks pass; 1 when one fails, also
by raising a ValueError or ZeroDivisionError, which ``checks.run`` prints
as a FAIL; 2 on usage errors and guard violations (a GuardError, an
exceeded ICE_MAX_STATES, an exponent at its limit); and 141 (128 + SIGPIPE)
when the reader closes stdout early, as `| head` does.  The checks
themselves live in :mod:`sixvertex.checks`; randomized ones embed their
seed in the check name, so identical argv always produces byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, Sequence

from . import checks
from .lattice import (BoundarySpec, enumerate_states, partition_function,
                      state_to_gt, validate_partition)
from .schur import schur_bialternant, schur_pattern_sum
from .weights import IceKind

_KIND_NAMES = {name: kind for kind in IceKind for name in (kind.value, kind.value[0])}


def _partition_arg(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated partition: {text!r}") from exc
    try:
        return validate_partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _kinds_arg(text: str) -> tuple[IceKind, IceKind, IceKind]:
    names = text.split(",") if "," in text else list(text)
    if len(names) != 3:
        raise argparse.ArgumentTypeError(f"need exactly three ice kinds: {text!r}")
    try:
        return tuple(_KIND_NAMES[name.strip().lower()] for name in names)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(f"unknown ice kind in {text!r}") from exc


def _finish(reports: list[dict]) -> int:
    lines = []
    for rep in reports:
        if rep["status"] == "pass":
            lines.append(f"PASS {rep['check']}")
        else:
            suffix = ("" if rep["witness"] is None
                      else f" witness={json.dumps(rep['witness'], sort_keys=True)}")
            lines.append(f"FAIL {rep['check']}{suffix}")
    for line in sorted(lines):
        print(line)
    passed = sum(rep["status"] == "pass" for rep in reports)
    print(f"{passed}/{len(reports)} checks passed")
    return 0 if passed == len(reports) else 1


def _write_line(pieces: Iterable[str]) -> None:
    """Write one line of output piece by piece, as the pieces come, so that
    no string of the whole line is built."""
    sys.stdout.writelines(pieces)
    sys.stdout.write("\n")


def _cmd_zfun(args: argparse.Namespace) -> int:
    z_fun = partition_function(BoundarySpec(IceKind(args.kind), args.lam))
    _write_line(z_fun.json_pieces() if args.format == "json" else z_fun.text_pieces())
    return 0


def _cmd_schur(args: argparse.Namespace) -> int:
    fn = schur_bialternant if args.method == "bialternant" else schur_pattern_sum
    _write_line(fn(args.lam).text_pieces())
    return 0


def _cmd_states(args: argparse.Namespace) -> int:
    b = BoundarySpec(IceKind(args.kind), args.lam)
    for state in enumerate_states(b):
        payload = state_to_gt(state).to_json() if args.gt else state.to_json()
        print(json.dumps(payload, sort_keys=True))
    return 0


# a command is (name, help, handler, *options); a verify command's handler returns reports
_KIND = ("--kind", dict(choices=("gamma", "delta"), required=True))
_LAMBDA = ("--lambda", dict(dest="lam", type=_partition_arg, required=True))
_HATTED = ("--hatted", dict(action="store_true"))
_COMMANDS = (
    ("zfun", "partition function for a boundary", _cmd_zfun, _KIND, _LAMBDA,
     ("--format", dict(choices=("json", "text"), default="text"))),
    ("schur", "Schur polynomial", _cmd_schur, _LAMBDA,
     ("--method", dict(choices=("bialternant", "pattern"), default="bialternant"))),
    ("states", "enumerate lattice states", _cmd_states, _KIND, _LAMBDA,
     ("--gt", dict(action="store_true", help="print patterns instead of edge grids"))),
)
_VERIFY_COMMANDS = (
    ("ybe", "Yang-Baxter commutator checks", lambda a: checks.ybe(a.kinds, (a.hatted,)),
     ("--kinds", dict(type=_kinds_arg,
                      help="three ice kinds, e.g. GGD or gamma,gamma,delta")), _HATTED),
    ("tokuyama", "deformed pattern-sum checks",
     lambda a: checks.for_partition("tokuyama", a.lam), _LAMBDA),
    ("statement-b", "cross-kind partition-function identity",
     lambda a: checks.for_partition("statement-b", a.lam), _LAMBDA),
    ("group-law", "composition group-law checks", lambda a: checks.group_law(a.samples, a.seed),
     ("--samples", dict(type=int, default=100)), ("--seed", dict(type=int, default=0))),
    ("yb-system", "eight-axiom system checks",
     lambda a: checks.yb_system([(IceKind(a.x), IceKind(a.y))], (a.hatted,)),
     ("--x", _KIND[1]), ("--y", _KIND[1]), _HATTED),
    ("triangularity", "projective inverse scalar checks", lambda a: checks.triangularity()),
    ("transfer-commute", "row-transfer commutation checks",
     lambda a: checks.transfer_commute(a.cols), ("--cols", dict(type=int, default=4))),
    ("all", "the complete verification suite",
     lambda a: [r for group in checks.suite(a.max_n, a.max_part).values() for r in group],
     ("--max-n", dict(type=int, default=4)), ("--max-part", dict(type=int, default=4))),
)


def _build_parser() -> argparse.ArgumentParser:
    def add_commands(sub, commands, wrap=lambda name, handler: handler) -> None:
        for name, help_text, handler, *options in commands:
            command = sub.add_parser(name, help=help_text)
            for flag, keywords in options:
                command.add_argument(flag, **keywords)
            command.set_defaults(handler=wrap(name, handler))
    parser = argparse.ArgumentParser(prog="sixvertex", description=(
        "Exact six/eight-vertex computations and verification."))
    sub = parser.add_subparsers(dest="command", required=True)
    add_commands(sub, _COMMANDS)
    verify = sub.add_parser("verify", help="run verification checks")
    # each verify command runs through the rule of checks.run, under its own name
    add_commands(verify.add_subparsers(dest="verify_command", required=True),
                 _VERIFY_COMMANDS,
                 lambda name, run: lambda args: _finish(checks.run(name, "", run, args)))
    return parser


# Built once: its handlers look up checks.* and partition_function per call.
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # that the interpreter's flush at exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
