"""Command-line front end: computations and the verification suite's output.

Every verify subcommand prints one PASS/FAIL line per check, sorted, then a
summary count; exit codes are 0 when all checks pass, 1 on a verification
failure, 2 on usage errors or guard violations.  The checks themselves
live in :mod:`sixvertex.checks`; randomized ones embed their seed in the
check name, so identical argv always produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import checks
from .lattice import (BoundarySpec, enumerate_states, partition_function,
                      state_to_gt, validate_partition)
from .schur import schur_bialternant, schur_pattern_sum
from .weights import IceKind

_KIND_NAMES = {"g": IceKind.GAMMA, "gamma": IceKind.GAMMA,
               "d": IceKind.DELTA, "delta": IceKind.DELTA}


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


def _cmd_zfun(args: argparse.Namespace) -> int:
    z_fun = partition_function(BoundarySpec(IceKind(args.kind), args.lam))
    if args.format == "json":
        print(json.dumps(z_fun.to_json(), sort_keys=True))
    else:
        print(z_fun)
    return 0


def _cmd_schur(args: argparse.Namespace) -> int:
    fn = schur_bialternant if args.method == "bialternant" else schur_pattern_sum
    print(fn(args.lam))
    return 0


def _cmd_states(args: argparse.Namespace) -> int:
    b = BoundarySpec(IceKind(args.kind), args.lam)
    for state in enumerate_states(b):
        payload = state_to_gt(state).to_json() if args.gt else state.to_json()
        print(json.dumps(payload, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixvertex",
        description="Exact six/eight-vertex computations and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    zfun = sub.add_parser("zfun", help="partition function for a boundary")
    zfun.add_argument("--kind", choices=("gamma", "delta"), required=True)
    zfun.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    zfun.add_argument("--format", choices=("json", "text"), default="text")
    zfun.set_defaults(handler=_cmd_zfun)

    schur = sub.add_parser("schur", help="Schur polynomial")
    schur.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    schur.add_argument("--method", choices=("bialternant", "pattern"),
                       default="bialternant")
    schur.set_defaults(handler=_cmd_schur)

    states = sub.add_parser("states", help="enumerate lattice states")
    states.add_argument("--kind", choices=("gamma", "delta"), required=True)
    states.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    states.add_argument("--gt", action="store_true",
                        help="print patterns instead of edge grids")
    states.set_defaults(handler=_cmd_states)

    verify = sub.add_parser("verify", help="run verification checks")
    vsub = verify.add_subparsers(dest="verify_command", required=True)

    ybe = vsub.add_parser("ybe", help="Yang-Baxter commutator checks")
    ybe.add_argument("--kinds", type=_kinds_arg, default=None,
                     help="three ice kinds, e.g. GGD or gamma,gamma,delta")
    ybe.add_argument("--hatted", action="store_true")
    ybe.set_defaults(handler=lambda a: _finish(checks.ybe(a.kinds, (a.hatted,))))

    tokuyama = vsub.add_parser("tokuyama", help="deformed pattern-sum checks")
    tokuyama.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    tokuyama.set_defaults(handler=lambda a: _finish(checks.tokuyama(a.lam)))

    statement_b = vsub.add_parser("statement-b",
                                  help="cross-kind partition-function identity")
    statement_b.add_argument("--lambda", dest="lam", type=_partition_arg,
                             required=True)
    statement_b.set_defaults(handler=lambda a: _finish(checks.statement_b(a.lam)))

    group_law = vsub.add_parser("group-law", help="composition group-law checks")
    group_law.add_argument("--samples", type=int, default=100)
    group_law.add_argument("--seed", type=int, default=0)
    group_law.set_defaults(handler=lambda a: _finish(checks.group_law(a.samples, a.seed)))

    yb_system = vsub.add_parser("yb-system", help="eight-axiom system checks")
    yb_system.add_argument("--x", choices=("gamma", "delta"), required=True)
    yb_system.add_argument("--y", choices=("gamma", "delta"), required=True)
    yb_system.add_argument("--hatted", action="store_true")
    yb_system.set_defaults(handler=lambda a: _finish(checks.yb_system(
        [(IceKind(a.x), IceKind(a.y))], (a.hatted,))))

    triangularity = vsub.add_parser("triangularity",
                                    help="projective inverse scalar checks")
    triangularity.set_defaults(handler=lambda a: _finish(checks.triangularity()))

    transfer = vsub.add_parser("transfer-commute",
                               help="row-transfer commutation checks")
    transfer.add_argument("--cols", type=int, default=4)
    transfer.set_defaults(handler=lambda a: _finish(checks.transfer_commute(a.cols)))

    verify_all = vsub.add_parser("all", help="the complete verification suite")
    verify_all.add_argument("--max-n", type=int, default=4)
    verify_all.add_argument("--max-part", type=int, default=4)
    verify_all.set_defaults(handler=lambda a: _finish(
        [r for group in checks.suite(a.max_n, a.max_part).values() for r in group]))

    return parser


# Built once: its handlers look up checks.* and partition_function per call.
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
