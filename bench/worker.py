"""The measured process of one benchmark run.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--setup-only]

``bench/run.py`` starts this script with ``src`` on ``PYTHONPATH``.  Set-up
imports the library, builds the workload's inputs from the seed and makes
a rank-1 warm-up call; then the script prints ``ready`` with set-up's
in-process wall time and its time at reference speed (see calibrate.py).
With ``--setup-only`` it stops there.  Otherwise it measures the workload
for about S seconds and prints the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

import calibrate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with calibrate.timing() as setup:
        import measure
        import workloads

        ops = workloads.build(args.workload, args.seed)
        warm = workloads.warmup(args.workload)
        warm.check(warm.run())
        measure.clear_caches()
        gc.collect()
    print(f"ready {setup.wall_s} {setup.reference_s}", flush=True)
    if args.setup_only:
        return 0
    pins = json.loads(measure.PINS_PATH.read_text())
    result = measure.measure(ops, args.seconds, bool(args.trace), pins)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
