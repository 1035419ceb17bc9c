"""Run one workload of the sixvertex benchmark and print its metrics.

    python3 bench/run.py --workload lattice|divide|algebra --seed N \\
                         --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts ``bench/worker.py`` as
SETUP_PROBES fresh processes that stop once set up, then as one more that
measures the workload, single-threaded, for about S seconds.  Set-up is
the time from starting a process to its ``ready`` line: interpreter
start, import, inputs from the seed and a rank-1 warm-up call; setup_s is
the median over all these processes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (setup_s, wall_s, peak_rss_mib, pass_frac); with
``--trace 1`` they are the per-layer ones from a traced run.  Exit code 2
means the checkout has no ``src/sixvertex``; 1 means the measured process
failed.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import calibrate

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
WORKLOADS = ("lattice", "divide", "algebra")
SETUP_PROBES = 6
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"),
              ("pass_frac", "ratio"))
# Every process this script starts is killed after this many seconds.
DEADLINE_S = 170.0


class WorkerError(Exception):
    """The measured process did not produce a result."""


def _worker(args: argparse.Namespace, setup_only: bool, env: dict,
            deadline: float) -> tuple[float, float, str]:
    """Start worker.py; returns its set-up time, raw and at reference speed,
    and the rest of its stdout.

    Set-up runs from starting the process to its ``ready`` line.  The part
    the worker timed itself is replaced by its reference-speed time; the
    rest (process and interpreter start) is scaled by calibration loops
    run here just before and just after.
    """
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    loops = [calibrate.loop_s() for _ in range(5)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    loops += [calibrate.loop_s() for _ in range(5)]
    word, *times = ready.split() or [""]
    if word != "ready" or code != 0:
        raise WorkerError(f"worker exited with code {code} "
                          f"({'before' if word != 'ready' else 'after'} set-up)")
    inside_s, inside_ref_s = map(float, times)
    outside_ref_s = calibrate.at_reference_speed(setup_s - inside_s, loops)
    return setup_s, outside_ref_s + inside_ref_s, rest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one sixvertex benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "sixvertex" / "__init__.py").is_file():
        print(f"error: no sixvertex sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    deadline = perf_counter() + DEADLINE_S
    setups, setups_ref = [], []
    try:
        for probe in range(SETUP_PROBES + 1):
            setup_s, setup_ref_s, out = _worker(args, probe < SETUP_PROBES, env, deadline)
            setups.append(setup_s)
            setups_ref.append(setup_ref_s)
        result = json.loads(out.strip().splitlines()[-1])
    except (WorkerError, ValueError, IndexError) as exc:  # malformed worker output
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"setup_s raw={setups} at_reference_speed={setups_ref}")
    print(f"rounds_s raw={result['rounds']} at_reference_speed={result['rounds_ref']} "
          f"traced={result['traced_rounds']}")
    for op in result["ops"]:
        print(f"op {op['key']!r} runs={op['runs']} failed={op['failed']} "
              f"sizes={json.dumps(op['sizes'], sort_keys=True)} times_s={op['times_s']}")
    for error in result["errors"]:
        print(f"failure: {error}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = result["layers"]
    else:
        values = {"setup_s": statistics.median(setups_ref),
                  "wall_s": statistics.median(result["rounds_ref"]),
                  "peak_rss_mib": result["peak_rss_mib"],
                  "pass_frac": (attempted - failed) / attempted}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        print(f"metric setup_raw_s {statistics.median(setups)} s")
        print(f"metric wall_raw_s {statistics.median(result['rounds'])} s")
    print(f"metric fail_frac {failed / attempted} ratio")
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
