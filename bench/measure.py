"""Timed rounds, oracles and per-layer metrics of one benchmark run.

A round runs every op once.  Before each op the library's result caches
are emptied and the garbage collector runs, outside the timed region, so
each op pays the cache fill that a fresh CLI call pays.  A later round
must reproduce the first round's outputs exactly.  After the timed phase
each op's first output goes through its oracle and its sizes are compared
with the pinned ones.

In a traced run the first half of the time runs untraced rounds and the
second half traced ones; the per-layer figures are per traced round, and
``trace.overhead_s`` is the difference of the two medians at reference
speed.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from sixvertex.lattice import state_to_gt

import calibrate
import spans
import workloads

PINS_PATH = Path(__file__).with_name("sizes.json")

# Per-layer metrics of a traced run: name, unit.  See README.md for the
# end-to-end metric and workload each one feeds.
PER_LAYER = (
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("lattice.partition_function.calls", "count"),
    ("lattice.enumerate_states.states", "count"),
    ("lattice.enumerate_states.self_s", "s"),
    ("lattice.state_weight.calls", "count"), ("lattice.state_weight.self_s", "s"),
    ("lattice.tokuyama_sum.self_s", "s"), ("lattice.transfer_matrix.self_s", "s"),
    ("lattice.row_pairs.distinct", "count"), ("lattice.row_pairs.reuse", "ratio"),
    ("poly.mul.calls", "count"), ("poly.mul.self_s", "s"),
    ("poly.mul.term_pairs", "count"), ("poly.mul.terms_out", "count"),
    ("poly.mul.merge_ratio", "ratio"), ("poly.mul.tiny_share", "ratio"),
    ("poly.div.calls", "count"), ("poly.div.self_s", "s"),
    ("poly.div.dividend_terms", "count"), ("poly.div.quotient_terms", "count"),
    ("poly.add.calls", "count"), ("poly.add.self_s", "s"),
    ("poly.serialize.self_s", "s"),
    ("matrix.matmul.calls", "count"), ("matrix.matmul.self_s", "s"),
    ("yang_baxter.yb_commutator.calls", "count"),
    ("yang_baxter.yb_commutator.self_s", "s"),
    ("yang_baxter.lift.self_s", "s"), ("yang_baxter.check.self_s", "s"),
    ("weights.compose.calls", "count"), ("weights.compose.self_s", "s"),
    ("weights.solve_R_from_ST.self_s", "s"), ("weights.build.self_s", "s"),
    ("schur.schur_bialternant.self_s", "s"),
    ("schur.deformed_denominator.self_s", "s"),
    ("schur.schur_pattern_sum.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.unwrapped_s", "s"), ("trace.spans", "count"),
)


def clear_caches() -> None:
    """Empty every functools cache held at module level in sixvertex."""
    for name, module in list(sys.modules.items()):
        if name == "sixvertex" or name.startswith("sixvertex."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                    value.cache_clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Runner:
    """Runs rounds of a workload's ops and keeps their first outputs."""

    def __init__(self, ops: list[workloads.Op]):
        self.ops = ops
        self.reference: list[object] = [None] * len(ops)
        self.runs = [0] * len(ops)
        self.failed = [0] * len(ops)
        self.times: list[list[float]] = [[] for _ in ops]
        self.errors: list[str] = []

    def _fail(self, i: int, message: str, runs: int = 1) -> None:
        self.failed[i] += runs
        if len(self.errors) < 10:
            self.errors.append(f"{self.ops[i].key}: {message}")

    def round(self, tracer: spans.Tracer | None = None) -> tuple[float, float]:
        """Run every op once.

        Returns the summed wall time of the ops, and the same sum at the
        reference machine speed (see calibrate.py).
        """
        wall = wall_ref = 0.0
        for i, op in enumerate(self.ops):
            clear_caches()
            gc.collect()
            self.runs[i] += 1
            out = None
            with calibrate.timing() as timed:
                try:
                    if tracer is None:
                        out = op.run()
                    else:
                        with tracer.op(i):
                            out = op.run()
                except Exception:  # an op that raises counts as failed
                    self._fail(i, traceback.format_exc(limit=3))
            if tracer is not None:
                tracer.flush()
            wall += timed.wall_s
            wall_ref += timed.reference_s
            self.times[i].append(timed.wall_s)
            if out is None:
                continue
            if self.reference[i] is None:
                self.reference[i] = out
            elif out != self.reference[i]:
                self._fail(i, "output differs from the first round")
        return wall, wall_ref

    def check(self, pins: dict) -> list[dict]:
        """Run each op's oracle on its first output; returns per-op records."""
        records = []
        for i, op in enumerate(self.ops):
            sizes = None
            if self.reference[i] is not None:
                try:
                    sizes = op.check(self.reference[i])
                    if op.key in pins and sizes != pins[op.key]:
                        raise workloads.OracleError(
                            f"sizes {sizes} differ from pinned {pins[op.key]}")
                except Exception:  # a wrong first output fails every run of the op
                    self.failed[i] = 0
                    self._fail(i, traceback.format_exc(limit=3), self.runs[i])
            records.append({"key": op.key, "sizes": sizes,
                            "times_s": self.times[i],
                            "runs": self.runs[i], "failed": self.failed[i]})
        return records

    def stdout_bytes(self) -> int:
        return sum(len(out.out.encode()) for out in self.reference
                   if isinstance(out, workloads.CliResult))


def run_rounds(runner: Runner, seconds: float, start: float,
               tracer: spans.Tracer | None = None) -> list[tuple[float, float]]:
    """Rounds until the next one would end after `seconds`; at least one.

    Returns each round's wall time and its time at reference speed.
    """
    rounds: list[tuple[float, float]] = []
    while not rounds or perf_counter() - start + rounds[-1][0] <= seconds:
        rounds.append(runner.round(tracer))
        if tracer is not None:
            tracer.collect_states = False
    return rounds


def row_pairs(states: list) -> tuple[int, float]:
    """Distinct adjacent GT row pairs per state sum, and ice rows per pair.

    An ice row's weight depends only on the GT rows above and below it (the
    bottom boundary is the empty row), so this bounds what memoizing row
    weights within one partition function can save.
    """
    distinct = set()
    evaluated = 0
    for state in states:
        b = state.boundary
        rows = state_to_gt(state).rows + ((),)
        evaluated += b.n
        distinct.update((b.kind, b.lam, j, rows[j], rows[j + 1]) for j in range(b.n))
    return len(distinct), _ratio(evaluated, len(distinct))


def layer_metrics(tracer: spans.Tracer, rounds: int, speed: float,
                  stdout_bytes: int, distinct: int, reuse: float,
                  overhead_s: float) -> dict:
    """Per-round values of every PER_LAYER metric.

    Self times are multiplied by `speed`, the traced rounds' time at
    reference speed over their wall time.
    """
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    values = {"cli.stdout_bytes": stdout_bytes,
              "lattice.enumerate_states.states":
                  counts["lattice.enumerate_states.yields"] / rounds,
              "lattice.row_pairs.distinct": distinct,
              "lattice.row_pairs.reuse": reuse,
              "poly.mul.term_pairs": counts["poly.mul.term_pairs"] / rounds,
              "poly.mul.terms_out": counts["poly.mul.terms_out"] / rounds,
              "poly.mul.merge_ratio": _ratio(counts["poly.mul.terms_out"],
                                             counts["poly.mul.term_pairs"]),
              "poly.mul.tiny_share": _ratio(counts["poly.mul.tiny"],
                                            calls["poly.mul"]),
              "poly.div.dividend_terms": counts["poly.div.dividend_terms"] / rounds,
              "poly.div.quotient_terms": counts["poly.div.quotient_terms"] / rounds,
              "trace.overhead_s": overhead_s,
              "trace.unwrapped_s": self_s[spans.ROOT] * speed / rounds,
              "trace.spans": counts["spans"] / rounds}
    for layer in spans.LAYERS:
        values[f"{layer}.calls"] = calls[layer] / rounds
        values[f"{layer}.self_s"] = self_s[layer] * speed / rounds
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def measure(ops: list[workloads.Op], seconds: float, trace: bool,
            pins: dict) -> dict:
    """The timed phase, then the oracles; returns the run's result record."""
    runner = Runner(ops)
    start = perf_counter()
    traced, layers, peak_rss_mib = [], None, None
    if trace:
        rounds = run_rounds(runner, seconds / 2, start)
        tracer = spans.Tracer()
        tracer.collect_states = True
        with tracer:
            traced = run_rounds(runner, seconds, start, tracer)
        overhead_s = (statistics.median(r for _, r in traced)
                      - statistics.median(r for _, r in rounds))
        speed = sum(r for _, r in traced) / sum(w for w, _ in traced)
        layers = layer_metrics(tracer, len(traced), speed, runner.stdout_bytes(),
                               *row_pairs(tracer.states), overhead_s)
    else:
        rounds = run_rounds(runner, seconds, start)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = runner.check(pins)
    return {"rounds": [w for w, _ in rounds], "rounds_ref": [r for _, r in rounds],
            "traced_rounds": [w for w, _ in traced], "peak_rss_mib": peak_rss_mib,
            "attempted": sum(runner.runs), "failed": sum(runner.failed),
            "errors": runner.errors, "ops": records, "layers": layers}
