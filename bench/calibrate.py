"""Machine-speed calibration.

On a shared host such as the one described in README.md, the same code
can run up to 2x slower for a minute or more while other jobs load the
machine, and the wall time of every op moves with it.  So while an op
runs, a timer signal interrupts it every INTERVAL_S and times a tiny
fixed loop; the loop is timed once more just before and just after the
op.  The op's
wall time, less the time spent in the loop, is scaled by REFERENCE_S over
the mean loop time: the result is the op's time at the speed the loop had
when REFERENCE_S was measured.  The loop uses only the standard library
(Fraction arithmetic and tuple-keyed dict updates, the mix that dominates
sixvertex), so no change to sixvertex moves it.
"""

from __future__ import annotations

import contextlib
import signal
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Iterator

# Set so that on the machine described in README.md, when it is idle,
# times at reference speed come out close to wall times.
REFERENCE_S = 0.0005
INTERVAL_S = 0.05


def loop_s() -> float:
    """Wall time of one run of the calibration loop."""
    start = perf_counter()
    acc: dict = {}
    third = Fraction(1, 3)
    for i in range(100):
        key = (i * 7919 % 50, i % 3, 1)
        acc[key] = acc.get(key, 0) + third * Fraction(i % 11, 7)
    return perf_counter() - start


def at_reference_speed(wall_s: float, loops: list[float]) -> float:
    """wall_s scaled by REFERENCE_S over the mean of the loop times."""
    return wall_s * REFERENCE_S * len(loops) / sum(loops)


@dataclass
class Timing:
    wall_s: float = 0.0
    reference_s: float = 0.0


@contextlib.contextmanager
def timing() -> Iterator[Timing]:
    """Times the block, in wall seconds and at reference speed.

    Both exclude the time the calibration loop took inside the block.
    """
    result = Timing()
    inside: list[float] = []
    before = loop_s()
    previous = signal.signal(signal.SIGALRM, lambda *_: inside.append(loop_s()))
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = perf_counter()
    try:
        yield result
    finally:
        elapsed = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        result.wall_s = elapsed - sum(inside)
        result.reference_s = at_reference_speed(result.wall_s,
                                                 [before, *inside, loop_s()])
