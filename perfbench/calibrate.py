"""Machine speed, measured with a fixed reference load next to each step.

On a shared host the same code runs up to 1.8x slower in spells of a few
seconds, so raw seconds from two runs disagree by more than any bound
worth setting. The benchmark therefore times a short, fixed interpreter
load that does not depend on ultradiff right before each CLI step and
after the last one (never inside a timed step). A step's speed factor is
``REFERENCE_S / mean(reference before, reference after)``; its seconds
are scaled by the running median of these factors over it and its
neighbours (``measure.smoothed``): seconds on a machine where the
reference load takes ``REFERENCE_S``. The raw seconds are kept in the
run's record.

Without this scaling, five-seed trials of 30- to 40-second runs on the
2-vCPU Xeon host spread by 0.11 to 0.24 on ``wall_s`` (interquartile range over
median). With it, two sets of ten seeds spread by 0.036 to 0.064.
A plain interpreter load tracked the slow spells better than Philox
stream jumps, numpy array work or float formatting did.
"""

from __future__ import annotations

import math
import time

# about the median of reference_seconds() on a quiet 2-vCPU Xeon host
# (Python 3.11); any fixed value would do
REFERENCE_S = 0.0030


def reference_seconds() -> float:
    """The faster of two passes of the fixed reference load."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        xs = [math.exp(-i * 1e-4) * (i % 7) for i in range(20_000)]
        best = min(best, time.perf_counter() - t0)
    if not math.isfinite(sum(xs)):
        raise ArithmeticError("reference load produced a non-finite value")
    return best
