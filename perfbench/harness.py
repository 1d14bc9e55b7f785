"""Closed-loop unit runner and the statistics of the end-to-end metrics.

One client in one thread: each unit starts when the previous one ends,
so there is no queue and no waiting time to report. A reference chunk
runs between units and every unit time is calibrated against it; see
calibrate.py.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field

from .calibrate import NOMINAL_S, chunk_seconds
from .tracing import Tracer


@dataclass
class Pass:
    times: list[float] = field(default_factory=list)       # calibrated
    raw_times: list[float] = field(default_factory=list)
    verdicts: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def run_pass(workload, *, seconds: float | None = None,
             units: int | None = None, min_units: int = 0,
             tracer: Tracer | None = None) -> Pass:
    """Run units until `units` are done, or until `seconds` have passed,
    at least `min_units` are done and a whole pass of the workload's
    inputs is complete.

    A unit whose verdicts are wrong, or from which an exception escapes
    (a `RecursionError` from the kernel, say), is a failed operation; the
    run goes on. Only the units of correct operations count verdicts.
    """
    clock = time.perf_counter
    out = Pass()
    deadline = None if seconds is None else clock() + seconds
    before = chunk_seconds()
    i = 0
    while True:
        if units is not None and i >= units:
            break
        if (deadline is not None and i >= max(min_units, 1)
                and i % workload.pass_size == 0 and clock() >= deadline):
            break
        gc.collect()
        if tracer is not None:
            tracer.begin_unit(i)
        start = clock()
        try:
            verdicts, problem = workload.unit(i)
        except Exception as e:   # escaped the kernel: count it, keep going
            verdicts, problem = 0, f"{type(e).__name__}: {e}"
        elapsed = clock() - start
        if tracer is not None:
            tracer.end_unit()
        after = chunk_seconds()
        out.raw_times.append(elapsed)
        out.times.append(calibrated(elapsed, before, after))
        before = after
        out.attempted += 1
        if problem is None:
            out.verdicts += verdicts
        else:
            out.failed += 1
            out.problems.append(f"unit {i}: {problem}")
        i += 1
    return out


def calibrated(elapsed: float, before: float, after: float) -> float:
    """`elapsed` at nominal machine speed, judged by the reference chunks
    run just before and just after it."""
    return elapsed * NOMINAL_S / ((before + after) / 2)


def timed(fn) -> float:
    """Calibrated duration of one call of `fn`."""
    before = chunk_seconds()
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    return calibrated(elapsed, before, chunk_seconds())


def units_for_tail(p: float) -> int:
    """Fewest units that leave at least ten beyond the p-th percentile."""
    return math.ceil(10 / (1 - p / 100) - 1e-9)


def percentile(times: list[float], p: float) -> float:
    """Nearest-rank p-th percentile."""
    s = sorted(times)
    return s[max(math.ceil(p * len(s) / 100), 1) - 1]


def traced_pass(workload, units: int) -> tuple[Pass, Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        return run_pass(workload, units=units, tracer=tracer), tracer
    finally:
        tracer.uninstall()
