"""Machine-speed calibration of the end-to-end times.

On a shared machine the speed of one core drifts by up to 2x over
seconds to minutes (other tenants' load on sibling hardware threads, not
descheduling: CPU time equals wall time). Raw medians of 30-second runs
then differ by 15-30% from run to run with identical inputs, more than
any useful regression bound.

The harness therefore runs a fixed reference chunk between units and
reports every end-to-end time as `raw * NOMINAL_S / local`, where
`local` is the mean duration of the reference chunks just before and
just after the timed interval: the time the interval would have taken
at the speed at which the chunk takes NOMINAL_S. The chunk is pure
Python written here -- substitution-based β-normalization of a small
Church term over frozen dataclasses, the same mix of allocation, class
patterns and recursion the kernel spends its time on -- and never calls
the kernel, so a change to the kernel cannot move it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

# Median chunk duration measured on the machine the bounds were set on
# (2 vCPUs, CPython 3.11); calibrated times are seconds at that speed.
NOMINAL_S = 0.010


@dataclass(frozen=True)
class _Var:
    idx: int


@dataclass(frozen=True)
class _Lam:
    body: object


@dataclass(frozen=True)
class _App:
    fn: object
    arg: object


def _shift(t, by: int, cutoff: int):
    match t:
        case _Var(i):
            return _Var(i + by) if i >= cutoff else t
        case _Lam(b):
            return _Lam(_shift(b, by, cutoff + 1))
        case _App(f, a):
            return _App(_shift(f, by, cutoff), _shift(a, by, cutoff))


def _subst(t, j: int, v):
    match t:
        case _Var(i):
            return v if i == j else (_Var(i - 1) if i > j else t)
        case _Lam(b):
            return _Lam(_subst(b, j + 1, _shift(v, 1, 0)))
        case _App(f, a):
            return _App(_subst(f, j, v), _subst(a, j, v))


def _nf(t):
    stack = []
    while True:
        match t:
            case _App(f, a):
                stack.append(a)
                t = f
            case _Lam(b) if stack:
                t = _subst(b, 0, stack.pop())
            case _:
                break
    if isinstance(t, _Lam):
        t = _Lam(_nf(t.body))
    for a in reversed(stack):
        t = _App(t, _nf(a))
    return t


def _church(n: int):
    body = _Var(0)
    for _ in range(n):
        body = _App(_Var(1), body)
    return _Lam(_Lam(body))


_TERM = _App(_church(3), _church(3))     # 3^3 = 27
_REPEAT = 8


def reference_chunk() -> None:
    for _ in range(_REPEAT):
        _nf(_TERM)


def chunk_seconds() -> float:
    """Duration of one reference chunk. The cyclic collector is off while
    it runs (the chunk makes no cycles), so the size of the heap the
    kernel left behind does not change the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_chunk()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
