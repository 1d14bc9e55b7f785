"""Query menu and numeral decoder of the `church` workload.

A query is a closed surface term whose normal form is a numeral. The
expected value comes from Python arithmetic and the kernel's normal
form is decoded by `decode`, which walks the term iteratively, so the
oracle neither asks the kernel nor shares its recursion limits.

Depth cap: every result is at most 256 and every query nests at most
100 parentheses. On the seed kernel, Church `2^9` (512) raises an
uncaught `RecursionError` from the dataclass `__eq__` in normalize's η
loop, and the parser raises one at about 250 nested parentheses. Those
inputs belong to the kernel's adversarial tests, not to this workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from cedlite.erasure import PApp, PLam, PVar

# Numeral shapes. `nat.ced` numerals are `λ cZ . λ cS . cS (… (cS cZ))`, so
# the successor is de Bruijn index 0; pure Church numerals are
# `λ f . λ x . f (… (f x))`, successor index 1, and η turns 1 into
# `λ f . f`.
NAT, CHURCH = "nat", "church"


@dataclass(frozen=True)
class Query:
    kind: str        # "add" | "mult" | "exp"
    a: int
    b: int
    source: str
    expected: int
    style: str       # NAT | CHURCH


def _nat(n: int) -> str:
    s = "zero"
    for _ in range(n):
        s = f"suc ({s})"
    return s


def _church(n: int) -> str:
    s = "x"
    for _ in range(n):
        s = f"f ({s})"
    return f"(λ f . λ x . {s})"


def add(m: int, n: int) -> Query:
    return Query("add", m, n, f"add ({_nat(m)}) ({_nat(n)})", m + n, NAT)


def mult(m: int, n: int) -> Query:
    return Query("mult", m, n, f"mult ({_nat(m)}) ({_nat(n)})", m * n, NAT)


def exp(base: int, power: int) -> Query:
    """Church `power base`, which is base ** power: β with duplication
    and no definition unfolding."""
    return Query("exp", base, power, f"{_church(power)} {_church(base)}",
                 base ** power, CHURCH)


def _span(lo: int, hi: int) -> range:
    return range(lo, hi + 1)


# One deck is one query per slot. A slot fixes the kind and a narrow
# size band; the seed picks the operands inside the band. Fixing the
# bands keeps the cost profile of a deck (from about 1 ms to 0.4 s per
# query on the seed kernel, in increasing order below) nearly the same
# for every seed, so medians compare across seeds; the bands are
# narrowest around the median and the 90th percentile. `mult` stays at
# operands <= 16: `mult 2 128` alone takes over a second. The
# elimNat-based `pow` of nat.ced is left out: `pow 2 8` takes about 20 s.
SLOTS = (
    ("exp", [(k, 2) for k in _span(7, 16)]),
    ("exp", [(2, 5), (3, 3), (4, 3)]),
    ("add", _span(5, 15), _span(5, 15)),
    ("mult", _span(3, 5), _span(3, 5)),
    ("exp", [(2, 6), (6, 3)]),
    ("exp", [(3, 5)]),
    ("mult", _span(7, 8), _span(7, 8)),
    ("mult", _span(15, 16), [4]),
    ("mult", [4], _span(15, 16)),
    ("add", _span(20, 25), _span(60, 65)),
    ("add", _span(45, 55), _span(45, 55)),
    ("exp", [(2, 8)]),
    ("add", _span(60, 65), _span(60, 65)),
    ("mult", _span(15, 16), _span(15, 16)),
    ("add", _span(90, 95), _span(90, 95)),
)

# Run once in set-up: unfolds and caches every definition the queries use.
WARM_UP = (add(1, 1), mult(2, 2))


def deck(rng: random.Random) -> list[Query]:
    out = []
    for kind, *bands in SLOTS:
        if kind == "exp":
            out.append(exp(*rng.choice(bands[0])))
        else:
            m, n = rng.choice(bands[0]), rng.choice(bands[1])
            out.append(add(m, n) if kind == "add" else mult(m, n))
    rng.shuffle(out)
    return out


def numeral(n: int, style: str):
    """The numeral `n` as a pure term, built without recursion."""
    succ, base = (PVar(0), PVar(1)) if style == NAT else (PVar(1), PVar(0))
    body = base
    for _ in range(n):
        body = PApp(succ, body)
    return PLam("a", PLam("b", body))


def decode(term, style: str) -> int | None:
    """The value of a numeral in normal form, or None if it is not one."""
    if style == CHURCH and term == PLam("f", PVar(0)):
        return 1                            # η-contracted λ f . λ x . f x
    if not (isinstance(term, PLam) and isinstance(term.body, PLam)):
        return None
    succ, base = (0, 1) if style == NAT else (1, 0)
    t, n = term.body.body, 0
    while isinstance(t, PApp) and t.fn == PVar(succ):
        t, n = t.arg, n + 1
    return n if t == PVar(base) else None
