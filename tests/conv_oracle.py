"""Term conversion as the kernel decided it before it compared values,
kept as a test oracle.

`conv_readback` normalizes both sides in full, the first and then the
second, on one meter, and compares the two normal forms with
`alpha_eq`. `matches_readback` is `Checker._matches` as it was: an
α-test against the left side, the free-variable test, then the position
normalized in full and compared with the left side's normal form.

The kernel's `conv` must give the answer these give wherever they end
within budget. A yes must spend exactly the steps they spend, because it
forces what reading both normal forms back forces; a no spends at most
as many, because it stops at the first difference.
"""

from __future__ import annotations

from cedlite.erasure import erase
from cedlite.normalize import Meter, normalize
from cedlite.syntax import alpha_eq


def conv_readback(t1, t2, sig, m: Meter) -> bool:
    if alpha_eq(t1, t2):
        return True
    n1 = normalize(t1, sig, m).term
    n2 = normalize(t2, sig, m).term
    return (n1 is not t1 or n2 is not t2) and alpha_eq(n1, n2)


def matches_readback(checker, t, lhs, lhs_nf, lhs_mask: int, m: Meter):
    te = erase(t)
    if alpha_eq(te, lhs):
        return True
    if lhs_mask & ~te.free_mask:
        return False
    return alpha_eq(normalize(te, checker.sig, m).term, lhs_nf)

