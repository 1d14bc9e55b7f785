"""The ρ rewrite without pruning, kept as a test oracle.

This is `Checker._rewrite` as it was before free-index masks: it visits
every term position of the goal, erases it, and normalizes it unless a
variable free in the left side's normal form is missing from the
erasure. Free indices are collected here by a plain walk, independent of
each node's `free_mask`, and the goal is walked field by field off
`S.SHAPES`, sharing no traversal with the kernel's `transform`. The tests
require the kernel's pruned rewrite to give the same goal and the same
count.
"""

from __future__ import annotations

from cedlite import syntax as S
from cedlite.erasure import PApp, PLam, PVar, erase
from cedlite.normalize import alpha_eq


def free_indices(t) -> set:
    """The de Bruijn indices free in the pure term `t`, at its root."""
    out, todo = set(), [(t, 0)]
    while todo:
        t, depth = todo.pop()
        if type(t) is PApp:
            todo += [(t.fn, depth), (t.arg, depth)]
        elif type(t) is PLam:
            todo.append((t.body, depth + 1))
        elif type(t) is PVar and t.idx >= depth:
            out.add(t.idx - depth)
    return out


def rewrite_unpruned(checker, node, lhs, lhs_nf, rhs, depth: int):
    """`checker._rewrite(node, lhs, lhs_nf, rhs, depth)`, visiting every
    position; returns the new node and the number of positions replaced."""
    count = 0

    def matches(t, d) -> bool:
        te = erase(t)
        if alpha_eq(te, S.shift(lhs, d)):
            return True
        nf = S.shift(lhs_nf, d)
        if not free_indices(nf) <= free_indices(te):
            return False
        return alpha_eq(checker._nf(te), nf)

    def go(n, d):
        nonlocal count
        if S.is_kind(n):
            return n
        if S.is_term(n) and matches(n, d):
            count += 1
            return S.shift(rhs, d)
        fields = []
        for f, role in S.SHAPES[type(n)].items():
            v = getattr(n, f)
            fields.append(v if role not in S.DEPTH or v is None
                          else go(v, d + S.DEPTH[role]))
        return type(n)(*fields)
    return go(node, depth), count
