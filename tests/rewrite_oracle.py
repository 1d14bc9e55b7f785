"""The ρ rewrite without pruning, kept as a test oracle.

This is `Checker._rewrite` as it was before free-index masks: it visits
every term position of the goal, erases it, and normalizes it unless a
variable free in the left side's normal form is missing from the
erasure. Free indices are collected here by a plain walk, independent of
each node's `free_mask`, and the goal is walked field by field off
`S.SHAPES`, sharing no traversal with the kernel's `transform`. The tests
require the kernel's pruned rewrite to give the same goal and the same
count.

`reach` forces, in a walk of its own, the parts of a goal that a link's
rewrite visits, as the kernel did before it forced them in the rewrite's
own walk. `Checker._rewrite` must give what `rewrite_unpruned` gives on
the goal `reach` leaves.

`rho_chain_eager` is the whole ρ chain as the kernel checked it before
each link forced only what its rewrite can reach: the goal read back
forced, then rewritten link by link.
"""

from __future__ import annotations

from cedlite import syntax as S
from cedlite.erasure import PApp, PLam, PVar, erase
from cedlite.normalize import alpha_eq
from cedlite.values import VEq, evaluate, size


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


def reach(checker, node, mask: int, lvl: int, normed: bool, depth=0):
    """The type `node`, under `depth` binders at level `lvl`, with each
    type node that holds every variable of `mask` forced as in
    `_quote(…, True)`, and the parts of its forced form likewise. Any
    other subtree, every kind and every embedded term stay as written.
    With `normed`, the embedded terms of each forced form are
    βδ-normalized."""
    def at(n, d):
        if S.is_kind(n) or S.is_term(n) or mask << d & ~n.free_mask:
            return n
        head = n
        while type(head) is S.AppT or type(head) is S.AppTm:
            head = head.fn
        if type(head) is S.TRef and head.name not in checker.sig.rejected \
                or type(head) is S.TLam and head is not n:
            form = checker._quote(checker.type_whnf(evaluate(n, lvl + d)),
                                  lvl + d)
            if normed:
                form = checker._norm_term_positions(form)
            return reach(checker, form, mask, lvl, normed, d)
        return None
    return S.transform(node, at, depth)


def rewrite_unpruned(checker, node, lhs, lhs_nf, rhs, depth: int):
    """`checker._rewrite` on a goal whose reachable parts `reach` has
    already forced, visiting every position and forcing nothing; returns
    the new node and the number of positions replaced."""
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


def rho_chain_eager(checker, ctx, t, w) -> list:
    """The goal each link of the chain `t` leaves, and its count, when the
    goal value `w` is read back forced in `ctx` once and then rewritten
    link by link by `rewrite_unpruned` (ρ+ normalizing every embedded term
    of it first): the ρ rule as the kernel ran it before each link forced
    only the part of its goal its rewrite can reach. Stops before a link
    whose proof is not an equality."""
    lvl, goal, out = size(ctx), None, []
    while type(t) is S.Rho:
        qt = checker.type_whnf(checker.infer(ctx, t.proof))
        if type(qt) is not VEq:
            break
        goal = goal or checker._quote(w, lvl, True)
        if t.normalize_first:
            goal = checker._norm_term_positions(goal)
        lhs = checker._erased(qt.lhs, lvl)
        goal, count = rewrite_unpruned(checker, goal, lhs, checker._nf(lhs),
                                       checker._quote_tm(qt.rhs, lvl), 0)
        out.append((goal, count))
        t = t.body
    return out
