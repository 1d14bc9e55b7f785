"""Erasure from annotated terms to pure untyped lambda terms.

Clause by clause:
    |x| = x                 |λ x . t| = λ x . |t|      |Λ x . t| = |t|
    |t t'| = |t| |t'|       |t -t'| = |t|              |t · T| = |t|
    |[t , t']| = |t|        |t.1| = |t|                |t.2| = |t|
    |β| = λ x . x           |β{t}| = |t|               |ρ q - t| = |t|
    |ρ+ q - t| = |t|        |ς q| = |q|                |d| = d (definition)

Definition references are preserved; unfolding them is conversion's job.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    App, Beta, EApp, ILam, Lam, Pair, PApp, PLam, PRef, Proj, PureTerm, PVar,
    Ref, Rho, Symm, TApp, Term, Var,
)

# The one field of each erased wrapper node that survives erasure; an
# absent witness (plain `β`) erases to the identity.
_KEPT = {EApp: "fn", TApp: "fn", Pair: "left", Proj: "sub", Rho: "body",
         Symm: "proof", Beta: "witness"}
# Markers on `erase`'s stack: a Λ's body is done; apply the result below
# to the top one.
_ERASED_DONE, _APP = object(), object()


def erase(t: Term, free=None) -> PureTerm:
    """Total on resolved terms, on an explicit stack.

    A variable whose binder is erased (only reachable from code the
    checker rejects) comes out as a free index past the result's depth.
    A variable free in `t`, index `j` under `d` λs of the result, comes
    out as `PVar(d + j)`, or as `free(j, d)` when `free` is given.
    """
    env: list[Optional[int]] = []   # per binder of t: its λ's level, or None
    depth = 0                       # λs of the result around the focus
    out: list[PureTerm] = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        kind = type(t)
        if kind is str:             # the hint of a λ whose body is done
            env.pop()
            depth -= 1
            out[-1] = PLam(t, out[-1])
            continue
        if t is _ERASED_DONE:
            env.pop()
            continue
        if t is _APP:
            arg = out.pop()
            out[-1] = PApp(out[-1], arg)
            continue
        while (kept := _KEPT.get(kind)) is not None:
            t = getattr(t, kept)
            kind = type(t)
        if kind is Var:
            idx, n = t.idx, len(env)
            if idx >= n:
                out.append(PVar(depth + idx - n) if free is None
                           else free(idx - n, depth))
            elif (level := env[n - 1 - idx]) is None:
                # erased binder; expose as a free variable
                out.append(PVar(depth + (n - 1 - idx)))
            else:
                out.append(PVar(depth - 1 - level))
        elif kind is Ref:
            out.append(PRef(t.name))
        elif kind is Lam:
            env.append(depth)
            depth += 1
            todo += (t.name, t.body)
        elif kind is ILam:
            env.append(None)
            todo += (_ERASED_DONE, t.body)
        elif kind is App:
            todo += (_APP, t.arg, t.fn)
        elif t is None:             # plain `β`
            out.append(PLam("x", PVar(0)))
        else:
            raise TypeError(t)
    return out[0]


def free_in_erasure(idx: int, t: Term) -> bool:
    """Does variable `idx` occur free in erase(t)?

    `erase` hands every variable free in `t` that survives erasure to
    its `free` callback; one bound by an erased binder of `t` is never
    handed over. Nothing is typed, so this serves as the
    implicit-abstraction side condition on unchecked input. A variable
    not free in `t` is not free in its erasure either.
    """
    if not t.free_mask >> idx & 1:
        return False
    found = False

    def free(j: int, d: int) -> PureTerm:
        nonlocal found
        found = found or j == idx
        return PVar(d + j)
    erase(t, free)
    return found


def embed(p: PureTerm) -> Term:
    """Re-embed a pure term as an annotated term; erase(embed(p)) == p."""
    match p:
        case PVar(idx):
            return Var(idx)
        case PRef(name):
            return Ref(name)
        case PLam(hint, body):
            return Lam(hint, None, embed(body))
        case PApp(f, a):
            return App(embed(f), embed(a))
    raise TypeError(p)
