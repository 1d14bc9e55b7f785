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


def erase(t: Term) -> PureTerm:
    """Total on resolved terms.

    A variable whose binder is erased (only reachable from code the
    checker rejects) comes out as a free index past the result's depth.
    """
    return _erase(t, [], 0)


def _erase(t: Term, env: list[Optional[int]], pure_depth: int) -> PureTerm:
    while (kept := _KEPT.get(type(t))) is not None:
        t = getattr(t, kept)
        if t is None:
            return PLam("x", PVar(0))
    match t:
        case Var(idx):
            if idx < len(env):
                level = env[len(env) - 1 - idx]
                if level is None:
                    # erased binder; expose as a free variable
                    return PVar(pure_depth + (len(env) - 1 - idx))
                return PVar(pure_depth - 1 - level)
            return PVar(pure_depth + (idx - len(env)))
        case Ref(name):
            return PRef(name)
        case Lam(name, _, body):
            return PLam(name, _erase(body, env + [pure_depth], pure_depth + 1))
        case ILam(_, body):
            return _erase(body, env + [None], pure_depth)
        case App(f, a):
            return PApp(_erase(f, env, pure_depth), _erase(a, env, pure_depth))
    raise TypeError(t)


def free_in_erasure(idx: int, t: Term) -> bool:
    """Does variable `idx` occur free in erase(t)?

    Mirrors the erasure clauses without building the erasure, so it is
    usable as the implicit-abstraction side condition on unchecked input.
    """
    while (kept := _KEPT.get(type(t))) is not None:
        t = getattr(t, kept)
        if t is None:
            return False
    match t:
        case Var(j):
            return j == idx
        case Ref(_):
            return False
        case Lam(_, _, body) | ILam(_, body):
            return free_in_erasure(idx + 1, body)
        case App(f, a):
            return free_in_erasure(idx, f) or free_in_erasure(idx, a)
    raise TypeError(t)


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
