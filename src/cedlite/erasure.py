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

from .syntax import (
    App, Beta, EApp, ILam, Lam, Pair, PApp, PLam, PRef, Proj, PureTerm, PVar,
    Ref, Rho, Symm, TApp, Term, Var, deep,
)

# The one field of each erased wrapper node that survives erasure; an
# absent witness (plain `β`) erases to the identity.
_KEPT = {EApp: "fn", TApp: "fn", Pair: "left", Proj: "sub", Rho: "body",
         Symm: "proof", Beta: "witness"}


@deep
def erase(t: Term, free=None) -> PureTerm:
    """Total on resolved terms.

    A variable whose binder is erased (only reachable from code the
    checker rejects) comes out as a free index past the result's depth.
    A variable free in `t`, index `j` under `d` λs of the result, comes
    out as `PVar(d + j)`, or as `free(j, d)` when `free` is given.
    """
    return _erase(t, free, [], 0)


def _erase(t: Term, free, env: list, depth: int) -> PureTerm:
    """`env` holds, per binder of `t`, its λ's level in the result or None
    (erased); `depth` counts the result's λs around `t`."""
    kind = type(t)
    while (kept := _KEPT.get(kind)) is not None:
        t = getattr(t, kept)
        kind = type(t)
    if kind is Var:
        idx, n = t.idx, len(env)
        if idx >= n:
            return PVar(depth + idx - n) if free is None \
                else free(idx - n, depth)
        level = env[n - 1 - idx]
        if level is None:   # erased binder; expose as a free variable
            return PVar(depth + (n - 1 - idx))
        return PVar(depth - 1 - level)
    if kind is Ref:
        return PRef(t.name)
    if kind is Lam or kind is ILam:
        env.append(depth if kind is Lam else None)
        body = _erase(t.body, free, env, depth + (kind is Lam))
        env.pop()
        return PLam(t.name, body) if kind is Lam else body
    if kind is App:
        return PApp(_erase(t.fn, free, env, depth),
                    _erase(t.arg, free, env, depth))
    if t is None:           # plain `β`
        return PLam("x", PVar(0))
    raise TypeError(t)


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
