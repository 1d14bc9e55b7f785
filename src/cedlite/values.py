"""Classifier values: what the checker evaluates types and kinds to.

A type or kind is evaluated against an environment: the value each de
Bruijn index of its syntax denotes (see `lookup`). Variables of the
context are neutrals named by their de Bruijn *level*; a number n stands
for the n variables of a context, and an index past the environment
denotes a level below 0, as in `normalize`. Evaluation reduces nothing:
a definition head or a type-λ applied to arguments stays an application
until the checker's `type_whnf` forces it, so reading a value back
without forcing it gives the syntax that substituting the environment
would give. Binders are closures, so instantiating one extends an
environment.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import syntax as S
from .syntax import sort_clash


@dataclass(eq=False, slots=True)
class VNe:
    """`head` applied to `spine`, in either evaluator. In a classifier
    value the head is a level, a `TRef`, or a binder value (a type-λ
    waiting for β), and each argument is a type value or a `VTm`. In
    `normalize` the head is a level or the `PRef` of a rejected
    definition, and each argument is a thunk."""
    head: object
    spine: tuple


@dataclass(eq=False, slots=True)
class VBind:
    """A binder (Π, ∀, ι, type-λ or a kind's Π) of class `cls` over the
    value `dom`; its body is a closure, the syntax `body` in `env`. In
    `normalize` it is a λ-closure: the class is `PLam`, the domain is
    None, and the environment is a linked pair."""
    cls: type
    name: str
    dom: object
    body: object
    env: object


@dataclass(eq=False, slots=True)
class VEq:
    """`{lhs ≃ rhs}`, both `VTm`s."""
    lhs: VTm
    rhs: VTm


@dataclass(eq=False, slots=True)
class VTm:
    """An embedded term: the syntax `term` in `env`. Terms are compared by
    their erasures, so a term value is never reduced."""
    term: S.Term
    env: object


STAR = S.Star()        # ★ is its own value
_KIND_BINDERS = (S.KPi, S.KPiK)


def is_kind(v) -> bool:
    return type(v) is S.Star or type(v) is VBind and v.cls in _KIND_BINDERS


def is_var(v) -> bool:
    """Is `v` a variable of the context (not a substituted argument)?"""
    return type(v) is VNe and type(v.head) is int and not v.spine


# An environment is a number or a cell. The number n stands for the n
# variables of a context: index i denotes level n - 1 - i, so 0 is the
# empty environment. A cell holds the value of index 0, the environment
# of the others, its size, and a jump to a shorter one. Jumps skip so
# that a lookup takes O(log n) steps (Myers's random-access stack), and
# extending an environment shares it. A checking context is the
# environment of its variables' `(name, classifier)` pairs over 0.

def size(env) -> int:
    return env if type(env) is int else env[2]


def extend(env, value) -> tuple:
    if type(env) is int:
        return value, env, env + 1, env
    j = env[3]
    if type(j) is tuple and env[2] - j[2] == j[2] - size(j[3]):
        return value, env, env[2] + 1, j[3]
    return value, env, env[2] + 1, env


def lookup(env, i: int):
    """The value index `i` denotes in `env`."""
    n = (env if type(env) is int else env[2]) - i
    while type(env) is tuple:
        if env[2] == n:
            return env[0]
        j = env[3]
        env = j if type(j) is tuple and j[2] >= n else env[1]
    return VNe(n - 1, ())


def evaluate(node, env):
    """The value of type or kind syntax `node` in `env`."""
    cls = type(node)
    if cls is S.TVar:
        return lookup(env, node.idx)
    if cls is S.TRef:
        return VNe(node, ())
    if cls is S.AppT or cls is S.AppTm:
        f = evaluate(node.fn, env)
        a = evaluate(node.arg, env) if cls is S.AppT else VTm(node.arg, env)
        if type(f) is VNe:
            return VNe(f.head, f.spine + (a,))
        return VNe(f, (a,))
    if cls is S.Eq:
        return VEq(VTm(node.lhs, env), VTm(node.rhs, env))
    if cls is S.Star:
        return node
    return VBind(cls, node.name, evaluate(node.dom, env), node.body, env)


def instantiate(b: VBind, arg):
    """The body of the binder value `b` with the argument `arg`, a type
    value or a `VTm`, for its variable. An argument of the other sort than
    a use of the variable (a rejected ascription, trusted as written, can
    give one) is the clash that substituting it would meet."""
    if b.body.sort_mask & (2 if type(arg) is VTm else 1):
        raise sort_clash(*(("term", "type") if type(arg) is VTm
                           else ("type", "term")))
    return evaluate(b.body, extend(b.env, arg))


def enter(b: VBind, var: VNe):
    """The body of the binder value `b` under the context variable `var`."""
    return evaluate(b.body, extend(b.env, var))
