"""Classifier values: what the checker evaluates types and kinds to.

A type or kind is evaluated against an environment: a list holding, per
de Bruijn index of its syntax (index i at position -1-i), the value that
index denotes. Variables of the context are neutrals named by their de
Bruijn *level*; a free index past the environment denotes a level below
0, as in `normalize`. Evaluation reduces nothing: a definition head or a
type-λ applied to arguments stays an application until the checker's
`type_whnf` forces it, so reading a value back without forcing it gives
the syntax that substituting the environment would give. Binders are
closures, so instantiating one extends an environment.
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
    env: list


STAR = S.Star()        # ★ is its own value
_KIND_BINDERS = (S.KPi, S.KPiK)


def is_kind(v) -> bool:
    return type(v) is S.Star or type(v) is VBind and v.cls in _KIND_BINDERS


def is_var(v) -> bool:
    """Is `v` a variable of the context (not a substituted argument)?"""
    return type(v) is VNe and type(v.head) is int and not v.spine


def evaluate(node, env: list):
    """The value of type or kind syntax `node` in `env`."""
    cls = type(node)
    if cls is S.TVar:
        i = node.idx
        if i >= len(env):
            return VNe(len(env) - 1 - i, ())
        return env[-1 - i]
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
    return evaluate(b.body, b.env + [arg])


def enter(b: VBind, var: VNe):
    """The body of the binder value `b` under the context variable `var`."""
    return evaluate(b.body, b.env + [var])


@dataclass(eq=False, slots=True)
class Ctx:
    """The checking context: per variable, its name and classifier value,
    and the environment of its variables that syntax written in it is
    evaluated against. Binding copies; a context is never changed."""
    names: list
    types: list
    env: list

    def bind(self, name: str, classifier) -> Ctx:
        return Ctx(self.names + [name], self.types + [classifier],
                   self.env + [VNe(len(self.env), ())])


EMPTY = Ctx([], [], [])
