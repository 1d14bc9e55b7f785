"""Printing for terms, types, kinds, pure terms and declarations.

One loop prints every AST, on an explicit stack, so any depth prints. A
layout table drives it: a row per class gives the precedence and the
parts in order, and pure classes share the rows of their annotated
twins, so a pure term prints as its embedding (a λ without annotation).

Annotated output reparses to an alpha-equal AST. Binder hints are kept
where possible and freshened against enclosing binders and any
definition names referenced below, so shadowing never captures on the
way back in.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from . import erasure as E
from . import syntax as S

# precedence: 0 expr (binders, ρ, ς, ≃), 1 arrows, 2 application, 3 atoms
_EXPR, _ARROW, _APP, _ATOM = 0, 1, 2, 3

_TO_ASCII = str.maketrans({
    "λ": "\\", "Λ": "/\\", "Π": "Pi", "∀": "forall", "ι": "iota", "★": "*",
    "➔": "->", "➾": "=>", "≃": "==", "·": "@", "β": "beta", "ρ": "rho",
    "ς": "~", "◂": "<|",
})

_VARS = (S.Var, S.TVar, S.PVar)
_REFS = (S.Ref, S.TRef, S.PRef)
_NO_NAMES = frozenset()

# A row per class: the precedence it prints at, then its parts in order.
# A part is a literal, spelled in Unicode (`_TO_ASCII` respells it), or a
# field with the precedence its subtree prints at; a data field (None)
# prints as text. `_print` cuts `β`'s row short without a witness and
# spells `ρ+` when the goal is normalized first.
_LAYOUT = {
    _REFS: (_ATOM, ("name", None)),
    (S.App, S.PApp, S.AppTm): (_APP, ("fn", _APP), " ", ("arg", _ATOM)),
    S.EApp: (_APP, ("fn", _APP), " -", ("arg", _ATOM)),
    (S.TApp, S.AppT): (_APP, ("fn", _APP), " · ", ("arg", _ATOM)),
    S.Pair: (_ATOM, "[ ", ("left", _EXPR), " , ", ("right", _EXPR), " ]"),
    S.Proj: (_ATOM, ("sub", _ATOM), ".", ("which", None)),
    S.Beta: (_ATOM, "β", "{", ("witness", _EXPR), "}"),
    S.Rho: (_EXPR, "ρ", " ", ("proof", _APP), " - ", ("body", _EXPR)),
    S.Symm: (_EXPR, "ς ", ("proof", _APP)),
    S.Eq: (_EXPR, ("lhs", _APP), " ≃ ", ("rhs", _APP)),
    S.Star: (_ATOM, "★"),
    S.Decl: (_EXPR, ("name", None), " ◂ ", ("classifier", _EXPR), " = ",
             ("body", _EXPR), " ."),
}
# A binder's row: its keyword, and its arrow (the spelling when the bound
# variable is unused) if it has one. `∀` has its arrow over a type only.
_BINDERS = {
    (S.Lam, S.PLam, S.TLam): ("λ ", None),
    S.ILam: ("Λ ", None),
    (S.Pi, S.KPi, S.KPiK): ("Π ", " ➔ "),
    S.All: ("∀ ", " ➾ "),
    S.Iota: ("ι ", None),
}


def _tables(respell: dict):
    """The rows, parts reversed for pushing, and the binders, each with the
    fields of its hint, domain (or None) and body, in one spelling."""
    rows, binders = {}, {}
    for group, (prec, *parts) in _LAYOUT.items():
        parts = tuple(p.translate(respell) if type(p) is str else p
                      for p in reversed(parts))
        rows.update(dict.fromkeys(group if type(group) is tuple
                                  else (group,), (prec, parts)))
    for group, (kw, arrow) in _BINDERS.items():
        for cls in group if type(group) is tuple else (group,):
            field = {role: f for f, role in S.SHAPES[cls].items()}
            binders[cls] = (kw.translate(respell),
                            arrow and arrow.translate(respell),
                            field[S.HINT], field.get(S.SUB, field.get(S.OPT)),
                            field[S.BOUND])
    return rows, binders


_SPELLINGS = (_tables({}), _tables(_TO_ASCII))
_CHILDREN = {S.Decl: ("classifier", "body")} | {
    cls: tuple(f for f, role in row.items() if role in S.DEPTH)
    for cls, row in S.SHAPES.items()}


def _ref_names(node, memo: dict) -> frozenset:
    """The definition names referenced in `node`, found once per subtree
    for all the binders of one print call: `memo` maps the id of each
    subtree seen to its names, and the printed tree keeps them alive."""
    todo = [(node, None)]
    while todo:
        n, subs = todo.pop()
        if id(n) in memo:
            continue
        if subs is None:            # first visit: the subtrees go first
            subs = S.subtrees(n, 0)
            if subs:
                todo.append((n, subs))
                todo += [(sub, None) for sub, _ in subs if id(sub) not in memo]
                continue
        names = frozenset((n.name,)) if type(n) in _REFS else _NO_NAMES
        for sub, _ in subs:
            more = memo[id(sub)]
            if not names:
                names = more
            elif more and not more <= names:
                names |= more
        memo[id(n)] = names
    return memo[id(node)]


def _ref_bases(root) -> set:
    """The definition names referenced anywhere in `root`, unprimed: a
    binder whose hint has another base needs no names of its body."""
    bases, todo = set(), [root]
    while todo:
        n = todo.pop()
        if type(n) in _REFS:
            bases.add(n.name.rstrip("'"))
        elif n is not None:
            todo += [getattr(n, f) for f in _CHILDREN[type(n)]]
    return bases


def _print(root, ascii_only: bool, env: list[str] | None) -> str:
    """`root` printed on an explicit stack. `todo` holds literals, `(node,
    precedence)` items, `(None, name)` to bring a binder's name into scope
    once its domain is printed, and None to end the innermost binder's
    scope. A binder's name is its hint, primed until neither a name in
    scope nor a definition named in its body has it."""
    rows, binders = _SPELLINGS[ascii_only]
    names = list(env or ())
    in_scope, memo = defaultdict(int, Counter(names)), {}
    bases = _ref_bases(root)
    out, todo = [], [(root, _EXPR)]
    emit, push, pop = out.append, todo.append, todo.pop
    while todo:
        item = pop()
        if type(item) is str:
            emit(item)
            continue
        if item is None:
            in_scope[names.pop()] -= 1
            continue
        node, ctx = item
        if node is None:
            names.append(ctx)
            in_scope[ctx] += 1
            continue
        cls = type(node)
        if cls in _VARS:
            idx, depth = node.idx, len(names)
            emit(names[depth - 1 - idx] if idx < depth else f"?{idx - depth}")
            continue
        if cls in binders:
            kw, arrow, hint, dom, body = binders[cls]
            dom, body = dom and getattr(node, dom), getattr(node, body)
            if arrow and not body.free_mask & 1 \
                    and (cls is not S.All or S.is_type(dom)):
                prec, x = _ARROW, ""
                parts = [None, (body, _ARROW), (None, x), arrow, (dom, _APP)]
            else:
                prec, x = _EXPR, getattr(node, hint) or "x"
                below = _ref_names(body, memo) \
                    if x.rstrip("'") in bases else _NO_NAMES
                while in_scope[x] or x in below:
                    x += "'"
                parts = [None, (body, _EXPR)]
                parts += [" . ", (None, x), (dom, _EXPR), " : ", kw + x] \
                    if dom else [(None, x), kw + x + " . "]
        else:
            prec, row = rows[cls]
            parts = [p if type(p) is str
                     else (getattr(node, p[0]), p[1]) if p[1] is not None
                     else str(getattr(node, p[0])) for p in row]
            if cls is S.Beta and node.witness is None:
                del parts[:-1]
            elif cls is S.Rho and node.normalize_first:
                parts[-1] += "+"
        if prec < ctx:
            emit("(")
            push(")")
        todo += parts
    return "".join(out)


def print_term(node, ascii_only: bool = False,
               env: list[str] | None = None) -> str:
    """Any term, type, kind or pure term; one function under five names."""
    return _print(node, ascii_only, env)


print_type = print_kind = print_classifier = print_pure = print_term


def print_erased(t, ascii_only: bool = False) -> str:
    """Erased view of an annotated term."""
    return _print(E.erase(t), ascii_only, None)


def print_decl(decl: S.Decl, ascii_only: bool = False) -> str:
    return _print(decl, ascii_only, None)
