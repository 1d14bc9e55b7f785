"""Printing for terms, types, kinds, and pure terms.

Annotated output reparses to an alpha-equal AST. Binder hints are kept
where possible and freshened against enclosing binders and any
definition names referenced below, so shadowing never captures on the
way back in.
"""

from __future__ import annotations

from collections import Counter

from . import erasure as E
from . import syntax as S

_UNI = {
    "lam": "λ", "ilam": "Λ", "pi": "Π", "all": "∀", "iota": "ι",
    "star": "★", "arrow": "➔", "fatarrow": "➾", "eq": "≃", "cdot": "·",
    "beta": "β", "rho": "ρ", "rhoplus": "ρ+", "sigma": "ς", "ascribe": "◂",
}
_ASCII = {
    "lam": "\\", "ilam": "/\\", "pi": "Pi", "all": "forall", "iota": "iota",
    "star": "*", "arrow": "->", "fatarrow": "=>", "eq": "==", "cdot": "@",
    "beta": "beta", "rho": "rho", "rhoplus": "rho+", "sigma": "~",
    "ascribe": "<|",
}

# precedence: 0 expr (binders, ρ, ς, ≃), 1 arrows, 2 application, 3 atoms
_EXPR, _ARROW, _APP, _ATOM = 0, 1, 2, 3


class _Printer:
    def __init__(self, ascii_only: bool = False):
        self.sym = _ASCII if ascii_only else _UNI
        # id of a subtree -> its `ref_names`; a printer lives for one print
        # call, whose tree keeps every keyed node alive
        self.refs: dict[int, frozenset] = {}

    def ref_names(self, node) -> frozenset:
        """The definition names referenced in `node`, found once per
        subtree for all the binders of one print call."""
        memo, todo = self.refs, [node]
        while todo:
            n = todo[-1]
            if id(n) in memo:
                todo.pop()
                continue
            subs = [sub for sub, _ in S.subtrees(n, 0)]
            missing = [sub for sub in subs if id(sub) not in memo]
            if missing:
                todo += missing
                continue
            todo.pop()
            names = [memo[id(sub)] for sub in subs]
            if isinstance(n, (S.Ref, S.TRef, S.PRef)):
                names.append(frozenset((n.name,)))
            memo[id(n)] = names[0] if len(names) == 1 \
                else frozenset().union(*names)
        return memo[id(node)]

    def fresh(self, hint: str, env: list[str], below) -> str:
        taken = set(env) | self.ref_names(below)
        name = hint or "x"
        while name in taken:
            name += "'"
        return name

    @staticmethod
    def wrap(text: str, level: int, ctx: int) -> str:
        return f"({text})" if level < ctx else text

    def node(self, n, env: list[str], ctx: int = _EXPR) -> str:
        """A term, type or kind."""
        by_sort = {"term": self.term, "type": self.type, "kind": self.kind}
        return by_sort[S.sort_of(n)](n, env, ctx)

    def binder(self, kw: str, arrow, hint: str, dom, body, env: list[str],
               ctx: int) -> str:
        """`kw x : dom . body`, or `dom arrow body` if there is an arrow
        spelling and `x` does not occur in `body`."""
        if arrow is not None and not S.occurs_index(body, 0):
            s = (f"{self.node(dom, env, _APP)} {arrow} "
                 f"{self.node(body, env + [''], _ARROW)}")
            return self.wrap(s, _ARROW, ctx)
        x = self.fresh(hint, env, body)
        s = f"{kw} {x} : {self.node(dom, env)} . {self.node(body, env + [x])}"
        return self.wrap(s, _EXPR, ctx)

    def term(self, t, env: list[str], ctx: int = _EXPR) -> str:
        sym = self.sym
        match t:
            case S.Var(idx):
                return env[len(env) - 1 - idx] if idx < len(env) \
                    else f"?{idx - len(env)}"
            case S.Ref(name):
                return name
            case S.Lam(hint, ann, body):
                x = self.fresh(hint, env, body)
                a = f" : {self.type(ann, env)}" if ann is not None else ""
                s = f"{sym['lam']} {x}{a} . {self.term(body, env + [x])}"
                return self.wrap(s, _EXPR, ctx)
            case S.ILam(hint, body):
                x = self.fresh(hint, env, body)
                s = f"{sym['ilam']} {x} . {self.term(body, env + [x])}"
                return self.wrap(s, _EXPR, ctx)
            case S.App(f, a):
                s = f"{self.term(f, env, _APP)} {self.term(a, env, _ATOM)}"
                return self.wrap(s, _APP, ctx)
            case S.EApp(f, a):
                s = f"{self.term(f, env, _APP)} -{self.term(a, env, _ATOM)}"
                return self.wrap(s, _APP, ctx)
            case S.TApp(f, ty):
                s = (f"{self.term(f, env, _APP)} {sym['cdot']} "
                     f"{self.type(ty, env, _ATOM)}")
                return self.wrap(s, _APP, ctx)
            case S.Pair(l, r):
                return f"[ {self.term(l, env)} , {self.term(r, env)} ]"
            case S.Proj(sub, which):
                return f"{self.term(sub, env, _ATOM)}.{which}"
            case S.Beta(None):
                return sym["beta"]
            case S.Beta(w):
                return f"{sym['beta']}{{{self.term(w, env)}}}"
            case S.Rho(proof, body, plus):
                kw = sym["rhoplus"] if plus else sym["rho"]
                s = f"{kw} {self.term(proof, env, _APP)} - {self.term(body, env)}"
                return self.wrap(s, _EXPR, ctx)
            case S.Symm(proof):
                s = f"{sym['sigma']} {self.term(proof, env, _APP)}"
                return self.wrap(s, _EXPR, ctx)
        raise TypeError(t)

    def type(self, ty, env: list[str], ctx: int = _EXPR) -> str:
        sym = self.sym
        match ty:
            case S.TVar(idx):
                return env[len(env) - 1 - idx] if idx < len(env) \
                    else f"?{idx - len(env)}"
            case S.TRef(name):
                return name
            case S.All(hint, dom, body):
                arrow = sym["fatarrow"] if S.is_type(dom) else None
                return self.binder(sym["all"], arrow, hint, dom, body, env,
                                   ctx)
            case S.Pi(hint, dom, body):
                return self.binder(sym["pi"], sym["arrow"], hint, dom, body,
                                   env, ctx)
            case S.TLam(hint, dom, body):
                return self.binder(sym["lam"], None, hint, dom, body, env, ctx)
            case S.AppT(f, a):
                s = (f"{self.type(f, env, _APP)} {sym['cdot']} "
                     f"{self.type(a, env, _ATOM)}")
                return self.wrap(s, _APP, ctx)
            case S.AppTm(f, a):
                s = f"{self.type(f, env, _APP)} {self.term(a, env, _ATOM)}"
                return self.wrap(s, _APP, ctx)
            case S.Iota(hint, left, right):
                return self.binder(sym["iota"], None, hint, left, right, env,
                                   ctx)
            case S.Eq(l, r):
                s = f"{self.term(l, env, _APP)} {sym['eq']} {self.term(r, env, _APP)}"
                return self.wrap(s, _EXPR, ctx)
        raise TypeError(ty)

    def kind(self, k, env: list[str], ctx: int = _EXPR) -> str:
        sym = self.sym
        match k:
            case S.Star():
                return sym["star"]
            case S.KPi(hint, dom, body) | S.KPiK(hint, dom, body):
                return self.binder(sym["pi"], sym["arrow"], hint, dom, body,
                                   env, ctx)
        raise TypeError(k)


def print_term(t, ascii_only: bool = False, env: list[str] | None = None) -> str:
    return _Printer(ascii_only).term(t, env or [])


def print_type(ty, ascii_only: bool = False, env: list[str] | None = None) -> str:
    return _Printer(ascii_only).type(ty, env or [])


def print_kind(k, ascii_only: bool = False, env: list[str] | None = None) -> str:
    return _Printer(ascii_only).kind(k, env or [])


def print_classifier(c, ascii_only: bool = False,
                     env: list[str] | None = None) -> str:
    return _Printer(ascii_only).node(c, env or [])


def print_pure(p, ascii_only: bool = False, env: list[str] | None = None) -> str:
    """A pure term, printed as its embedding (a λ without annotation)
    prints, on an explicit stack: any depth prints. A binder's name is
    fresh by `_Printer.fresh`'s rule, with the names in scope counted, so
    the cost is linear in binder nesting too."""
    printer = _Printer(ascii_only)
    lam, names = printer.sym["lam"], list(env or [])
    in_scope = Counter(names)
    out, todo = [], [(p, _EXPR)]
    while todo:
        item = todo.pop()
        if item is None:            # the end of a λ's body
            in_scope[names.pop()] -= 1
        elif type(item) is str:
            out.append(item)
        elif type(item[0]) is S.PVar:
            idx, depth = item[0].idx, len(names)
            out.append(names[depth - 1 - idx] if idx < depth
                       else f"?{idx - depth}")
        elif type(item[0]) is S.PRef:
            out.append(item[0].name)
        elif type(item[0]) is S.PLam:
            n, wrap = item[0], item[1] > _EXPR
            refs, x = printer.ref_names(n.body), n.hint or "x"
            while in_scope[x] or x in refs:
                x += "'"
            out.append(f"({lam} {x} . " if wrap else f"{lam} {x} . ")
            todo += [")" if wrap else "", None, (n.body, _EXPR)]
            names.append(x)
            in_scope[x] += 1
        else:                       # PApp
            n, wrap = item[0], item[1] > _APP
            out.append("(" if wrap else "")
            todo += [")" if wrap else "", (n.arg, _ATOM), " ", (n.fn, _APP)]
    return "".join(out)


def print_erased(t, ascii_only: bool = False) -> str:
    """Erased view of an annotated term."""
    return print_pure(E.erase(t), ascii_only)


def print_decl(decl: S.Decl, ascii_only: bool = False) -> str:
    p = _Printer(ascii_only)
    return (f"{decl.name} {p.sym['ascribe']} {p.node(decl.classifier, [])} = "
            f"{p.node(decl.body, [])} .")
