"""Bidirectional type and kind checking with erased conversion.

Definitional equality throughout is conversion of erasures; embedded
term positions in types are compared that way, equality-type operands
are never themselves typed (their free variables need only name term
and type binders as used, and no Λ-bound variable may survive their
erasure), and the ρ rule rewrites every occurrence whose erasure
converts with the equation's left side.

Types and kinds are checked as values (`values.py`): instantiating a
binder extends an environment instead of substituting, and syntax is
read back only to print a type and to build the goal of ρ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from . import syntax as S
from .erasure import PureTerm, PVar, embed, erase, free_in_erasure
from .normalize import IDENTITY, Fuel, Meter, alpha_eq, conv, normalize
from .printer import print_classifier, print_pure
from .syntax import (
    Decl, KernelError, Signature, occurs_index, shift, subtrees, transform,
)
from .values import (
    EMPTY, STAR, Ctx, VBind, VEq, VNe, VTm, enter, evaluate,
    instantiate, is_kind, is_var,
)


class CheckError(KernelError):
    """Declaration-level failure; `kind` names the error class. The message
    may be a function that builds it; it runs on the first `str`."""

    def __init__(self, kind: str, msg):
        super().__init__(msg)
        self.kind = kind

    def __str__(self) -> str:
        if callable(self.args[0]):
            self.args = (self.args[0](),)
        return self.args[0]


@dataclass
class AssertionOutcome:
    description: str
    ok: bool
    detail: str = ""
    normal_form: Optional[PureTerm] = None  # of a failed erases-to's target


@dataclass
class DeclReport:
    name: str
    status: str                      # "ok" | "type error" | "assertion failure"
    classifier: Union[S.Type, S.Kind]
    normal_form: Optional[PureTerm] = None  # of an ok term definition
    assertions: list[AssertionOutcome] = field(default_factory=list)
    steps_used: int = 0
    warnings: list[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class CheckReport:
    decls: list[DeclReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(d.ok for d in self.decls)


# Whether a kind classifies the context entry of each variable node, and
# the error if not so.
_FLAVORS = {S.Var: (False, "type variable used as a term"),
            S.TVar: (True, "term variable used as a type")}

# Terms whose type is inferred, never built from the expected type.
_SPINE = (S.App, S.EApp, S.TApp)
_ELIMINATIONS = _SPINE + (S.Var, S.Ref, S.Proj)

# The binder each application form consumes, and whether its domain is a
# kind (None: either).
_TAKES = {S.App: (S.Pi, None), S.EApp: (S.All, False),
          S.TApp: (S.All, True)}
# The error when the function's type is another binder (None: no binder).
_MISAPPLIED = {
    (S.App, S.All): "implicit function applied explicitly; use -arg or · T",
    (S.App, None): "explicit application of a non-function",
    (S.EApp, S.All): "this implicit product expects a type argument (· T)",
    (S.EApp, S.Pi): "erased application to an explicit function",
    (S.EApp, None): "erased application of a non-function",
    (S.TApp, S.All): "this implicit product expects an erased term argument "
                     "(-t)",
    (S.TApp, S.Pi): "type application to an explicit function",
    (S.TApp, None): "type application of a non-function",
}


def _implicit_binder_erased(lam: S.ILam) -> None:
    """The side condition of `Λ x . t`: x is not free in the erasure of t."""
    if free_in_erasure(0, lam.body):
        raise CheckError("implicit-free", f"implicit binder {lam.name} "
                                          f"occurs in the erasure of its body")


class Checker:
    """Checks one declaration; accumulates reduction steps and warnings.

    `meter` is the declaration's fuel: every step of its check ticks it
    (each type-level δ-unfold and β-step, each step of a term
    normalization or conversion, each memo replay)."""

    def __init__(self, sig: Signature, fuel: Fuel = Fuel()):
        self.sig = sig
        self.meter = Meter(fuel.max_steps)
        self.warnings: list[str] = []
        self._inferred: dict = {}   # see `infer`

    def _nf(self, p: PureTerm) -> PureTerm:
        return normalize(p, self.sig, self.meter).term

    # --- evaluation and readback ---------------------------------------------

    def _quote(self, v, lvl: int, nf: bool = False):
        """The syntax of the value `v` at level `lvl`. With `nf`, every
        type node is forced first: the normal form of its type structure."""
        k = type(v)
        if nf and k is VNe:
            v = self.type_whnf(v)
            k = type(v)
        if k is VNe:
            h = v.head
            out = S.TVar(lvl - 1 - h) if type(h) is int \
                else h if type(h) is S.TRef else self._quote(h, lvl, nf)
            for a in v.spine:
                out = S.AppTm(out, self._quote_tm(a, lvl)) if type(a) is VTm \
                    else S.AppT(out, self._quote(a, lvl, nf))
            return out
        if k is VBind:
            dom = self._quote(v.dom, lvl, nf)
            body = self._quote(enter(v, VNe(lvl, ())), lvl + 1, nf)
            return v.cls(v.name, dom, body)
        if k is VEq:
            return S.Eq(self._quote_tm(v.lhs, lvl), self._quote_tm(v.rhs, lvl))
        return v

    def _quote_tm(self, tm: VTm, lvl: int) -> S.Term:
        """The embedded term with its environment substituted, at `lvl`."""
        env, n = tm.env, len(tm.env)

        def at(node, d):
            if not node.free_mask >> d:
                return node
            cls = type(node)
            if cls is not S.Var and cls is not S.TVar:
                return None
            j = node.idx - d
            v = env[-1 - j] if j < n else VNe(n - 1 - j, ())
            if is_var(v):
                idx = lvl + d - 1 - v.head
                return node if idx == node.idx else cls(idx)
            return self._quote_tm(v, lvl + d) if type(v) is VTm \
                else self._quote(v, lvl + d)
        return transform(tm.term, at)

    def _erased(self, tm: VTm, lvl: int) -> PureTerm:
        """The erasure of an embedded term, its free variables read back
        at level `lvl` (the erasure of `_quote_tm`, without building the
        parts that erasure drops)."""
        env, n = tm.env, len(tm.env)

        def free(j: int, d: int) -> PureTerm:
            if j >= n:
                return PVar(lvl + d - n + j)
            v = env[-1 - j]
            if type(v) is VTm:
                return self._erased(v, lvl + d)
            return PVar(lvl + d - 1 - v.head)
        return erase(tm.term, free)

    # --- type-level normalization -----------------------------------------

    def type_whnf(self, v):
        """Force a classifier value: unfold definition heads and β-reduce
        type-level redexes, one step each, until the head is a variable, a
        rejected definition or a binder."""
        w = v
        while type(w) is VNe:
            head = w.head
            if type(head) is S.TRef:
                decl = self.sig.lookup(head.name)
                if decl is None or decl.level != "type":
                    raise CheckError("scope", f"{head.name} is not a type")
                if head.name in self.sig.rejected:
                    break   # rejected: only its ascription is trusted
                self.meter.tick()
                f = evaluate(decl.body, [])
            elif type(head) is VBind and head.cls is S.TLam:
                f = head
            else:
                break
            spine = w.spine
            for i, a in enumerate(spine):
                if type(f) is not VBind or f.cls is not S.TLam:
                    f = VNe(f.head, f.spine + spine[i:]) if type(f) is VNe \
                        else VNe(f, spine[i:])
                    break
                self.meter.tick()
                f = instantiate(f, a)
            w = f
        return w

    # --- conversion of types and kinds -------------------------------------

    def type_conv(self, t1, t2, lvl: int = 0, unfold: bool = True) -> bool:
        """Convertibility at level `lvl` of two classifier values, or of two
        embedded terms (by erasure). Two applications of one head compare
        their arguments first; a definition head is unfolded only when the
        heads differ or the arguments do not convert. Without `unfold`
        nothing is reduced and embedded terms are compared by α-equality
        of their erasures: the answer costs no step, and a yes is final."""
        if t1 is t2:
            return True
        k1, k2 = type(t1), type(t2)
        if k1 is VTm or k2 is VTm:
            return k1 is k2 and self._conv_tm(t1, t2, lvl, unfold)
        if k1 is VNe and k2 is VNe and self._conv_ne(t1, t2, lvl, False):
            return True
        if not unfold:
            if k1 is VNe or k2 is VNe:
                return False
        else:
            if k1 is VNe:
                t1 = self.type_whnf(t1)
                k1 = type(t1)
            if k2 is VNe:
                t2 = self.type_whnf(t2)
                k2 = type(t2)
        if k1 is not k2:
            return False
        if k1 is VNe:
            return self._conv_ne(t1, t2, lvl, unfold)
        if k1 is VBind:
            if t1.cls is not t2.cls \
                    or not self.type_conv(t1.dom, t2.dom, lvl, unfold):
                return False
            x = VNe(lvl, ())
            return self.type_conv(enter(t1, x), enter(t2, x),
                                  lvl + 1, unfold)
        if k1 is VEq:
            return self._conv_tm(t1.lhs, t2.lhs, lvl, unfold) \
                and self._conv_tm(t1.rhs, t2.rhs, lvl, unfold)
        return True         # ★

    def _conv_ne(self, n1: VNe, n2: VNe, lvl: int, unfold: bool) -> bool:
        """Same head, and convertible arguments (read as in `type_conv`)."""
        h1, h2 = n1.head, n2.head
        if type(h1) is VBind:
            if type(h2) is not VBind or not self.type_conv(h1, h2, lvl,
                                                           unfold):
                return False
        elif type(h1) is not type(h2) or (
                h1 != h2 if type(h1) is int else h1.name != h2.name):
            return False
        s1, s2 = n1.spine, n2.spine
        if len(s1) != len(s2):
            return False
        for a, b in zip(s1, s2):
            if not self.type_conv(a, b, lvl, unfold):
                return False
        return True

    def _conv_tm(self, a: VTm, b: VTm, lvl: int, unfold: bool = True) -> bool:
        pa, pb = self._erased(a, lvl), self._erased(b, lvl)
        return conv(pa, pb, self.sig, self.meter) if unfold \
            else alpha_eq(pa, pb)

    # --- kinding ------------------------------------------------------------

    def classifier_of(self, ctx: Ctx, idx: int, var):
        """The classifier value at `idx` of a `var` (`Var` or `TVar`)."""
        if idx >= len(ctx.types):
            raise CheckError("scope", f"variable index {idx} out of context")
        kind, wrong = _FLAVORS[var]
        if is_kind(cls := ctx.types[-1 - idx]) is not kind:
            raise CheckError("kind", wrong)
        return cls

    def classifier_wf(self, ctx: Ctx, c) -> None:
        """A binder's classifier is a well-formed kind or a ★-kinded type."""
        if not S.is_kind(c):
            self.ensure_star(ctx, c)
        elif not isinstance(c, S.Star):
            self.classifier_wf(ctx, c.dom)
            self.classifier_wf(ctx.bind(c.name, evaluate(c.dom, ctx.env)),
                               c.body)

    def ensure_star(self, ctx: Ctx, ty: S.Type) -> None:
        k = self.kind_check(ctx, ty)
        if type(k) is not S.Star:
            shown = print_classifier(self._quote(k, len(ctx.env)))
            raise CheckError("kind",
                             f"expected a ★-kinded type, got kind {shown}")

    def kind_check(self, ctx: Ctx, ty: S.Type):
        """The kind value of the type syntax `ty` written in `ctx`."""
        cls = type(ty)
        if cls is S.TVar:
            return self.classifier_of(ctx, ty.idx, S.TVar)
        if cls is S.TRef:
            decl = self.sig.lookup(ty.name)
            if decl is None or decl.level != "type":
                raise CheckError("scope", f"{ty.name} is not a type")
            return evaluate(decl.classifier, [])
        if cls is S.Iota:
            self.ensure_star(ctx, ty.left)
            self.ensure_star(ctx.bind(ty.name, evaluate(ty.left, ctx.env)),
                             ty.right)
            return STAR
        if cls is S.All or cls is S.Pi or cls is S.TLam:
            if cls is S.Pi:
                self.ensure_star(ctx, ty.dom)
            else:
                self.classifier_wf(ctx, ty.dom)
            inner = ctx.bind(ty.name, evaluate(ty.dom, ctx.env))
            if cls is not S.TLam:
                self.ensure_star(inner, ty.body)
                return STAR
            body = self._quote(self.kind_check(inner, ty.body),
                               len(inner.env))
            return VBind(S.KPiK if S.is_kind(ty.dom) else S.KPi, ty.name,
                         inner.types[-1], body, ctx.env)
        if cls is S.AppT:
            kf = self.kind_check(ctx, ty.fn)
            if type(kf) is not VBind or kf.cls is not S.KPiK:
                raise CheckError("kind", "type applied to a type argument "
                                         "but its kind is not Π over a kind")
            ka = self.kind_check(ctx, ty.arg)
            if not self.type_conv(ka, kf.dom, len(ctx.env)):
                raise CheckError("kind", "type argument has the wrong kind")
            return instantiate(kf, evaluate(ty.arg, ctx.env))
        if cls is S.AppTm:
            kf = self.kind_check(ctx, ty.fn)
            if type(kf) is not VBind or kf.cls is not S.KPi:
                raise CheckError("kind", "type applied to a term argument "
                                         "but its kind is not term-indexed")
            self._check(ctx, ty.arg, kf.dom)
            return instantiate(kf, VTm(ty.arg, ctx.env))
        if cls is S.Eq:
            # operands stay untyped: only free variables' flavors count,
            # and that no Λ-bound variable survives erasure
            todo = [(ty.lhs, 0), (ty.rhs, 0)]
            while todo:
                n, d = todo.pop()
                if type(n) in _FLAVORS and n.idx >= d:
                    self.classifier_of(ctx, n.idx - d, type(n))
                elif type(n) is S.ILam:
                    _implicit_binder_erased(n)
                todo += subtrees(n, d)
            return STAR
        raise TypeError(ty)

    # --- terms ----------------------------------------------------------------

    def _check(self, ctx: Ctx, t: S.Term, ty) -> None:
        """Check `t` against the value `ty`. An elimination form's type is
        inferred once and compared with `ty` without reducing; `ty` is
        weak-head normalized only when that fails."""
        inferred = None
        if isinstance(t, _ELIMINATIONS):
            inferred = self.infer(ctx, t)
            if self.type_conv(inferred, ty, len(ctx.env), False):
                return
        if type(ty) is VNe:
            ty = self.type_whnf(ty)
        self._check_whnf(ctx, t, ty, inferred)

    def _check_whnf(self, ctx: Ctx, t: S.Term, w,
                    inferred: Union[VNe, VBind, CheckError, None]) -> None:
        """Check `t` against the weak-head normal `w`. `inferred` is what
        inferring `t` gave (its type or its error), or None if not yet
        inferred."""
        lvl, k, form = len(ctx.env), type(t), type(w) is VBind and w.cls
        if (k is S.Lam and form is S.Pi) or (k is S.ILam and form is S.All):
            if k is S.ILam:
                _implicit_binder_erased(t)
            elif t.ann is not None and not self.type_conv(
                    evaluate(t.ann, ctx.env), w.dom, lvl):
                raise CheckError(
                    "conversion",
                    f"λ binder annotation does not convert to the "
                    f"expected domain "
                    f"{print_classifier(self._quote(w.dom, lvl))}")
            inner = ctx.bind(t.name, w.dom)
            self._check(inner, t.body, enter(w, inner.env[-1]))
            return
        if k is S.Pair and form is S.Iota:
            self._check(ctx, t.left, w.dom)
            self._check(ctx, t.right, instantiate(w, VTm(t.left, ctx.env)))
            pl, pr = erase(t.left), erase(t.right)
            if not conv(pl, pr, self.sig, self.meter):
                raise CheckError("erasure-mismatch", self._sides(
                    "intersection components have different erasures",
                    pl, pr))
            return
        if k is S.Rho:
            self._check_rho(ctx, t, w)
            return
        if type(w) is VEq and k in (S.Beta, S.Symm):
            l, r = w.lhs, w.rhs
            if k is S.Beta:
                if not self._conv_tm(l, r, lvl):
                    raise CheckError("beta-nonconv", self._sides(
                        "β requires convertible equands",
                        self._erased(l, lvl), self._erased(r, lvl)))
                return
            qt = self.type_whnf(self.infer(ctx, t.proof))
            if type(qt) is not VEq:
                raise CheckError("symmetry", "ς applied to a non-equality proof")
            if not (self._conv_tm(l, qt.rhs, lvl)
                    and self._conv_tm(r, qt.lhs, lvl)):
                raise CheckError("conversion",
                                 "ς proof does not match the goal "
                                 "with sides swapped")
            return
        if inferred is None:
            try:
                inferred = self.infer(ctx, t)
            except CheckError as e:    # kept without the frames it holds
                inferred = e.with_traceback(None)
        if not isinstance(inferred, CheckError) \
                and self.type_conv(inferred, w, lvl):
            return
        if form is S.All and not occurs_index(w.body, 0):
            # non-dependent ∀ (the ➾ form) accepts the body directly
            self._check_whnf(ctx, t, self.type_whnf(
                enter(w, VNe(lvl, ()))), inferred)
            return
        if k is S.Lam and t.ann is None:
            inferred = None     # no type to infer; `w` is not a Π
        elif isinstance(inferred, CheckError):
            raise inferred
        self._conversion_failure(ctx, inferred, w)

    def _sides(self, what: str, l: PureTerm, r: PureTerm):
        """The message `what: l vs r`, normalized once shown."""
        return lambda: (f"{what}: {print_pure(self._nf(l))} vs "
                        f"{print_pure(self._nf(r))}")

    def _conversion_failure(self, ctx: Ctx, inferred, expected):
        """Raise the mismatch of `inferred` (None: an unannotated λ) with
        `expected`, printed with the names of `ctx` once shown."""
        def message() -> str:
            names: list[str] = []     # innermost first; shadowed ones primed
            for name in reversed(ctx.names):
                name = name or "_"
                while name in names:
                    name += "'"
                names.append(name)
            names.reverse()

            def show(v) -> str:
                return print_classifier(self._quote(v, len(ctx.env), True),
                                        False, names)
            got = ("inferred: " + show(inferred) if inferred is not None
                   else "a λ abstraction needs a Π type")
            return f"type mismatch:\n  {got}\n  expected: {show(expected)}"
        raise CheckError("conversion", message)

    def infer(self, ctx: Ctx, t: S.Term):
        """The type value of `t`, memoized by the identities of `t` and `ctx`
        (kept alive); a hit charges its steps and appends its warnings
        again."""
        seen = self._inferred.get((id(t), id(ctx)))
        if seen is not None:
            self.meter.tick(seen[3])
            self.warnings += seen[4]
            return seen[2]
        steps, n_warnings = self.meter.used, len(self.warnings)
        k = type(t)
        if k is S.Var:
            ty = self.classifier_of(ctx, t.idx, S.Var)
        elif k is S.Ref:
            decl = self.sig.lookup(t.name)
            if decl is None or decl.level != "term":
                raise CheckError("scope", f"{t.name} is not a term")
            ty = evaluate(decl.classifier, [])
        elif k in _SPINE:
            ty = self._infer_spine(ctx, t)
        elif k is S.Proj:
            st = self.type_whnf(self.infer(ctx, t.sub))
            if type(st) is not VBind or st.cls is not S.Iota:
                raise CheckError("projection",
                                 "projection from a non-intersection")
            ty = st.dom if t.which == 1 \
                else instantiate(st, VTm(S.Proj(t.sub, 1), ctx.env))
        elif k is S.Lam and t.ann is not None:
            self.ensure_star(ctx, t.ann)
            dom = evaluate(t.ann, ctx.env)
            inner = ctx.bind(t.name, dom)
            body = self._quote(self.infer(inner, t.body), len(inner.env))
            ty = VBind(S.Pi, t.name, dom, body, ctx.env)
        elif k is S.Lam:
            raise CheckError("cannot-infer", "unannotated λ binders are "
                             "only permitted in checking mode")
        elif k is S.Symm:
            qt = self.type_whnf(self.infer(ctx, t.proof))
            if type(qt) is not VEq:
                raise CheckError("symmetry", "ς applied to a non-equality proof")
            ty = VEq(qt.rhs, qt.lhs)
        else:
            raise CheckError("cannot-infer",
                             f"cannot synthesize a type for this "
                             f"{type(t).__name__} term")
        self._inferred[id(t), id(ctx)] = (
            t, ctx, ty, self.meter.used - steps, self.warnings[n_warnings:])
        return ty

    def _infer_spine(self, ctx: Ctx, t: S.Term):
        """The type of an application spine `h a1 ... an`. The head is
        inferred once; each argument instantiates the binder it is applied
        to by extending that binder's environment."""
        apps = []
        while isinstance(t, _SPINE):
            apps.append(t)
            t = t.fn
        ty = self.infer(ctx, t)
        lvl = len(ctx.env)
        for app in reversed(apps):
            if type(ty) is VNe:
                ty = self.type_whnf(ty)
            binder, kind_dom = _TAKES[type(app)]
            form = type(ty) is VBind and ty.cls
            if form is not binder or (
                    kind_dom is not None and is_kind(ty.dom) != kind_dom):
                got = form if form in (S.Pi, S.All) else None
                raise CheckError("application", _MISAPPLIED[type(app), got])
            if type(app) is S.TApp:
                if not self.type_conv(self.kind_check(ctx, app.ty), ty.dom,
                                      lvl):
                    raise CheckError("kind",
                                     "type argument has the wrong kind")
                ty = instantiate(ty, evaluate(app.ty, ctx.env))
            else:
                self._check(ctx, app.arg, ty.dom)
                ty = instantiate(ty, VTm(app.arg, ctx.env))
        return ty

    # --- the ρ rule -------------------------------------------------------

    def _check_rho(self, ctx: Ctx, t: S.Rho, w) -> None:
        """Check the chain `ρ q1 - … ρ qn - b`, reading `w` back once."""
        lvl, goal = len(ctx.env), None
        while type(t) is S.Rho:
            qt = self.type_whnf(self.infer(ctx, t.proof))
            if type(qt) is not VEq:
                raise CheckError("rho", "ρ proof is not an equality")
            goal = goal or self._quote(w, lvl, True)
            if t.normalize_first:
                goal = self._norm_term_positions(goal)
            lhs = self._erased(qt.lhs, lvl)
            goal, count = self._rewrite(goal, lhs, self._nf(lhs),
                                        self._quote_tm(qt.rhs, lvl), 0)
            if count == 0:
                self.warnings.append("ρ rewrote no occurrences of the "
                                     "equation's left side")
            t = t.body
        self._check(ctx, t, evaluate(goal, ctx.env))

    def _norm_term_positions(self, node):
        """βδ-normalize every embedded term of an already type-normal type."""
        def at(n, d):
            if S.is_kind(n):
                return n
            return embed(self._nf(erase(n))) if S.is_term(n) else None
        return transform(node, at)

    def _rewrite(self, node, lhs: PureTerm, lhs_nf: PureTerm, rhs: S.Term,
                 depth: int):
        """Replace by `rhs` every term position of the type or term `node`
        whose erasure converts with `lhs` (whose normal form is `lhs_nf`);
        kinds are left alone. `node` sits under `depth` binders. Returns
        the result and the number of positions replaced.

        A subtree lacking a variable free in `lhs_nf` is kept as it is,
        unvisited: β, η and δ add no free variable (see `_matches`), and
        neither does erasure, except where a Λ-bound variable survives it,
        which checking rejects in terms and kinding in equation operands."""
        count = 0
        mask = lhs_nf.free_mask
        lhs_at: dict[int, tuple] = {}     # lhs, lhs_nf, its mask under d

        def at(n, d):
            nonlocal count
            if S.is_kind(n) or mask << d & ~n.free_mask:
                return n
            if S.is_term(n):
                at_d = lhs_at.get(d)
                if at_d is None:
                    at_d = lhs_at[d] = (shift(lhs, d), shift(lhs_nf, d),
                                        mask << d)
                if self._matches(n, *at_d):
                    count += 1
                    return shift(rhs, d)
            return None
        return transform(node, at, depth), count

    def _matches(self, t: S.Term, lhs: PureTerm, lhs_nf: PureTerm,
                 lhs_mask: int) -> bool:
        te = erase(t)
        if alpha_eq(te, lhs):
            return True
        # β and η never add a free variable, and δ unfolds only checked
        # definitions, whose normal forms are closed (a rejected one stays a
        # neutral head). So `te` can normalize to `lhs_nf` only if every
        # variable free in `lhs_nf` (the bits of `lhs_mask`) is free in `te`.
        if lhs_mask & ~te.free_mask:
            return False
        return alpha_eq(self._nf(te), lhs_nf)


# ---------------------------------------------------------------------------
# Whole-signature checking

def _check_decl(checker: Checker, decl: Decl) -> None:
    cls = evaluate(decl.classifier, [])
    if decl.level == "type":
        checker.classifier_wf(EMPTY, decl.classifier)
        k = checker.kind_check(EMPTY, decl.body)
        if not checker.type_conv(k, cls):
            raise CheckError(
                "kind",
                f"body kinds to {print_classifier(checker._quote(k, 0))}, "
                f"not the ascribed {print_classifier(decl.classifier)}")
    else:
        checker.ensure_star(EMPTY, decl.classifier)
        checker._check(EMPTY, decl.body, cls)


# Per assertion kind: what the target's normal form is compared with, the
# answer that makes the assertion hold, and the detail when it does not
# (None: the target's normal form is shown instead).
_ASSERTIONS = {
    "identity": (lambda a, nfs: IDENTITY, True,
                 "erasure is not the identity function"),
    "not-identity": (lambda a, nfs: IDENTITY, False,
                     "erasure IS the identity function"),
    "erases-to": (lambda a, nfs: erase(a.payload), True, None),
    "erase-equal": (lambda a, nfs: nfs[a.other], True,
                    "erasures are not convertible"),
}


def _eval_assertion(sig: Signature, fuel: Fuel, assertion: S.Assertion,
                    statuses: dict) -> AssertionOutcome:
    desc = assertion.describe()
    for name in filter(None, (assertion.target, assertion.other)):
        if statuses.get(name) != "ok":
            return AssertionOutcome(desc, False, statuses.get(
                name, f"declaration {name} did not check"))
    side, holds, detail = _ASSERTIONS[assertion.kind]
    nfs = sig._def_nfs      # holds the normal form of every ok term definition
    target = nfs[assertion.target]
    verdict = _attempt(lambda: conv(target, side(assertion, nfs), sig, fuel))
    if verdict is holds:
        return AssertionOutcome(desc, True)
    if isinstance(verdict, KernelError):
        return AssertionOutcome(desc, False, str(verdict))
    return AssertionOutcome(desc, False, detail or "",
                            None if detail else target)


def _attempt(step, *args):
    """`step(*args)`, or the kernel error it raised, kept without its
    traceback (which holds this frame). Running into Python's recursion
    limit is the error "depth exhausted"."""
    try:
        return step(*args)
    except KernelError as e:
        return e.with_traceback(None)
    except RecursionError:
        return KernelError("depth exhausted")


def check_signature(sig: Signature, fuel: Fuel = Fuel()) -> CheckReport:
    """Check declarations in order, then evaluate attached assertions.

    A failing declaration is still recorded in the signature (later
    declarations trust its ascription, and a type-level one is never
    unfolded) and checking continues. Running into Python's recursion
    limit fails only the declaration at hand ("depth exhausted").
    A declaration's check and its normal form spend one budget of `fuel`
    (one `Checker.meter`); each assertion gets a budget of its own.
    """
    report = CheckReport()
    statuses: dict[str, str] = {}   # "ok", or why the normal form failed
    for decl in sig.decls:
        checker = Checker(sig, fuel)
        error = _attempt(_check_decl, checker, decl)
        row = DeclReport(decl.name, "ok", decl.classifier,
                         warnings=checker.warnings)
        if decl.expect_fail:
            if error is None:
                row.status = "assertion failure"
                row.assertions.append(AssertionOutcome(
                    f"fails {decl.name}", False,
                    "declaration checked but was expected to fail"))
            else:
                kind = getattr(error, "kind", "error")
                row.assertions.append(AssertionOutcome(
                    f"fails {decl.name}", True,
                    f"failed as expected ({kind})"))
        else:
            if error is not None:   # its deferred message, under the guard
                shown = _attempt(str, error)
                if isinstance(shown, KernelError):
                    error = shown
            elif decl.level == "term":
                # ok only once its normal form is stored; one that cannot
                # be computed makes the definition rejected, so no later
                # use pays for it again, and its assertions repeat the error
                nf = _attempt(lambda: normalize(
                    erase(decl.body), sig, checker.meter).term)
                if isinstance(nf, KernelError):
                    error = nf
                    statuses[decl.name] = str(nf)
                else:
                    sig._def_nfs.setdefault(decl.name, nf)
                    row.normal_form = nf
            if error is None:
                statuses[decl.name] = "ok"
            else:
                row.status, row.error = "type error", str(error)
                sig.rejected.add(decl.name)
        row.steps_used = checker.meter.used
        report.decls.append(row)
    for decl, row in zip(sig.decls, report.decls):
        for assertion in decl.assertions:
            outcome = _eval_assertion(sig, fuel, assertion, statuses)
            row.assertions.append(outcome)
            if not outcome.ok and row.status == "ok":
                row.status = "assertion failure"
    return report
