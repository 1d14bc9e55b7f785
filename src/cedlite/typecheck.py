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
from .normalize import IDENTITY, Fuel, Meter, conv, normalize
from .printer import print_classifier, print_pure
from .syntax import (
    Decl, KernelError, Signature, alpha_eq, occurs_index, shift, subtrees,
    transform,
)
from .values import (
    STAR, VBind, VEq, VNe, VTm, enter, evaluate, extend, instantiate,
    is_kind, is_var, lookup, size,
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

# The binder each application form (of a term or of a type) consumes, and
# whether its domain is a kind (None: either).
_TAKES = {S.App: (S.Pi, None), S.EApp: (S.All, False),
          S.TApp: (S.All, True), S.AppT: (S.KPiK, None),
          S.AppTm: (S.KPi, None)}
# The error per form and the function's classifier (None: not Π or ∀).
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
    (S.AppT, None): "type applied to a type argument but its kind is not Π "
                    "over a kind",
    (S.AppTm, None): "type applied to a term argument but its kind is not "
                     "term-indexed",
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
        def at(node, d):
            if not node.free_mask >> d:
                return node
            cls = type(node)
            if cls is not S.Var and cls is not S.TVar:
                return None
            v = lookup(tm.env, node.idx - d)
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
        def free(j: int, d: int) -> PureTerm:
            v = lookup(tm.env, j)
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
                decl = self._definition(head.name, "type")
                if head.name in self.sig.rejected:
                    break   # rejected: only its ascription is trusted
                self.meter.tick()
                f = evaluate(decl.body, 0)
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

    def _definition(self, name: str, level: str) -> Decl:
        """The declaration of `name`, a definition of `level`."""
        decl = self.sig.lookup(name)
        if decl is None or decl.level != level:
            raise CheckError("scope", f"{name} is not a {level}")
        return decl

    def classifier_of(self, ctx, idx: int, var):
        """The classifier value at `idx` of a `var` (`Var` or `TVar`)."""
        if idx >= size(ctx):
            raise CheckError("scope", f"variable index {idx} out of context")
        kind, wrong = _FLAVORS[var]
        if is_kind(cls := lookup(ctx, idx)[1]) is not kind:
            raise CheckError("kind", wrong)
        return cls

    def classifier_wf(self, ctx, c) -> None:
        """A binder's classifier is a well-formed kind or a ★-kinded type."""
        if not S.is_kind(c):
            self.ensure_star(ctx, c)
        elif not isinstance(c, S.Star):
            self.classifier_wf(ctx, c.dom)
            self.classifier_wf(
                extend(ctx, (c.name, evaluate(c.dom, size(ctx)))), c.body)

    def ensure_star(self, ctx, ty: S.Type) -> None:
        k = self.kind_check(ctx, ty)
        if type(k) is not S.Star:
            shown = print_classifier(self._quote(k, size(ctx)))
            raise CheckError("kind",
                             f"expected a ★-kinded type, got kind {shown}")

    def kind_check(self, ctx, ty: S.Type):
        """The kind value of the type syntax `ty` written in `ctx`."""
        cls = type(ty)
        if cls is S.TVar:
            return self.classifier_of(ctx, ty.idx, S.TVar)
        if cls is S.TRef:
            return evaluate(self._definition(ty.name, "type").classifier, 0)
        if cls in (S.All, S.Pi, S.TLam, S.Iota):
            if cls is S.Pi or cls is S.Iota:
                self.ensure_star(ctx, ty.dom)
            else:
                self.classifier_wf(ctx, ty.dom)
            dom = evaluate(ty.dom, size(ctx))
            inner = extend(ctx, (ty.name, dom))
            if cls is not S.TLam:
                self.ensure_star(inner, ty.body)
                return STAR
            body = self._quote(self.kind_check(inner, ty.body), size(inner))
            return VBind(S.KPiK if S.is_kind(ty.dom) else S.KPi, ty.name,
                         dom, body, size(ctx))
        if cls is S.AppT or cls is S.AppTm:
            return self._apply(ctx, self.kind_check(ctx, ty.fn), ty)
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

    def _check(self, ctx, t: S.Term, ty) -> None:
        """Check `t` against the value `ty`. An elimination form's type is
        inferred once and compared with `ty` without reducing; `ty` is
        weak-head normalized only when that fails."""
        inferred = None
        if isinstance(t, _ELIMINATIONS):
            inferred = self.infer(ctx, t)
            if self.type_conv(inferred, ty, size(ctx), False):
                return
        if type(ty) is VNe:
            ty = self.type_whnf(ty)
        self._check_whnf(ctx, t, ty, inferred)

    def _check_whnf(self, ctx, t: S.Term, w,
                    inferred: Union[VNe, VBind, CheckError, None]) -> None:
        """Check `t` against the weak-head normal `w`. `inferred` is what
        inferring `t` gave (its type or its error), or None if not yet
        inferred."""
        lvl, k, form = size(ctx), type(t), type(w) is VBind and w.cls
        if (k is S.Lam and form is S.Pi) or (k is S.ILam and form is S.All):
            if k is S.ILam:
                _implicit_binder_erased(t)
            elif t.ann is not None and not self.type_conv(
                    evaluate(t.ann, lvl), w.dom, lvl):
                raise CheckError(
                    "conversion",
                    f"λ binder annotation does not convert to the "
                    f"expected domain "
                    f"{print_classifier(self._quote(w.dom, lvl))}")
            self._check(extend(ctx, (t.name, w.dom)), t.body,
                        enter(w, VNe(lvl, ())))
            return
        if k is S.Pair and form is S.Iota:
            self._check(ctx, t.left, w.dom)
            self._check(ctx, t.right, instantiate(w, VTm(t.left, lvl)))
            pl, pr = erase(t.left), erase(t.right)
            if not conv(pl, pr, self.sig, self.meter):
                raise CheckError("erasure-mismatch", self._sides(
                    "intersection components have different erasures",
                    pl, pr))
            return
        if k is S.Rho:
            self._check_rho(ctx, t, w)
            return
        if k is S.Beta and type(w) is VEq:
            if not self._conv_tm(w.lhs, w.rhs, lvl):
                raise CheckError("beta-nonconv", self._sides(
                    "β requires convertible equands",
                    self._erased(w.lhs, lvl), self._erased(w.rhs, lvl)))
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
        if k is S.Symm and type(w) is VEq:
            raise CheckError("conversion", "ς proof does not match the goal "
                                           "with sides swapped")
        self._conversion_failure(ctx, inferred, w)

    def _sides(self, what: str, l: PureTerm, r: PureTerm):
        """The message `what: l vs r`, normalized once shown."""
        return lambda: (f"{what}: {print_pure(self._nf(l))} vs "
                        f"{print_pure(self._nf(r))}")

    def _conversion_failure(self, ctx, inferred, expected):
        """Raise the mismatch of `inferred` (None: an unannotated λ) with
        `expected`, printed with the names of `ctx` once shown."""
        def message() -> str:
            names: list[str] = []     # innermost first; shadowed ones primed
            for i in range(size(ctx)):
                name = lookup(ctx, i)[0] or "_"
                while name in names:
                    name += "'"
                names.append(name)
            names.reverse()

            def show(v) -> str:
                return print_classifier(self._quote(v, size(ctx), True),
                                        False, names)
            got = ("inferred: " + show(inferred) if inferred is not None
                   else "a λ abstraction needs a Π type")
            return f"type mismatch:\n  {got}\n  expected: {show(expected)}"
        raise CheckError("conversion", message)

    def infer(self, ctx, t: S.Term):
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
            ty = evaluate(self._definition(t.name, "term").classifier, 0)
        elif k in _SPINE:
            # the head is inferred once, then each argument applied to it
            apps, head = [], t
            while isinstance(head, _SPINE):
                apps.append(head)
                head = head.fn
            ty = self.infer(ctx, head)
            for app in reversed(apps):
                ty = self._apply(ctx, ty, app)
        elif k is S.Proj:
            st = self.type_whnf(self.infer(ctx, t.sub))
            if type(st) is not VBind or st.cls is not S.Iota:
                raise CheckError("projection",
                                 "projection from a non-intersection")
            ty = st.dom if t.which == 1 \
                else instantiate(st, VTm(S.Proj(t.sub, 1), size(ctx)))
        elif k is S.Lam and t.ann is not None:
            self.ensure_star(ctx, t.ann)
            dom = evaluate(t.ann, size(ctx))
            inner = extend(ctx, (t.name, dom))
            body = self._quote(self.infer(inner, t.body), size(inner))
            ty = VBind(S.Pi, t.name, dom, body, size(ctx))
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

    def _apply(self, ctx, fn, app):
        """The classifier of the term or type application `app` in `ctx`,
        whose function's classifier `fn` must be the binder `app` consumes:
        a type argument's kind must convert with its domain, and a term
        argument is checked against it."""
        if type(fn) is VNe:
            fn = self.type_whnf(fn)
        binder, kind_dom = _TAKES[type(app)]
        form = type(fn) is VBind and fn.cls
        if form is not binder or (
                kind_dom is not None and is_kind(fn.dom) != kind_dom):
            got = form if form in (S.Pi, S.All) else None
            raise CheckError("application" if binder in (S.Pi, S.All)
                             else "kind", _MISAPPLIED[type(app), got])
        if S.is_type(app.arg):
            if not self.type_conv(self.kind_check(ctx, app.arg), fn.dom,
                                  size(ctx)):
                raise CheckError("kind", "type argument has the wrong kind")
            return instantiate(fn, evaluate(app.arg, size(ctx)))
        self._check(ctx, app.arg, fn.dom)
        return instantiate(fn, VTm(app.arg, size(ctx)))

    # --- the ρ rule -------------------------------------------------------

    def _check_rho(self, ctx, t: S.Rho, w) -> None:
        """Check the chain `ρ q1 - … ρ qn - b`. The goal `w` is read back
        once, unforced, and each link rewrites it in one walk that forces
        what it visits (`_rewrite`); a ρ+ link normalizes the goal's terms
        first, so what to force is judged on the terms the walk sees."""
        lvl, goal, normed = size(ctx), None, False
        while type(t) is S.Rho:
            qt = self.type_whnf(self.infer(ctx, t.proof))
            if type(qt) is not VEq:
                raise CheckError("rho", "ρ proof is not an equality")
            lhs = self._erased(qt.lhs, lvl)
            goal = goal or self._quote(w, lvl)
            if t.normalize_first:
                goal, normed = self._norm_term_positions(goal), True
            goal, count = self._rewrite(goal, lhs, self._nf(lhs),
                                        self._quote_tm(qt.rhs, lvl), lvl,
                                        normed)
            if count == 0:
                self.warnings.append("ρ rewrote no occurrences of the "
                                     "equation's left side")
            t = t.body
        self._check(ctx, t, evaluate(goal, lvl))

    def _norm_term_positions(self, node):
        """βδ-normalize every embedded term of a type, kinds left alone."""
        def at(n, d):
            if S.is_kind(n):
                return n
            return embed(self._nf(erase(n))) if S.is_term(n) else None
        return transform(node, at)

    def _rewrite(self, node, lhs: PureTerm, lhs_nf: PureTerm, rhs: S.Term,
                 lvl: int, normed: bool):
        """Replace by `rhs` every term position of the type `node`, at
        level `lvl`, whose erasure converts with `lhs` (normal form
        `lhs_nf`); returns the result and the number replaced. A visited
        type node headed by a checked definition or an applied type-λ is
        forced as by `_quote(…, True)`, and the walk goes on into its
        forced form, with its terms βδ-normalized first if `normed`.
        Kinds and the types inside terms stay as written, and so does a
        subtree lacking a variable free in `lhs_nf`, unvisited: β, η and δ
        add no free variable (see `_matches`), and neither does erasure,
        except where a Λ-bound variable survives it, which checking
        rejects in terms and kinding in equation operands."""
        count = 0
        mask = lhs_nf.free_mask
        lhs_at: dict[int, tuple] = {}     # lhs, lhs_nf, its mask under d

        def in_term(n, d):
            nonlocal count
            if S.is_kind(n) or mask << d & ~n.free_mask:
                return n
            if S.is_term(n):
                at_d = lhs_at.get(d) or lhs_at.setdefault(
                    d, (shift(lhs, d), shift(lhs_nf, d), mask << d))
                if self._matches(n, *at_d):
                    count += 1
                    return shift(rhs, d)
            return None

        def in_type(n, d):
            if not S.is_type(n) or mask << d & ~n.free_mask:
                return transform(n, in_term, d)
            head = n
            while type(head) is S.AppT or type(head) is S.AppTm:
                head = head.fn
            if type(head) is S.TRef and head.name not in self.sig.rejected \
                    or type(head) is S.TLam and head is not n:
                form = self._quote(self.type_whnf(evaluate(n, lvl + d)),
                                   lvl + d)
                if normed:
                    form = self._norm_term_positions(form)
                return transform(form, in_type, d)
            return None
        try:
            return transform(node, in_type), count
        finally:
            in_type = None      # it refers to itself through this cell

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
        return conv(te, lhs_nf, self.sig, self.meter)


# ---------------------------------------------------------------------------
# Whole-signature checking

def _check_decl(checker: Checker, decl: Decl) -> None:
    cls = evaluate(decl.classifier, 0)
    if decl.level == "type":
        checker.classifier_wf(0, decl.classifier)
        k = checker.kind_check(0, decl.body)
        if not checker.type_conv(k, cls):
            raise CheckError(
                "kind",
                f"body kinds to {print_classifier(checker._quote(k, 0))}, "
                f"not the ascribed {print_classifier(decl.classifier)}")
    else:
        checker.ensure_star(0, decl.classifier)
        checker._check(0, decl.body, cls)


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
    limit on the deep stack is the error "depth exhausted"."""
    try:
        return step(*args)
    except KernelError as e:
        return e.with_traceback(None)
    except RecursionError:
        if S.retry_to_come():
            raise
        return KernelError("depth exhausted")


@S.deep
def check_signature(sig: Signature, fuel: Fuel = Fuel()) -> CheckReport:
    """Check declarations in order, then evaluate attached assertions.

    A failing declaration is still recorded in the signature (later
    declarations trust its ascription, and a type-level one is never
    unfolded) and checking continues. Running out of the deep stack fails
    only the declaration at hand ("depth exhausted").
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
