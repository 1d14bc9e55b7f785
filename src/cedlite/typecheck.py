"""Bidirectional type and kind checking with erased conversion.

Definitional equality throughout is conversion of erasures; embedded
term positions in types are compared that way, equality-type operands
are never themselves typed (their free variables need only name term
and type binders as used, and no Λ-bound variable may survive their
erasure), and the ρ rule rewrites every occurrence whose erasure
converts with the equation's left side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from . import syntax as S
from .erasure import PureTerm, embed, erase, free_in_erasure
from .normalize import Fuel, FuelExhausted, alpha_eq, conv, is_identity, \
    normalize
from .printer import print_classifier, print_pure
from .syntax import (
    Decl, KernelError, Signature, free_mask, occurs_index, rebuild, shift,
    subst, subtrees,
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
class CtxEntry:
    name: str
    classifier: Union[S.Type, S.Kind]


Context = list  # of CtxEntry, innermost binding last


@dataclass
class AssertionOutcome:
    description: str
    ok: bool
    detail: str = ""
    normal_form: Optional[PureTerm] = None  # of a failed erases-to's target


@dataclass
class DeclReport:
    name: str
    level: str
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

    @property
    def erasure_nf(self) -> Optional[str]:      # `normal_form`, in Unicode
        return self.normal_form and print_pure(self.normal_form)


@dataclass
class CheckReport:
    decls: list[DeclReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(d.ok for d in self.decls)

    def find(self, name: str) -> Optional[DeclReport]:
        for d in self.decls:
            if d.name == name:
                return d
        return None


# What classifies the context entry of each variable node, and the error.
_FLAVORS = {S.Var: (S.is_type, "type variable used as a term"),
            S.TVar: (S.is_kind, "term variable used as a type")}

# Terms whose type is inferred, never built from the expected type.
_SPINE = (S.App, S.EApp, S.TApp)
_ELIMINATIONS = _SPINE + (S.Var, S.Ref, S.Proj)

# The binder each application form consumes, and the sort of its domain.
_TAKES = {S.App: (S.Pi, None), S.EApp: (S.All, "type"),
          S.TApp: (S.All, "kind")}
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
    """Checks one declaration; accumulates reduction steps and warnings."""

    def __init__(self, sig: Signature, fuel: Fuel = Fuel()):
        self.sig = sig
        self.fuel = fuel
        self.steps = 0
        self.warnings: list[str] = []
        self._inferred: dict = {}   # see `infer`

    # --- conversion plumbing ---------------------------------------------

    def _nf(self, p: PureTerm) -> PureTerm:
        out = normalize(p, self.sig, self.fuel)
        self.steps += out.steps_used
        return out.term

    def conv_pure(self, p1: PureTerm, p2: PureTerm) -> bool:
        if alpha_eq(p1, p2):
            return True
        n1, n2 = self._nf(p1), self._nf(p2)
        # two inputs that are their own normal forms were compared above
        return (n1 is not p1 or n2 is not p2) and alpha_eq(n1, n2)

    def conv_terms(self, t1: S.Term, t2: S.Term) -> bool:
        return self.conv_pure(erase(t1), erase(t2))

    # --- type-level normalization -----------------------------------------

    def type_whnf(self, ty: S.Type) -> S.Type:
        """Unfold definition heads and reduce type-level redexes."""
        stack: list[tuple[type, object]] = []    # (AppT or AppTm, argument)
        while True:
            match ty:
                case S.AppT(f, a) | S.AppTm(f, a):
                    stack.append((type(ty), a))
                    ty = f
                case S.TRef(name):
                    decl = self.sig.lookup(name)
                    if decl is None or decl.level != "type":
                        raise CheckError("scope", f"{name} is not a type")
                    if name in self.sig.rejected:
                        break   # rejected: only its ascription is trusted
                    self.steps += 1
                    ty = decl.body
                case S.TLam() if stack:
                    # one step per λ, one `subst` for all consecutive ones
                    vals = []
                    while type(ty) is S.TLam and stack:
                        self.steps += 1
                        vals.append(stack.pop()[1])
                        ty = ty.body
                    ty = subst(ty, 0, *vals)
                case _:
                    break
        for app, a in reversed(stack):
            ty = app(ty, a)
        return ty

    def type_nf(self, node, depth: int = 0):
        """Normalize the structure of a type or kind fully; embedded terms
        are left untouched. (`depth` lets `rebuild` call this directly.)"""
        if S.is_term(node):
            return node
        if S.is_type(node):
            node = self.type_whnf(node)
        return rebuild(node, self.type_nf, depth)

    # --- conversion of types and kinds -------------------------------------

    def type_conv(self, t1, t2) -> bool:
        """Convertibility of two types or two kinds: weak-head normal
        forms agree node by node, and embedded terms by erasure."""
        if t1 == t2:
            return True
        sort = S.sort_of(t1)
        if sort != S.sort_of(t2):
            return False
        if sort == "term":
            return self.conv_terms(t1, t2)
        if sort == "type":
            t1, t2 = self.type_whnf(t1), self.type_whnf(t2)
        if type(t1) is not type(t2):
            return False
        subs1, subs2 = subtrees(t1, 0), subtrees(t2, 0)
        if not subs1:
            return t1 == t2
        return all(self.type_conv(a, b)
                   for (a, _), (b, _) in zip(subs1, subs2))

    # --- kinding ------------------------------------------------------------

    def classifier_of(self, ctx: Context, idx: int, var):
        """The unshifted classifier at `idx` of a `var` (`Var` or `TVar`)."""
        if idx >= len(ctx):
            raise CheckError("scope", f"variable index {idx} out of context")
        is_sort, wrong = _FLAVORS[var]
        if not is_sort(cls := ctx[len(ctx) - 1 - idx].classifier):
            raise CheckError("kind", wrong)
        return cls

    def classifier_wf(self, ctx: Context, c) -> None:
        """A binder's classifier is a well-formed kind or a ★-kinded type."""
        if not S.is_kind(c):
            self.ensure_star(ctx, c)
        elif not isinstance(c, S.Star):
            self.classifier_wf(ctx, c.dom)
            self.classifier_wf(ctx + [CtxEntry(c.name, c.dom)], c.body)

    def ensure_star(self, ctx: Context, ty: S.Type) -> None:
        k = self.kind_check(ctx, ty)
        if not isinstance(k, S.Star):
            raise CheckError("kind", f"expected a ★-kinded type, got kind "
                                     f"{print_classifier(k)}")

    def kind_check(self, ctx: Context, ty: S.Type) -> S.Kind:
        match ty:
            case S.TVar(idx):
                return shift(self.classifier_of(ctx, idx, S.TVar), idx + 1)
            case S.TRef(name):
                decl = self.sig.lookup(name)
                if decl is None or decl.level != "type":
                    raise CheckError("scope", f"{name} is not a type")
                return decl.classifier
            case S.All(n, dom, body):
                self.classifier_wf(ctx, dom)
                self.ensure_star(ctx + [CtxEntry(n, dom)], body)
                return S.Star()
            case S.Pi(n, dom, body):
                self.ensure_star(ctx, dom)
                self.ensure_star(ctx + [CtxEntry(n, dom)], body)
                return S.Star()
            case S.Iota(n, left, right):
                self.ensure_star(ctx, left)
                self.ensure_star(ctx + [CtxEntry(n, left)], right)
                return S.Star()
            case S.TLam(n, dom, body):
                self.classifier_wf(ctx, dom)
                inner = self.kind_check(ctx + [CtxEntry(n, dom)], body)
                return (S.KPiK if S.is_kind(dom) else S.KPi)(n, dom, inner)
            case S.AppT(f, a):
                kf = self.kind_check(ctx, f)
                if not isinstance(kf, S.KPiK):
                    raise CheckError("kind", "type applied to a type argument "
                                             "but its kind is not Π over a kind")
                ka = self.kind_check(ctx, a)
                if not self.type_conv(ka, kf.dom):
                    raise CheckError("kind", "type argument has the wrong kind")
                return subst(kf.body, 0, a)
            case S.AppTm(f, a):
                kf = self.kind_check(ctx, f)
                if not isinstance(kf, S.KPi):
                    raise CheckError("kind", "type applied to a term argument "
                                             "but its kind is not term-indexed")
                self.check(ctx, a, kf.dom)
                return subst(kf.body, 0, a)
            case S.Eq(lhs, rhs):
                # operands stay untyped: only free variables' flavors count,
                # and that no Λ-bound variable survives erasure
                todo = [(lhs, 0), (rhs, 0)]
                while todo:
                    n, d = todo.pop()
                    if type(n) in _FLAVORS and n.idx >= d:
                        self.classifier_of(ctx, n.idx - d, type(n))
                    elif type(n) is S.ILam:
                        _implicit_binder_erased(n)
                    todo += subtrees(n, d)
                return S.Star()
        raise TypeError(ty)

    # --- terms ----------------------------------------------------------------

    def check(self, ctx: Context, t: S.Term, ty: S.Type) -> None:
        """Check `t` against `ty`. An elimination form's type is inferred
        once and compared with `ty` as written; `ty` is weak-head
        normalized only when the two differ."""
        inferred = None
        if isinstance(t, _ELIMINATIONS):
            inferred = self.infer(ctx, t)
            if inferred == ty:
                return
        self._check_whnf(ctx, t, self.type_whnf(ty), inferred)

    def _check_whnf(self, ctx: Context, t: S.Term, w: S.Type,
                    inferred: Union[S.Type, CheckError, None]) -> None:
        """Check `t` against the weak-head normal `w`. `inferred` is what
        inferring `t` gave (its type or its error), or None if not yet
        inferred."""
        match (t, w):
            case (S.Lam(n, ann, body), S.Pi(_, dom, cod)):
                if ann is not None and not self.type_conv(ann, dom):
                    raise CheckError(
                        "conversion",
                        f"λ binder annotation does not convert to the "
                        f"expected domain {print_classifier(dom)}")
                self.check(ctx + [CtxEntry(n, dom)], body, cod)
                return
            case (S.ILam(n, body), S.All(_, dom, cod)):
                _implicit_binder_erased(t)
                self.check(ctx + [CtxEntry(n, dom)], body, cod)
                return
            case (S.Pair(l, r), S.Iota(_, t1, t2)):
                self.check(ctx, l, t1)
                self.check(ctx, r, subst(t2, 0, l))
                if not self.conv_pure(erase(l), erase(r)):
                    raise CheckError("erasure-mismatch", self._sides(
                        "intersection components have different erasures",
                        l, r))
                return
            case (S.Beta(_), S.Eq(l, r)):
                if not self.conv_terms(l, r):
                    raise CheckError("beta-nonconv", self._sides(
                        "β requires convertible equands", l, r))
                return
            case (S.Rho(_, _, _), _):
                self._check_rho(ctx, t, w)
                return
            case (S.Symm(q), S.Eq(l, r)):
                qt = self.type_whnf(self.infer(ctx, q))
                if not isinstance(qt, S.Eq):
                    raise CheckError("symmetry", "ς applied to a non-equality proof")
                if not (self.conv_terms(l, qt.rhs)
                        and self.conv_terms(r, qt.lhs)):
                    raise CheckError("conversion",
                                     "ς proof does not match the goal "
                                     "with sides swapped")
                return
        if inferred is None:
            try:
                inferred = self.infer(ctx, t)
            except CheckError as e:
                inferred = e
        if not isinstance(inferred, CheckError) \
                and self.type_conv(inferred, w):
            return
        if isinstance(w, S.All) and not occurs_index(w.body, 0):
            # non-dependent ∀ (the ➾ form) accepts the body directly
            self._check_whnf(ctx, t, self.type_whnf(shift(w.body, -1)),
                             inferred)
            return
        if type(t) is S.Lam and t.ann is None:
            inferred = None     # no type to infer; `w` is not a Π
        elif isinstance(inferred, CheckError):
            raise inferred
        self._conversion_failure(ctx, inferred, w)

    def _sides(self, what: str, l: S.Term, r: S.Term):
        """The message `what: l vs r`, erased and normalized once shown."""
        return lambda: (f"{what}: {print_pure(self._nf(erase(l)))} vs "
                        f"{print_pure(self._nf(erase(r)))}")

    def _conversion_failure(self, ctx: Context,
                            inferred: Optional[S.Type], expected: S.Type):
        """Raise the mismatch of `inferred` (None: an unannotated λ) with
        `expected`, printed with the names of `ctx` once shown."""
        def message() -> str:
            names: list[str] = []     # innermost first; shadowed ones primed
            for entry in reversed(ctx):
                name = entry.name or "_"
                while name in names:
                    name += "'"
                names.append(name)
            names.reverse()

            def show(ty) -> str:
                return print_classifier(self.type_nf(ty), False, names)
            got = ("inferred: " + show(inferred) if inferred is not None
                   else "a λ abstraction needs a Π type")
            return f"type mismatch:\n  {got}\n  expected: {show(expected)}"
        raise CheckError("conversion", message)

    def infer(self, ctx: Context, t: S.Term) -> S.Type:
        """The type of `t`, memoized by the identities of `t` and `ctx` (kept
        alive); a hit charges its steps and appends its warnings again."""
        seen = self._inferred.get((id(t), id(ctx)))
        if seen is not None:
            self.steps += seen[3]
            self.warnings += seen[4]
            return seen[2]
        steps, n_warnings = self.steps, len(self.warnings)
        match t:
            case S.Var(idx):
                ty = shift(self.classifier_of(ctx, idx, S.Var), idx + 1)
            case S.Ref(name):
                decl = self.sig.lookup(name)
                if decl is None or decl.level != "term":
                    raise CheckError("scope", f"{name} is not a term")
                ty = decl.classifier
            case S.App(_, _) | S.EApp(_, _) | S.TApp(_, _):
                ty = self._infer_spine(ctx, t)
            case S.Proj(sub, which):
                st = self.type_whnf(self.infer(ctx, sub))
                if not isinstance(st, S.Iota):
                    raise CheckError("projection",
                                     "projection from a non-intersection")
                ty = st.left if which == 1 \
                    else subst(st.right, 0, S.Proj(sub, 1))
            case S.Lam(n, ann, body) if ann is not None:
                self.ensure_star(ctx, ann)
                ty = S.Pi(n, ann, self.infer(ctx + [CtxEntry(n, ann)], body))
            case S.Lam():
                raise CheckError("cannot-infer", "unannotated λ binders are "
                                 "only permitted in checking mode")
            case S.Symm(q):
                qt = self.type_whnf(self.infer(ctx, q))
                if not isinstance(qt, S.Eq):
                    raise CheckError("symmetry", "ς applied to a non-equality proof")
                ty = S.Eq(qt.rhs, qt.lhs)
            case _:
                raise CheckError("cannot-infer",
                                 f"cannot synthesize a type for this "
                                 f"{type(t).__name__} term")
        self._inferred[id(t), id(ctx)] = (
            t, ctx, ty, self.steps - steps, self.warnings[n_warnings:])
        return ty

    def _infer_spine(self, ctx: Context, t: S.Term) -> S.Type:
        """The type of an application spine `h a1 ... an`. The head is
        inferred once; each argument peels one binder off its type, and the
        consumed arguments stay pending until a domain, a non-binder or the
        final codomain needs them, which one `subst` then instantiates."""
        apps = []
        while isinstance(t, _SPINE):
            apps.append(t)
            t = t.fn
        ty = self.infer(ctx, t)
        pending: list = []      # the arguments of the binders peeled from ty
        peeled: list = []       # (binder body, argument) for every argument

        def inst(node):
            return subst(node, 0, *pending) if pending else node

        try:
            for app in reversed(apps):
                if not isinstance(ty, (S.Pi, S.All)):
                    ty = self.type_whnf(inst(ty))
                    pending.clear()
                binder, dom_sort = _TAKES[type(app)]
                if type(ty) is not binder or (
                        dom_sort and S.sort_of(ty.dom) != dom_sort):
                    got = type(ty) if isinstance(ty, (S.Pi, S.All)) else None
                    raise CheckError("application",
                                     _MISAPPLIED[type(app), got])
                if type(app) is S.TApp:
                    a = app.ty
                    if not self.type_conv(self.kind_check(ctx, a),
                                          inst(ty.dom)):
                        raise CheckError("kind",
                                         "type argument has the wrong kind")
                else:
                    a = app.arg
                    self.check(ctx, a, inst(ty.dom))
                pending.append(a)
                peeled.append((ty.body, a))
                ty = ty.body
            return inst(ty)
        except KernelError:
            # Instantiating after each argument would have met a sort clash
            # of an earlier argument before this error: that one is raised.
            for body, a in peeled:
                subst(body, 0, a)
            raise

    # --- the ρ rule -------------------------------------------------------

    def _check_rho(self, ctx: Context, t: S.Rho, w: S.Type) -> None:
        qt = self.type_whnf(self.infer(ctx, t.proof))
        if not isinstance(qt, S.Eq):
            raise CheckError("rho", "ρ proof is not an equality")
        goal = self.type_nf(w)
        if t.normalize_first:
            goal = self._norm_term_positions(goal)
        lhs_nf = self._nf(erase(qt.lhs))
        goal, count = self._rewrite(goal, erase(qt.lhs), lhs_nf, qt.rhs, 0)
        if count == 0:
            self.warnings.append("ρ rewrote no occurrences of the equation's "
                                 "left side")
        self.check(ctx, t.body, goal)

    def _norm_term_positions(self, node, depth: int = 0):
        """βδ-normalize every embedded term of an already type-normal type."""
        if S.is_kind(node):
            return node
        if S.is_term(node):
            return embed(self._nf(erase(node)))
        return rebuild(node, self._norm_term_positions, depth)

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
        mask = free_mask(lhs_nf)
        lhs_at: dict[int, tuple] = {}     # lhs, lhs_nf, its mask under d

        def go(n, d):
            nonlocal count
            if S.is_kind(n) or mask << d & ~free_mask(n):
                return n
            if S.is_term(n):
                at_d = lhs_at.get(d)
                if at_d is None:
                    at_d = lhs_at[d] = (shift(lhs, d), shift(lhs_nf, d),
                                        mask << d)
                if self._matches(n, *at_d):
                    count += 1
                    return shift(rhs, d)
            return rebuild(n, go, d)
        return go(node, depth), count

    def _matches(self, t: S.Term, lhs: PureTerm, lhs_nf: PureTerm,
                 lhs_mask: int) -> bool:
        te = erase(t)
        if alpha_eq(te, lhs):
            return True
        # β and η never add a free variable, and δ unfolds only checked
        # definitions, whose normal forms are closed (a rejected one stays a
        # neutral head). So `te` can normalize to `lhs_nf` only if every
        # variable free in `lhs_nf` (the bits of `lhs_mask`) is free in `te`.
        if lhs_mask & ~free_mask(te):
            return False
        return alpha_eq(self._nf(te), lhs_nf)


# ---------------------------------------------------------------------------
# Whole-signature checking

def _check_decl(checker: Checker, decl: Decl) -> None:
    if decl.level == "type":
        checker.classifier_wf([], decl.classifier)
        k = checker.kind_check([], decl.body)
        if not checker.type_conv(k, decl.classifier):
            raise CheckError(
                "kind",
                f"body kinds to {print_classifier(k)}, not the ascribed "
                f"{print_classifier(decl.classifier)}")
    else:
        checker.ensure_star([], decl.classifier)
        checker.check([], decl.body, decl.classifier)


def _eval_assertion(sig: Signature, fuel: Fuel, assertion: S.Assertion,
                    statuses: dict) -> AssertionOutcome:
    desc = assertion.describe()
    involved = [assertion.target] + ([assertion.other] if assertion.other
                                     else [])
    bad = [n for n in involved if statuses.get(n) != "ok"]
    if bad:
        return AssertionOutcome(desc, False, statuses.get(
            bad[0], f"declaration {bad[0]} did not check"))

    nfs = sig._def_nfs      # holds the normal form of every ok term definition

    try:
        if assertion.kind == "identity":
            ok = is_identity(nfs[assertion.target], sig, fuel)
            return AssertionOutcome(desc, ok,
                                    "" if ok else "erasure is not the "
                                                  "identity function")
        if assertion.kind == "not-identity":
            ident = is_identity(nfs[assertion.target], sig, fuel)
            return AssertionOutcome(desc, not ident,
                                    "" if not ident else "erasure IS the "
                                                         "identity function")
        if assertion.kind == "erases-to":
            target = nfs[assertion.target]
            ok = conv(target, erase(assertion.payload), sig, fuel)
            return AssertionOutcome(desc, ok,
                                    normal_form=None if ok else target)
        if assertion.kind == "erase-equal":
            ok = conv(nfs[assertion.target], nfs[assertion.other], sig,
                      fuel)
            return AssertionOutcome(desc, ok,
                                    "" if ok else "erasures are not "
                                                  "convertible")
    except FuelExhausted as e:
        return AssertionOutcome(desc, False, str(e))
    except RecursionError:
        return AssertionOutcome(desc, False, "depth exhausted")
    raise ValueError(assertion.kind)


def check_signature(sig: Signature, fuel: Fuel = Fuel()) -> CheckReport:
    """Check declarations in order, then evaluate attached assertions.

    A failing declaration is still recorded in the signature (later
    declarations trust its ascription, and a type-level one is never
    unfolded) and checking continues. Running into Python's recursion
    limit fails only the declaration at hand ("depth exhausted").
    """
    report = CheckReport()
    statuses: dict[str, str] = {}   # "ok", or why the normal form failed
    for decl in sig.decls:
        checker = Checker(sig, fuel)
        error: Optional[KernelError] = None
        try:
            try:
                _check_decl(checker, decl)
            except KernelError as e:
                error = e
                if not decl.expect_fail:
                    str(e)      # build a deferred message here, under the guard
        except RecursionError:
            error = KernelError("depth exhausted")
        row = DeclReport(decl.name, decl.level, "ok", decl.classifier,
                         steps_used=checker.steps, warnings=checker.warnings)
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
        elif error is not None:
            row.status = "type error"
            row.error = str(error)
            sig.rejected.add(decl.name)
        else:
            if decl.level == "term":
                # ok only once its normal form is stored; one that cannot
                # be computed makes the definition rejected, so no later
                # use pays for it again
                try:
                    nf = normalize(erase(decl.body), sig, fuel)
                    sig._def_nfs.setdefault(decl.name, nf.term)
                    row.normal_form = nf.term
                    row.steps_used += nf.steps_used
                except FuelExhausted as e:
                    row.error = str(e)
                except RecursionError:
                    row.error = "depth exhausted"
            if row.error is None:
                statuses[decl.name] = "ok"
            else:   # its assertions repeat the error
                statuses[decl.name] = row.error
                row.status = "type error"
                sig.rejected.add(decl.name)
        report.decls.append(row)
    for decl, row in zip(sig.decls, report.decls):
        for assertion in decl.assertions:
            outcome = _eval_assertion(sig, fuel, assertion, statuses)
            row.assertions.append(outcome)
            if not outcome.ok and row.status == "ok":
                row.status = "assertion failure"
    return report
