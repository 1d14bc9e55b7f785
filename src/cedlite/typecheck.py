"""Bidirectional type and kind checking with erased conversion.

Definitional equality throughout is conversion of erasures; embedded
term positions in types are compared that way, equality-type operands
are required to be in scope but never themselves typed, and the ρ rule
rewrites every occurrence whose erasure converts with the equation's
left side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from . import syntax as S
from .erasure import PureTerm, embed, erase, free_in_erasure
from .normalize import Fuel, FuelExhausted, alpha_eq, normalize
from .printer import print_classifier, print_pure
from .syntax import (
    Decl, KernelError, Signature, occurs_index, rebuild, shift, subst,
    subtrees,
)


class CheckError(KernelError):
    """Declaration-level failure; `kind` names the error class."""

    def __init__(self, kind: str, msg: str):
        super().__init__(msg)
        self.kind = kind


@dataclass
class CtxEntry:
    name: str
    classifier: Union[S.Type, S.Kind]
    erased: bool = False


Context = list  # of CtxEntry, innermost binding last


@dataclass
class AssertionOutcome:
    description: str
    ok: bool
    detail: str = ""


@dataclass
class DeclReport:
    name: str
    level: str
    status: str                      # "ok" | "type error" | "assertion failure"
    classifier: Union[S.Type, S.Kind]
    erasure_nf: Optional[str] = None
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

    def find(self, name: str) -> Optional[DeclReport]:
        for d in self.decls:
            if d.name == name:
                return d
        return None


# Terms whose type is inferred, never built from the expected type.
_ELIMINATIONS = (S.App, S.EApp, S.TApp, S.Var, S.Ref, S.Proj)


class Checker:
    """Checks one declaration; accumulates reduction steps and warnings."""

    def __init__(self, sig: Signature, fuel: Fuel = Fuel()):
        self.sig = sig
        self.fuel = fuel
        self.steps = 0
        self.warnings: list[str] = []

    # --- conversion plumbing ---------------------------------------------

    def _nf(self, p: PureTerm) -> PureTerm:
        out = normalize(p, self.sig, self.fuel)
        self.steps += out.steps_used
        return out.term

    def conv_pure(self, p1: PureTerm, p2: PureTerm) -> bool:
        return alpha_eq(p1, p2) or alpha_eq(self._nf(p1), self._nf(p2))

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
                case S.TLam(_, _, body) if stack:
                    self.steps += 1
                    ty = subst(body, 0, stack.pop()[1])
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

    def classifier_of(self, ctx: Context, idx: int):
        if idx >= len(ctx):
            raise CheckError("scope", f"variable index {idx} out of context")
        entry = ctx[len(ctx) - 1 - idx]
        return shift(entry.classifier, idx + 1)

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
                cls = self.classifier_of(ctx, idx)
                if not S.is_kind(cls):
                    raise CheckError("kind", "term variable used as a type")
                return cls
            case S.TRef(name):
                decl = self.sig.lookup(name)
                if decl is None or decl.level != "type":
                    raise CheckError("scope", f"{name} is not a type")
                return decl.classifier
            case S.All(n, dom, body):
                self.classifier_wf(ctx, dom)
                self.ensure_star(ctx + [CtxEntry(n, dom, erased=True)], body)
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
            case S.Eq(_, _):
                # operands are scope-checked at resolution, never typed
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
                if free_in_erasure(0, body):
                    raise CheckError(
                        "implicit-free",
                        f"implicit binder {n} occurs in the erasure of its "
                        f"body")
                self.check(ctx + [CtxEntry(n, dom, erased=True)], body, cod)
                return
            case (S.Pair(l, r), S.Iota(_, t1, t2)):
                self.check(ctx, l, t1)
                self.check(ctx, r, subst(t2, 0, l))
                if not self.conv_pure(erase(l), erase(r)):
                    raise CheckError(
                        "erasure-mismatch",
                        "intersection components have different erasures: "
                        f"{print_pure(self._nf(erase(l)))} vs "
                        f"{print_pure(self._nf(erase(r)))}")
                return
            case (S.Beta(_), S.Eq(l, r)):
                if not self.conv_terms(l, r):
                    raise CheckError(
                        "beta-nonconv",
                        "β requires convertible equands: "
                        f"{print_pure(self._nf(erase(l)))} vs "
                        f"{print_pure(self._nf(erase(r)))}")
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
        if isinstance(inferred, CheckError):
            raise inferred
        self._conversion_failure(inferred, w)

    def _conversion_failure(self, inferred: S.Type, expected: S.Type):
        raise CheckError(
            "conversion",
            "type mismatch:\n"
            f"  inferred: {print_classifier(self.type_nf(inferred))}\n"
            f"  expected: {print_classifier(self.type_nf(expected))}")

    def infer(self, ctx: Context, t: S.Term) -> S.Type:
        match t:
            case S.Var(idx):
                cls = self.classifier_of(ctx, idx)
                if not S.is_type(cls):
                    raise CheckError("kind", "type variable used as a term")
                return cls
            case S.Ref(name):
                decl = self.sig.lookup(name)
                if decl is None or decl.level != "term":
                    raise CheckError("scope", f"{name} is not a term")
                return decl.classifier
            case S.App(f, a):
                ft = self.type_whnf(self.infer(ctx, f))
                match ft:
                    case S.Pi(_, dom, cod):
                        self.check(ctx, a, dom)
                        return subst(cod, 0, a)
                    case S.All(_, _, _):
                        raise CheckError(
                            "application",
                            "implicit function applied explicitly; "
                            "use -arg or · T")
                    case _:
                        raise CheckError("application",
                                         "explicit application of a "
                                         "non-function")
            case S.EApp(f, a):
                ft = self.type_whnf(self.infer(ctx, f))
                match ft:
                    case S.All(_, dom, cod) if S.is_type(dom):
                        self.check(ctx, a, dom)
                        return subst(cod, 0, a)
                    case S.All(_, _, _):
                        raise CheckError("application",
                                         "this implicit product expects a "
                                         "type argument (· T)")
                    case S.Pi(_, _, _):
                        raise CheckError("application",
                                         "erased application to an explicit "
                                         "function")
                    case _:
                        raise CheckError("application",
                                         "erased application of a "
                                         "non-function")
            case S.TApp(f, ty_arg):
                ft = self.type_whnf(self.infer(ctx, f))
                match ft:
                    case S.All(_, dom, cod) if S.is_kind(dom):
                        ka = self.kind_check(ctx, ty_arg)
                        if not self.type_conv(ka, dom):
                            raise CheckError("kind",
                                             "type argument has the wrong "
                                             "kind")
                        return subst(cod, 0, ty_arg)
                    case S.All(_, _, _):
                        raise CheckError("application",
                                         "this implicit product expects an "
                                         "erased term argument (-t)")
                    case S.Pi(_, _, _):
                        raise CheckError("application",
                                         "type application to an explicit "
                                         "function")
                    case _:
                        raise CheckError("application",
                                         "type application of a "
                                         "non-function")
            case S.Proj(sub, which):
                st = self.type_whnf(self.infer(ctx, sub))
                if not isinstance(st, S.Iota):
                    raise CheckError("projection",
                                     "projection from a non-intersection")
                if which == 1:
                    return st.left
                return subst(st.right, 0, S.Proj(sub, 1))
            case S.Lam(n, ann, body):
                if ann is None:
                    raise CheckError("cannot-infer",
                                     "unannotated λ binders are only "
                                     "permitted in checking mode")
                self.ensure_star(ctx, ann)
                body_ty = self.infer(ctx + [CtxEntry(n, ann)], body)
                return S.Pi(n, ann, body_ty)
            case S.Symm(q):
                qt = self.type_whnf(self.infer(ctx, q))
                if not isinstance(qt, S.Eq):
                    raise CheckError("symmetry", "ς applied to a non-equality proof")
                return S.Eq(qt.rhs, qt.lhs)
        raise CheckError("cannot-infer",
                         f"cannot synthesize a type for this "
                         f"{type(t).__name__} term")

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
        the result and the number of positions replaced."""
        count = 0
        lhs_at: dict[int, tuple] = {}     # lhs and lhs_nf under d binders

        def go(n, d):
            nonlocal count
            if S.is_kind(n):
                return n
            if S.is_term(n):
                pair = lhs_at.get(d)
                if pair is None:
                    pair = lhs_at[d] = (shift(lhs, d), shift(lhs_nf, d))
                if self._matches(n, *pair):
                    count += 1
                    return shift(rhs, d)
            return rebuild(n, go, d)
        return go(node, depth), count

    def _matches(self, t: S.Term, lhs: PureTerm, lhs_nf: PureTerm) -> bool:
        te = erase(t)
        return alpha_eq(te, lhs) or alpha_eq(self._nf(te), lhs_nf)


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
    from .normalize import conv, is_identity

    desc = assertion.describe()
    involved = [assertion.target] + ([assertion.other] if assertion.other
                                     else [])
    bad = [n for n in involved if statuses.get(n) != "ok"]
    if bad:
        return AssertionOutcome(desc, False,
                                f"declaration {bad[0]} did not check")
    target = sig.lookup(assertion.target)
    try:
        if assertion.kind == "identity":
            ok = is_identity(erase(target.body), sig, fuel)
            return AssertionOutcome(desc, ok,
                                    "" if ok else "erasure is not the "
                                                  "identity function")
        if assertion.kind == "not-identity":
            ident = is_identity(erase(target.body), sig, fuel)
            return AssertionOutcome(desc, not ident,
                                    "" if not ident else "erasure IS the "
                                                         "identity function")
        if assertion.kind == "erases-to":
            ok = conv(erase(target.body), erase(assertion.payload), sig, fuel)
            detail = "" if ok else \
                f"normal form is " \
                f"{print_pure(normalize(erase(target.body), sig, fuel).term)}"
            return AssertionOutcome(desc, ok, detail)
        if assertion.kind == "erase-equal":
            other = sig.lookup(assertion.other)
            ok = conv(erase(target.body), erase(other.body), sig, fuel)
            return AssertionOutcome(desc, ok,
                                    "" if ok else "erasures are not "
                                                  "convertible")
    except FuelExhausted as e:
        return AssertionOutcome(desc, False, str(e))
    except RecursionError:
        return AssertionOutcome(desc, False, "depth exhausted")
    raise ValueError(assertion.kind)


def check_signature(sig: Signature, fuel: Fuel = Fuel(),
                    ascii_only: bool = False) -> CheckReport:
    """Check declarations in order, then evaluate attached assertions.

    A failing declaration is still recorded in the signature (later
    declarations trust its ascription, and a type-level one is never
    unfolded) and checking continues. Running into Python's recursion
    limit fails only the declaration at hand ("depth exhausted").
    """
    report = CheckReport()
    statuses: dict[str, str] = {}
    rows: dict[int, DeclReport] = {}
    for i, decl in enumerate(sig.decls):
        checker = Checker(sig, fuel)
        row = DeclReport(decl.name, decl.level, "ok", decl.classifier)
        error: Optional[KernelError] = None
        try:
            _check_decl(checker, decl)
        except KernelError as e:
            error = e
        except RecursionError:
            error = KernelError("depth exhausted")
        row.steps_used = checker.steps
        row.warnings = checker.warnings
        if decl.expect_fail:
            if error is None:
                row.status = "assertion failure"
                row.assertions.append(AssertionOutcome(
                    f"fails {decl.name}", False,
                    "declaration checked but was expected to fail"))
            else:
                kind = getattr(error, "kind", "error")
                row.assertions.append(AssertionOutcome(
                    f"fails {decl.name}", True, f"failed as expected ({kind}: "
                                                f"{error})"))
        elif error is not None:
            row.status = "type error"
            row.error = str(error)
            sig.rejected.add(decl.name)
        else:
            statuses[decl.name] = "ok"
            if decl.level == "term":
                try:
                    nf = normalize(erase(decl.body), sig, fuel)
                    sig._def_nfs.setdefault(decl.name, nf.term)
                    row.erasure_nf = print_pure(nf.term, ascii_only)
                    row.steps_used += nf.steps_used
                except FuelExhausted as e:
                    row.status = "type error"
                    row.error = str(e)
                except RecursionError:
                    row.status = "type error"
                    row.error = "depth exhausted"
        rows[i] = row
        report.decls.append(row)
    for i, decl in enumerate(sig.decls):
        for assertion in decl.assertions:
            outcome = _eval_assertion(sig, fuel, assertion, statuses)
            rows[i].assertions.append(outcome)
            if not outcome.ok and rows[i].status == "ok":
                rows[i].status = "assertion failure"
    return report
