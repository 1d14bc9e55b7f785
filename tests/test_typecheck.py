import io
import sys
import threading
from importlib import resources
from pathlib import Path

import pytest

from cedlite import syntax as S
from cedlite.parser import parse_signature, parse_type
from cedlite.printer import print_classifier, print_pure
from cedlite.normalize import Fuel, conv
from cedlite.typecheck import CheckError, Checker, check_signature
from cedlite.values import evaluate, extend, size
from audits import audit_implicit_erasures, audit_intersections

ADVERSARIAL = Path(__file__).parent / "adversarial"

PRELUDE = (
    "Unit ◂ ★ = ∀ X : ★ . X ➔ X .\n"
    "unit ◂ Unit = Λ X . λ x . x .\n"
)


def check_text(text, base=None):
    """Parse on top of `base` (or the prelude) and check only the new decls."""
    if base is None:
        sig = parse_signature(PRELUDE)
    else:
        sig = base
    before = len(sig.decls)
    parse_signature(text, sig=sig)
    report = check_signature(sig)
    return report.decls[before:]


def value(node):
    """The classifier value of type or kind syntax of the empty context,
    as `Checker.type_conv` takes it."""
    return evaluate(node, 0)


def assert_ok(text, base=None):
    rows = check_text(text, base)
    for row in rows:
        assert row.ok, f"{row.name}: {row.error}"
    return rows


def assert_fails(text, kind, base=None):
    rows = check_text(text, base)
    bad = [r for r in rows if not r.ok]
    assert bad, "expected a failure"
    assert kind in bad[0].error or kind in str(bad[0].status), \
        f"wanted {kind}, got: {bad[0].error}"
    return bad[0]


# --- kinding ---------------------------------------------------------------

def test_kind_of_vecc_and_vecr(corpus_sig):
    checker = Checker(corpus_sig)
    assert print_classifier(corpus_sig.lookup("VecC").classifier) \
        == "★ ➔ Nat ➔ ★"
    got = checker.kind_check(0, S.TRef("VecC"))
    assert checker.type_conv(got, value(corpus_sig.lookup("VecC").classifier))
    want = parse_type("Π A : ★ . Π n : Nat . VecC · A n ➔ ★", corpus_sig)
    assert checker.type_conv(value(corpus_sig.lookup("VecR").classifier),
                             value(want))


def test_star_kinded_type_cannot_be_applied(corpus_sig):
    checker = Checker(corpus_sig)
    bad = parse_type("Nat zero", corpus_sig)
    with pytest.raises(CheckError) as exc:
        checker.kind_check(0, bad)
    assert exc.value.kind == "kind"


def test_equality_operands_need_scope_not_types():
    # zero applied to itself is ill-typed but well-scoped: still kinds to ★
    assert_ok("Z ◂ ★ = ∀ X : ★ . X ➔ X .\n"
              "z ◂ Z = Λ X . λ x . x .\n"
              "E ◂ ★ = z z z ≃ z .\n")


# --- checking and inference -------------------------------------------------

def test_simple_application_infers():
    assert_ok("app ◂ ∀ A : ★ . ∀ B : ★ . (A ➔ B) ➔ A ➔ B =\n"
              "  Λ A . Λ B . λ f . λ x . f x .")


def test_projections_infer_with_substitution(fresh_corpus):
    # xs.2 infers VecR · A n xs.1, convertible with the xs.1.1 spelling
    assert_ok("fst ◂ ∀ A : ★ . ∀ n : Nat . Π xs : Vec · A n . VecC · A n\n"
              "  = Λ A . Λ n . λ xs . xs.1.1 .\n"
              "snd ◂ ∀ A : ★ . ∀ n : Nat . Π xs : Vec · A n . "
              "VecR · A n xs.1.1\n"
              "  = Λ A . Λ n . λ xs . xs.2 .", base=fresh_corpus)


def test_type_level_beta_in_conversion():
    assert_ok("use ◂ Π f : ((λ _ : Unit . Unit) unit) ➔ Unit . Unit ➔ Unit\n"
              "  = λ f . λ x . f x .")


def test_vec_does_not_convert_to_list(fresh_corpus):
    row = assert_fails(
        "cast ◂ ∀ A : ★ . ∀ n : Nat . Vec · A n ➔ List · A\n"
        "  = Λ A . Λ n . λ xs . xs .", "type mismatch", base=fresh_corpus)
    assert "inferred" in row.error


def test_vecr_converts_to_listr(corpus_sig):
    # reflection statements for vectors and lists are definitionally equal
    from cedlite import syntax as SS
    c = Checker(corpus_sig)
    A, n, xsC = SS.TVar(2), SS.Var(1), SS.Var(0)
    vec_r = SS.AppTm(SS.AppTm(SS.AppT(SS.TRef("VecR"), A), n), xsC)
    list_r = SS.AppTm(SS.AppT(SS.TRef("ListR"), A), xsC)
    assert c.type_conv(value(vec_r), value(list_r))
    assert not c.type_conv(value(SS.AppTm(SS.AppT(SS.TRef("Vec"), A), n)),
                           value(SS.AppT(SS.TRef("List"), A)))


def test_type_nf_takes_and_gives_syntax(corpus_sig):
    c = Checker(corpus_sig)

    def type_nf(node):
        return c._quote(evaluate(node, 0), 0, True)
    vec = parse_type("Vec · Nat zero", corpus_sig)
    assert S.is_type(type_nf(vec))
    assert type_nf(vec) == type_nf(type_nf(vec))


def test_unannotated_lambda_cannot_synthesize():
    row = assert_fails("f ◂ Unit ➔ Unit = λ y . (λ x . x) y .",
                       "checking mode")
    assert row.status == "type error"


def test_erased_application_to_explicit_function_rejected():
    assert_fails("f ◂ Unit ➔ Unit = λ x . x .\n"
                 "g ◂ Unit = f -unit .", "erased application")


def test_explicit_application_of_implicit_function_rejected(fresh_corpus):
    assert_fails("g ◂ Nat ➔ Nat = λ x . suc zero x .",
                 "non-function", base=fresh_corpus)
    assert_fails("h ◂ Nat = elimNat zero zero .",
                 "implicit function applied explicitly", base=fresh_corpus)


def test_fat_arrow_accepts_unwrapped_body():
    # checking a non-Λ term against a non-dependent implicit product
    assert_ok("k ◂ (Unit ➔ Unit) ➾ Unit = unit .")


def test_implicit_generalization_rejected_when_dependent(fresh_corpus):
    assert_fails("k ◂ ∀ n : Nat . Vec · Nat n = zero .",
                 "", base=fresh_corpus)


# --- comparing folded types before unfolding them ----------------------------

NAT_TYPE = ("ι n : ι nC : ∀ X : ★ . X ➔ (X ➔ X) ➔ X . ∀ X : ★ . "
            "∀ P : X ➔ ★ . ∀ cZ : X . ∀ cS : X ➔ X . P cZ ➔ "
            "(∀ n : X . P n ➔ P (cS n)) ➔ P (nC · X cZ cS) . "
            "n.1 · NatC zeroCN sucCN ≃ n.1")
# the text of the mismatch error before checking compared folded types
SUC_NOT_NAT = ("type mismatch:\n"
               f"  inferred: ({NAT_TYPE}) ➔ ({NAT_TYPE})\n"
               f"  expected: {NAT_TYPE}")


def nat_sig():
    text = (resources.files("cedlite.corpus") / "nat.ced").read_text(
        encoding="utf-8")
    return parse_signature(text, filename="nat.ced")


def test_matching_folded_types_are_not_unfolded():
    checker = Checker(nat_sig())
    checker._check(0, S.Ref("zero"), value(S.TRef("Nat")))
    assert checker.meter.used == 0


def test_mismatch_reports_the_unfolded_types():
    with pytest.raises(CheckError) as exc:
        Checker(nat_sig())._check(0, S.Ref("suc"), value(S.TRef("Nat")))
    assert exc.value.kind == "conversion"
    assert str(exc.value) == SUC_NOT_NAT


def test_non_dependent_forall_checks_and_rejects_its_body():
    rows = check_text("k ◂ Nat ➾ Nat = zero .\n"
                      "bad ◂ ∀ n : Nat . Nat = suc .\n", base=nat_sig())
    assert rows[0].ok, rows[0].error
    assert rows[1].status == "type error"
    assert rows[1].error == SUC_NOT_NAT


def test_each_check_infers_its_term_at_most_once(monkeypatch, fresh_corpus):
    # counted per term for the outermost `_check` of that term, so the
    # non-dependent ∀ path, which checks the same term again, counts too
    open_checks: list[list] = []
    original_check, original_infer = Checker._check, Checker.infer

    def check(self, ctx, t, ty):
        open_checks.append([t, 0])
        try:
            original_check(self, ctx, t, ty)
        finally:
            _, n = open_checks.pop()
            assert n <= 1, f"{type(t).__name__} inferred {n} times"

    def infer(self, ctx, t):
        outer = next((f for f in open_checks if f[0] is t), None)
        if outer is not None:
            outer[1] += 1
        return original_infer(self, ctx, t)

    monkeypatch.setattr(Checker, "_check", check)
    monkeypatch.setattr(Checker, "infer", infer)
    rows = check_text("k ◂ Nat ➾ Nat = zero .\n"
                      "k2 ◂ Nat ➾ Nat ➾ Nat = zero .\n"
                      "f ◂ Nat ➾ Π x : Nat . Nat = λ x : Nat . x .\n"
                      "bad ◂ ∀ n : Nat . Nat = suc .\n", base=nat_sig())
    assert [r.ok for r in rows] == [True, True, True, False]
    check_signature(fresh_corpus)


# --- the three designated negatives ------------------------------------------

def test_intersection_erasure_mismatch_error_class():
    rows = check_text(
        "bad ◂ ι p : (∀ X : ★ . X ➔ X ➔ X) . ∀ X : ★ . X ➔ X ➔ X\n"
        "  = [ Λ X . λ a . λ b . a , Λ X . λ a . λ b . b ] .")
    assert not rows[0].ok
    assert "different erasures" in rows[0].error


def test_implicit_side_condition_error_class():
    rows = check_text("bad ◂ ∀ x : Unit . Unit = Λ x . x .")
    assert not rows[0].ok
    assert "occurs in the erasure" in rows[0].error


def test_beta_nonconvertible_error_class(fresh_corpus):
    rows = check_text("bad ◂ zero ≃ suc zero = β .", base=fresh_corpus)
    assert not rows[0].ok
    assert "convertible equands" in rows[0].error


def test_error_kinds_are_machine_distinguishable(corpus_sig):
    checker = Checker(corpus_sig)
    cases = [
        ("ι p : (∀ X : ★ . X ➔ X ➔ X) . ∀ X : ★ . X ➔ X ➔ X",
         "[ Λ X . λ a . λ b . a , Λ X . λ a . λ b . b ]",
         "erasure-mismatch"),
        ("∀ x : Nat . Nat", "Λ x . x", "implicit-free"),
        ("zero ≃ suc zero", "β", "beta-nonconv"),
    ]
    from cedlite.parser import parse_term
    for cls_text, body_text, kind in cases:
        cls = parse_type(cls_text, corpus_sig)
        body = parse_term(body_text, corpus_sig)
        with pytest.raises(CheckError) as exc:
            checker._check(0, body, value(cls))
        assert exc.value.kind == kind


def test_symmetry_checks_against_swapped_equality(fresh_corpus):
    # ς in checking mode: goal sides are the proof's sides exchanged
    assert_ok("swap ◂ Π q : zero ≃ suc zero . suc zero ≃ zero\n"
              "  = λ q . ς q .", base=fresh_corpus)
    assert_fails("noswap ◂ Π q : zero ≃ suc zero . zero ≃ suc zero\n"
                 "  = λ q . ς q .", "swapped", base=fresh_corpus)


@pytest.mark.parametrize("text, error", [
    # a type argument whose kind differs from the kind's domain
    ("F ◂ ★ ➔ ★ = λ X : ★ . X .\nG ◂ ★ = F · F .\n",
     "type argument has the wrong kind"),
    # a type applied to an argument its kind does not take
    ("G ◂ ★ = Nat · Nat .\n",
     "type applied to a type argument but its kind is not Π over a kind"),
    ("H ◂ ★ = Nat zero .\n",
     "type applied to a term argument but its kind is not term-indexed"),
    # ς inferred as ρ's proof, of a proof that is not an equation
    ("h ◂ {zero ≃ zero} = ρ (ς zero) - β .\n",
     "ς applied to a non-equality proof"),
])
def test_a_type_argument_and_a_symmetry_proof_are_checked(text, error):
    rows = check_text(text, base=nat_sig())
    assert (rows[-1].status, rows[-1].error) == ("type error", error)


def test_type_level_lambda_requires_annotation():
    from cedlite.parser import ResolveError, parse_signature
    with pytest.raises(ResolveError, match="annotated"):
        parse_signature("F ◂ ★ ➔ ★ = λ X . X .")


def test_fat_arrow_cannot_appear_in_kinds():
    from cedlite.parser import ResolveError, parse_signature
    with pytest.raises(ResolveError, match="kind"):
        parse_signature("F ◂ ★ ➾ ★ = λ X : ★ . X .")


# --- rho --------------------------------------------------------------------

def test_rho_zero_occurrences_warns_but_checks():
    rows = assert_ok("w ◂ ∀ A : ★ . Π x : A . Π q : x ≃ x . A\n"
                     "  = Λ A . λ x . λ q . ρ q - x .")
    assert any("no occurrences" in w for w in rows[0].warnings)


def test_rho_rewrite_round_trip(corpus_sig):
    # rewriting the rewritten goal back with the symmetric proof
    # leaves a goal the same body still checks against
    from cedlite.erasure import erase
    checker = Checker(corpus_sig)
    ctx = 0
    for name, cls in (("A", S.Star()), ("x", S.TVar(0)), ("y", S.TVar(1)),
                      ("q", S.Eq(S.Var(1), S.Var(0)))):     # q : x ≃ y
        ctx = extend(ctx, (name, evaluate(cls, size(ctx))))
    goal = S.Eq(S.Var(2), S.Var(2))               # x ≃ x
    body = S.Beta(S.Var(1))                       # β{y}
    lhs, rhs = S.Var(2), S.Var(1)                 # x, y
    fwd, n1 = checker._rewrite(goal, erase(lhs),
                               checker._nf(erase(lhs)), rhs, size(ctx), False)
    assert n1 == 2 and fwd == S.Eq(S.Var(1), S.Var(1))
    checker._check(ctx, body, evaluate(fwd, size(ctx)))
    back, n2 = checker._rewrite(fwd, erase(rhs),
                                checker._nf(erase(rhs)), lhs, size(ctx), False)
    assert n2 == 2
    checker._check(ctx, body, evaluate(back, size(ctx)))


def test_rho_plus_required_for_reduced_matches(fresh_corpus):
    # mkVec-style rewriting sees through definitions without ρ+
    assert_ok("mk ◂ ∀ A : ★ . ∀ n : Nat .\n"
              "  Π xs : (ι xsC : VecC · A n . VecP · A n xsC) .\n"
              "  VecR · A n xs.1 ➾ Vec · A n =\n"
              "  Λ A . Λ n . λ xs . Λ q . [ xs , ρ q - β{xs} ] .",
              base=fresh_corpus)


# --- signature-level behavior -------------------------------------------------

def test_empty_signature_checks():
    report = check_signature(parse_signature(""))
    assert report.ok and report.decls == []


def test_checking_continues_after_a_failure():
    rows = check_text("bad ◂ Unit = unit unit .\n"
                      "good ◂ Unit = unit .\n")
    assert not rows[0].ok
    assert rows[1].ok


def test_checker_reports_are_deterministic(corpus_sig):
    # a report's repr shows every field and every node's binder hints,
    # which node `==` ignores and the printed reports depend on
    r1 = check_signature(corpus_sig)
    r2 = check_signature(corpus_sig)
    assert [repr(d) for d in r1.decls] == [repr(d) for d in r2.decls]
    add = next(row for row in r1.decls if row.name == "add")
    assert "hint='" in repr(add.normal_form)


def test_audits_pass_on_corpus(corpus_sig):
    assert audit_implicit_erasures(corpus_sig) == []
    assert audit_intersections(corpus_sig) == []


def test_checked_definitions_keep_their_normal_form(fresh_corpus):
    # a later δ-unfold reuses the normal form the report already computed
    report = check_signature(fresh_corpus)
    for decl, row in zip(fresh_corpus.decls, report.decls):
        if decl.level == "term" and row.ok and not decl.expect_fail:
            assert decl.name in fresh_corpus._def_nfs, decl.name


def test_conv_pure_compares_deep_normal_forms_without_recursion():
    from cedlite.erasure import PApp
    from termgen import church
    # 2^16 and 4^8 share a normal form 65,536 applications deep
    checker = Checker(S.Signature())
    assert conv(PApp(church(16), church(2)), PApp(church(8), church(4)),
                checker.sig, checker.meter)


def test_subject_erasure_scan(corpus_sig):
    # erasures of checked bodies never mention erased binders: normalize
    # to closed pure terms without raising
    from cedlite.erasure import erase
    from cedlite.normalize import normalize
    for decl in corpus_sig.decls:
        if decl.level != "term" or decl.expect_fail:
            continue
        normalize(erase(decl.body), corpus_sig)


def test_fuel_exhaustion_reported_per_declaration():
    # c65k = sq c256 is well typed, and its normal form needs more than
    # 300 β/δ steps; every other declaration here needs fewer than 100
    from cedlite.normalize import Fuel
    text = (ADVERSARIAL / "church_65k.ced").read_text(encoding="utf-8")
    sig = parse_signature(text + "after ◂ NatC = two .\n")
    rows = check_signature(sig, Fuel(300)).decls
    assert [r.name for r in rows if not r.ok] == ["c65k"]
    assert "fuel exhausted" in rows[-2].error
    assert rows[-1].name == "after" and rows[-1].ok


# budgets 1-30, and those at which a check and the normal form that
# follows it once each had a budget of their own and together spent more
OVER_SPENT_BUDGETS = [*range(1, 31), 47, 48, 57, 58, 68, 69, 72, 73, 79, 80,
                      102, 103, 104, 113, 114, 157]


def test_an_accepted_row_spends_at_most_its_budget():
    # a declaration's check, the normalizations inside it and its normal
    # form spend one budget, so no row counts more steps than it: not an
    # accepted one, and not one that ran out (the step that overran is
    # not counted)
    from cedlite.corpus import load_corpus
    for budget in OVER_SPENT_BUDGETS:
        report = check_signature(load_corpus(), Fuel(budget))
        for row in report.decls:
            assert row.steps_used <= budget, (budget, row.name,
                                              row.steps_used)


# --- application spines --------------------------------------------------

SPINE_DEFS = (
    "f ◂ ∀ A : ★ . Π x : A . Π y : A . A = Λ A . λ x . λ y . x .\n"
    "g ◂ ∀ A : ★ . ∀ n : Nat . Π x : A . A = Λ A . Λ n . λ x . x .\n"
    "h ◂ ∀ A : ★ . ∀ B : ★ . Π x : A . A = Λ A . Λ B . λ x . x .\n"
    "k ◂ ∀ A : ★ . Π x : A . A = Λ A . λ x . x .\n"
    "p ◂ ∀ A : ★ . ∀ F : ★ ➔ ★ . Nat = Λ A . Λ F . zero .\n"
)


@pytest.mark.parametrize("body, message", [
    # the second argument
    ("Λ B . λ b . g · Nat zero",
     "implicit function applied explicitly; use -arg or · T"),
    ("Λ B . λ b . h · Nat -zero",
     "this implicit product expects a type argument (· T)"),
    ("Λ B . λ b . f · Nat -zero",
     "erased application to an explicit function"),
    ("Λ B . λ b . p · Nat · Nat", "type argument has the wrong kind"),
    ("Λ B . λ b . g · Nat · Nat",
     "this implicit product expects an erased term argument (-t)"),
    ("Λ B . λ b . f · Nat · Nat", "type application to an explicit function"),
    # the third argument
    ("Λ B . λ b . k · B b b", "explicit application of a non-function"),
    ("Λ B . λ b . k · B b -b", "erased application of a non-function"),
    ("Λ B . λ b . k · B b · B", "type application of a non-function"),
    ("Λ B . λ b . f · Nat zero suc", SUC_NOT_NAT),
])
def test_application_errors_deep_in_a_spine(body, message):
    rows = check_text(
        SPINE_DEFS + f"bad ◂ ∀ B : ★ . Π b : B . Nat = {body} .\n",
        base=nat_sig())
    assert all(r.ok for r in rows[:-1]), [r.error for r in rows]
    assert rows[-1].status == "type error"
    assert rows[-1].error == message


def test_spine_through_a_definition_of_a_function_type():
    # after `· Nat suc` the remaining type `Endo · A` is not a binder; it
    # is instantiated and weak-head normalized before `zero` is checked
    rows = check_text(
        "Endo ◂ ★ ➔ ★ = λ A : ★ . A ➔ A .\n"
        "twice ◂ ∀ A : ★ . Endo · A ➔ Endo · A = Λ A . λ f . λ x . f (f x) .\n"
        "two ◂ Nat = twice · Nat suc zero .\n"
        "bad ◂ Nat = twice · Nat suc suc .\n", base=nat_sig())
    assert [r.ok for r in rows] == [True, True, True, False]
    assert rows[3].error == SUC_NOT_NAT


@pytest.mark.parametrize("text, message", [
    # an equation naming a type variable is a kind error, so `E` is
    # rejected; the same type written as an ascription is trusted once
    # rejected, so the sort clash of `· Nat` surfaces when its codomain is
    # instantiated, before the ill-typed second argument is looked at
    ("E ◂ ★ = ∀ X : ★ . Π x : Nat . {X ≃ X} .\n"
     "bad ◂ ∀ X : ★ . Π x : Nat . {X ≃ X} = Λ X . λ x . β .\n"
     "use ◂ {zero ≃ zero} = bad · Nat (zero zero) .\n",
     "type substituted into term position"),
    # a rejected ascription is trusted as written
    ("bad ◂ Π x : Nat . Π y : Nat . x = λ x . λ y . x .\n"
     "use ◂ Nat = bad zero (zero zero) .\n",
     "term substituted into type position"),
])
def test_a_sort_clash_of_an_earlier_argument_is_raised_first(text, message):
    rows = check_text(text, base=nat_sig())
    assert rows[-1].error == message


def test_a_sort_clash_is_raised_where_the_argument_is_given():
    # the clash sits in the right component, which `.1` never looks at;
    # instantiating the binder reports it all the same
    rows = check_text(
        "bad ◂ Π x : Nat . ι z : Nat . x = λ x . [ x , x ] .\n"
        "use ◂ Nat = (bad zero).1 .\n", base=nat_sig())
    assert [r.error for r in rows] == ["term variable used as a type",
                                       "term substituted into type position"]


# --- mismatch messages are built only when shown -------------------------

def test_an_expected_mismatch_is_never_printed(monkeypatch):
    import cedlite.typecheck as tc
    printed = []

    def counting(node, *args):
        printed.append(node)
        return print_classifier(node, *args)

    monkeypatch.setattr(tc, "print_classifier", counting)
    rows = check_text("#assert-fail bad ◂ ∀ n : Nat . Nat = suc .\n",
                      base=nat_sig())
    assert rows[0].ok and rows[0].assertions[0].ok
    assert rows[0].assertions[0].detail == "failed as expected (conversion)"
    assert printed == []
    rows = check_text("bad ◂ ∀ n : Nat . Nat = suc .\n", base=nat_sig())
    assert rows[0].error == SUC_NOT_NAT
    assert len(printed) == 2


def test_a_mismatch_too_deep_to_print_is_depth_exhausted(monkeypatch):
    import cedlite.typecheck as tc

    def too_deep(node, *args):
        raise RecursionError

    monkeypatch.setattr(tc, "print_classifier", too_deep)
    rows = check_text("bad ◂ ∀ n : Nat . Nat = suc .\n"
                      "#assert-fail bad2 ◂ ∀ n : Nat . Nat = suc .\n",
                      base=nat_sig())
    assert rows[0].error == "depth exhausted"
    assert rows[1].ok and rows[1].assertions[0].ok


DEEP = 2_000    # nested arguments: past the default recursion limit


def numeral(name: str, n: int) -> str:
    return f"{name} ◂ Nat = " + "suc (" * n + "zero" + ")" * n + " .\n"


def test_a_retry_on_the_deep_stack_leaves_the_interpreter_as_it_was():
    assert 3 * DEEP > sys.getrecursionlimit()
    before = (sys.getrecursionlimit(), threading.stack_size(),
              threading.active_count())
    sig = parse_signature(numeral("n", DEEP), sig=nat_sig())
    assert check_signature(sig).decls[-1].ok
    assert (sys.getrecursionlimit(), threading.stack_size(),
            threading.active_count()) == before


def no_thread(thread):
    raise RuntimeError("can't start new thread")


def no_such_stack(size=0):
    if size:
        raise ValueError("size not valid")
    return 0


@pytest.mark.parametrize("where, name, no_room", [
    (threading.Thread, "start", no_thread),
    (threading, "stack_size", no_such_stack)], ids=["thread", "stack"])
def test_without_room_for_the_deep_stack_a_check_runs_again_in_place(
        monkeypatch, where, name, no_room):
    # as before the deep stack: only the declaration too deep fails
    sig = parse_signature(numeral("n", 200) + numeral("m", DEEP)
                          + "after ◂ Nat = zero .\n", sig=nat_sig())
    limit, size = sys.getrecursionlimit(), threading.stack_size()
    monkeypatch.setattr(where, name, no_room)
    rows = check_signature(sig).decls[-3:]
    assert [(d.name, d.error) for d in rows] == [
        ("n", None), ("m", "depth exhausted"), ("after", None)]
    assert (sys.getrecursionlimit(), threading.stack_size()) == (limit, size)
    monkeypatch.undo()      # and the next call starts over on a thread
    assert check_signature(sig).decls[-2].ok


def test_a_check_started_over_reports_what_the_deep_stack_reports(
        monkeypatch):
    # the middle declaration sends the whole check to the deep stack,
    # after the first attempt has stored normal forms and rejections
    text = ("a ◂ Nat = add (suc zero) zero .\n"
            "bad ◂ Nat = suc .\n"
            "#assert-fail worse ◂ Nat = suc .\n"
            + numeral("n", DEEP) +
            "b ◂ Nat = add a n .\n"
            "c ◂ Nat = suc bad .\n"
            "#assert-eq a b\n")
    retries, attempts = [], []
    retry_to_come = S.retry_to_come

    def counted():
        retries.append(retry_to_come())
        return retries[-1]
    monkeypatch.setattr(S, "retry_to_come", counted)
    started_over = check_signature(parse_signature(text, sig=nat_sig()))
    assert retries == [True]

    def on_the_deep_stack():
        attempts.append(None)
        if len(attempts) == 1:
            raise RecursionError    # as if too deep: run again there
        return check_signature(parse_signature(text, sig=nat_sig()))
    there = S.deep(on_the_deep_stack)()
    assert retries == [True] and len(attempts) == 2

    def rows(report):
        return [(d.name, d.status, d.error, d.steps_used, d.normal_form,
                 [(a.ok, a.detail) for a in d.assertions])
                for d in report.decls]
    assert rows(started_over) == rows(there)
    assert [r[1] for r in rows(there)[-6:]] == [
        "assertion failure", "type error", "ok", "ok", "ok", "ok"]


def test_deep_calls_from_eight_threads_take_turns():
    # each call sets the process's recursion limit and restores it after
    limit, errors = sys.getrecursionlimit(), []
    sigs = [parse_signature(numeral(name, 2 * DEEP), sig=nat_sig())
            for name in "nmkjabcd"]
    together = threading.Barrier(len(sigs))

    def check(sig) -> None:
        together.wait()
        errors.append(check_signature(sig).decls[-1].error)
    threads = [threading.Thread(target=check, args=(sig,)) for sig in sigs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == [None] * len(sigs)
    assert sys.getrecursionlimit() == limit


def test_a_mismatch_under_binders_prints_the_context_names():
    rows = check_text("bad ◂ ∀ X : ★ . Π f : X ➔ X . X ➔ X\n"
                      "  = Λ Y . λ f . λ x . f .\n")
    assert rows[0].error == ("type mismatch:\n"
                             "  inferred: Y ➔ Y\n"
                             "  expected: Y")


def test_a_shadowed_context_name_is_primed_in_a_mismatch():
    # f expects the outer X, x has the inner one
    rows = check_text("sh ◂ ∀ X : ★ . Π f : X ➔ X . ∀ X : ★ . X ➔ X\n"
                      "  = Λ X . λ f . Λ X . λ x . f x .\n")
    assert rows[0].error == ("type mismatch:\n"
                             "  inferred: X\n"
                             "  expected: X'")


def test_a_lambda_against_a_non_pi_type_is_a_mismatch():
    rows = check_text("bad2 ◂ ∀ X : ★ . X = Λ X . λ x . x .\n"
                      "bad3 ◂ ∀ X : ★ . X ➾ X = Λ X . λ x . x .\n"
                      "ok4 ◂ ∀ X : ★ . X ➾ X ➔ X = Λ X . λ x . x .\n")
    assert [r.error for r in rows[:2]] == [
        "type mismatch:\n  a λ abstraction needs a Π type\n  expected: X"] * 2
    assert rows[2].ok, rows[2].error


# --- assertions read the checked normal forms --------------------------------

def test_assertions_take_the_normal_form_from_the_signature(monkeypatch):
    import cedlite.typecheck as tc
    sig = parse_signature(
        PRELUDE + "c ◂ Unit ➔ Unit = λ u . unit · Unit u .\n"
                  "#assert-id c\n#assert-erase c = λ x . x .\n"
                  "#assert-eq c c\n")
    body = sig.lookup("c").body
    erased = []
    real_erase = tc.erase
    monkeypatch.setattr(tc, "erase",
                        lambda t: erased.append(t) or real_erase(t))
    row = check_signature(sig).decls[-1]
    assert [a.ok for a in row.assertions] == [True, True, True]
    # erased once, for the report's normal form; the assertions reuse it
    assert sum(t is body for t in erased) == 1


def test_an_assertion_on_a_fuel_exhausted_target_says_how_far():
    text = (ADVERSARIAL / "church_20_20.ced").read_text(encoding="utf-8")
    sig = parse_signature(text + "#assert-id big\n")
    row = check_signature(sig, Fuel(500)).decls[-2]
    assert row.name == "big"
    assert row.error == "fuel exhausted after 500 reduction steps"
    assert row.assertions[0].detail == row.error


# --- rejected definitions -------------------------------------------------

LEAK = ("leak ◂ ∀ A : ★ . ∀ a : A . A = Λ A . Λ a . a .\n"
        "use ◂ ∀ A : ★ . ∀ a : A . A = Λ A . Λ a . leak · A -a .\n")


def test_a_rejected_term_definition_is_not_unfolded():
    sig = parse_signature(LEAK)
    leak, use = check_signature(sig).decls
    assert leak.error == ("implicit binder a occurs in the erasure of its "
                          "body")
    assert use.ok and print_pure(use.normal_form) == "leak"
    assert use.steps_used == 0


def test_rho_skips_positions_lacking_a_free_variable_of_the_lhs(monkeypatch):
    # the closed `zero` cannot normalize to the open `PVar(0)`, so it is
    # not evaluated at all
    from cedlite import typecheck as tc
    from cedlite.erasure import PVar
    checker = Checker(nat_sig())
    monkeypatch.setattr(tc, "conv", lambda *a: pytest.fail("converted"))
    assert not checker._matches(S.Ref("zero"), PVar(0), PVar(0), 1)
    assert checker._matches(S.Var(0), PVar(0), PVar(0), 1)


def test_an_equation_operand_naming_a_type_variable_is_a_kind_error():
    rows = check_text(
        "E ◂ ★ = ∀ X : ★ . Π x : Nat . {X ≃ X} .\n"
        "e ◂ E = Λ X . λ x . β .\n"
        "use ◂ {zero ≃ zero} = e · Nat zero .\n", base=nat_sig())
    assert [r.status for r in rows] == ["type error"] * 3
    assert rows[0].error == "type variable used as a term"
    assert not any("substituted" in r.error for r in rows)


def test_an_equation_operand_naming_a_term_variable_as_a_type_is_a_kind_error():
    # `x · x`: the type argument `x` names the term variable bound by Π
    rows = check_text(
        "F ◂ ★ = Π x : Nat . {x · x ≃ x} .\n"
        "G ◂ ★ = ∀ X : ★ . Π x : Nat . {(λ y : X . y) ≃ x} .\n",
        base=nat_sig())
    assert rows[0].error == "term variable used as a type"
    assert rows[1].ok


def test_an_equation_operand_whose_lambda_bound_variable_survives_erasure():
    # `Λ a . a` erases to a free index: under `∀ X` it would name X, and
    # under `Π x` it would name x and let ρ rewrite it to `zero`
    rows = check_text(
        "u ◂ ★ = ∀ X : ★ . {(Λ a . a) ≃ (Λ b . b)} .\n"
        "t ◂ Π x : Nat . Π q : {x ≃ zero} . {(Λ b . Λ a . a) ≃ zero}\n"
        "  = λ x . λ q . ρ q - β .\n"
        "ok ◂ ★ = ∀ X : ★ . {(Λ a . λ x . x) ≃ (λ x . x)} .\n",
        base=nat_sig())
    assert [r.error for r in rows] == [
        "implicit binder b occurs in the erasure of its body",
        "implicit binder a occurs in the erasure of its body", None]


# --- the kernel decides, the command line renders ----------------------------

def test_checking_prints_nothing_for_accepted_term_definitions(monkeypatch):
    import cedlite.typecheck as tc

    def no_printing(*args, **kwargs):
        raise AssertionError("the kernel printed")

    text = ("idU ◂ Unit ➔ Unit = λ u . u .\n"
            "pair ◂ ∀ X : ★ . X ➔ X ➔ X = Λ X . λ a . λ b . b .\n"
            "app ◂ Unit = unit · Unit unit .\n")
    with monkeypatch.context() as patched:
        patched.setattr(tc, "print_pure", no_printing)
        patched.setattr(tc, "print_classifier", no_printing)
        rows = check_text(text)
    assert all(r.ok for r in rows)
    assert [print_pure(r.normal_form) for r in rows] == [
        "λ u . u", "λ a . λ b . b", "λ x . x"]


# --- one budget per declaration ----------------------------------------------

def fuel_sources():
    from cedlite.corpus import load_corpus
    from cedlite.parser import parse_files
    from perfbench import coercegen
    prelude = [str(resources.files("cedlite.corpus") / name)
               for name in coercegen.PRELUDE]
    yield load_corpus
    for seed in range(4):
        yield lambda seed=seed: parse_signature(
            coercegen.generate(seed).text, sig=parse_files(prelude))


def verdicts(make_sig, fuel):
    return [(r.name, r.status, r.steps_used, r.error,
             [(a.ok, a.detail) for a in r.assertions])
            for r in check_signature(make_sig(), Fuel(fuel)).decls]


def may_be_fuel(row) -> bool:
    """May this row's verdict come from running out of fuel? An expected
    failure shows only its error's kind, which is "error" for fuel."""
    texts = [row[3] or ""] + [detail for _, detail in row[4]]
    return any("fuel exhausted" in s or s.endswith("(error)") for s in texts)


def rendered(sig) -> str:
    from cedlite.cli import _render_report
    out = io.StringIO()
    _render_report(check_signature(sig), porcelain=False, ascii_only=False,
                   out=out)
    return out.getvalue()


def test_units_run_back_to_back_render_byte_identical_reports():
    # each run checks a fresh signature; nothing built or cached for one
    # may change the report of the next, `(fuel N)` included, and neither
    # may the definitions' normal forms memoized by a first check
    first = [rendered(make_sig()) for make_sig in fuel_sources()]
    sigs = [make_sig() for make_sig in fuel_sources()]
    second = [rendered(sig) for sig in sigs]
    warm = [rendered(sig) for sig in sigs]
    assert all("(fuel " in text for text in first)
    assert first == second == warm


@pytest.mark.parametrize("fuel", [100, 1_000, 100_000])
def test_a_verdict_that_does_not_run_out_of_fuel_holds_under_twice_as_much(
        fuel):
    for make_sig in fuel_sources():
        small, large = verdicts(make_sig, fuel), verdicts(make_sig, 2 * fuel)
        for a, b in zip(small, large):
            if may_be_fuel(a):
                break   # later declarations may depend on this one
            assert a == b
