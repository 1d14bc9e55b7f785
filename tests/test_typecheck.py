from importlib import resources
from pathlib import Path

import pytest

from cedlite import syntax as S
from cedlite.parser import parse_signature, parse_type
from cedlite.printer import print_classifier
from cedlite.typecheck import CheckError, Checker, CtxEntry, check_signature
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
    got = checker.kind_check([], S.TRef("VecC"))
    assert checker.type_conv(got, corpus_sig.lookup("VecC").classifier)
    want = parse_type("Π A : ★ . Π n : Nat . VecC · A n ➔ ★", corpus_sig)
    assert checker.type_conv(corpus_sig.lookup("VecR").classifier, want)


def test_star_kinded_type_cannot_be_applied(corpus_sig):
    checker = Checker(corpus_sig)
    bad = parse_type("Nat zero", corpus_sig)
    with pytest.raises(CheckError) as exc:
        checker.kind_check([], bad)
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


def test_projections_infer_with_substitution(corpus_sig):
    # xs.2 infers VecR · A n xs.1, convertible with the xs.1.1 spelling
    assert_ok("fst ◂ ∀ A : ★ . ∀ n : Nat . Π xs : Vec · A n . VecC · A n\n"
              "  = Λ A . Λ n . λ xs . xs.1.1 .\n"
              "snd ◂ ∀ A : ★ . ∀ n : Nat . Π xs : Vec · A n . "
              "VecR · A n xs.1.1\n"
              "  = Λ A . Λ n . λ xs . xs.2 .", base=corpus_sig)


def test_type_level_beta_in_conversion():
    assert_ok("use ◂ Π f : ((λ _ : Unit . Unit) unit) ➔ Unit . Unit ➔ Unit\n"
              "  = λ f . λ x . f x .")


def test_vec_does_not_convert_to_list(corpus_sig):
    row = assert_fails(
        "cast ◂ ∀ A : ★ . ∀ n : Nat . Vec · A n ➔ List · A\n"
        "  = Λ A . Λ n . λ xs . xs .", "type mismatch", base=corpus_sig)
    assert "inferred" in row.error


def test_vecr_converts_to_listr(corpus_sig):
    # reflection statements for vectors and lists are definitionally equal
    from cedlite import syntax as SS
    c = Checker(corpus_sig)
    A, n, xsC = SS.TVar(2), SS.Var(1), SS.Var(0)
    vec_r = SS.AppTm(SS.AppTm(SS.AppT(SS.TRef("VecR"), A), n), xsC)
    list_r = SS.AppTm(SS.AppT(SS.TRef("ListR"), A), xsC)
    assert c.type_conv(vec_r, list_r)
    assert not c.type_conv(SS.AppTm(SS.AppT(SS.TRef("Vec"), A), n),
                           SS.AppT(SS.TRef("List"), A))


def test_unannotated_lambda_cannot_synthesize():
    row = assert_fails("f ◂ Unit ➔ Unit = λ y . (λ x . x) y .",
                       "checking mode")
    assert row.status == "type error"


def test_erased_application_to_explicit_function_rejected():
    assert_fails("f ◂ Unit ➔ Unit = λ x . x .\n"
                 "g ◂ Unit = f -unit .", "erased application")


def test_explicit_application_of_implicit_function_rejected(corpus_sig):
    assert_fails("g ◂ Nat ➔ Nat = λ x . suc zero x .",
                 "non-function", base=corpus_sig)
    assert_fails("h ◂ Nat = elimNat zero zero .",
                 "implicit function applied explicitly", base=corpus_sig)


def test_fat_arrow_accepts_unwrapped_body():
    # checking a non-Λ term against a non-dependent implicit product
    assert_ok("k ◂ (Unit ➔ Unit) ➾ Unit = unit .")


def test_implicit_generalization_rejected_when_dependent(corpus_sig):
    assert_fails("k ◂ ∀ n : Nat . Vec · Nat n = zero .",
                 "", base=corpus_sig)


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
    checker.check([], S.Ref("zero"), S.TRef("Nat"))
    assert checker.steps == 0


def test_mismatch_reports_the_unfolded_types():
    with pytest.raises(CheckError) as exc:
        Checker(nat_sig()).check([], S.Ref("suc"), S.TRef("Nat"))
    assert exc.value.kind == "conversion"
    assert str(exc.value) == SUC_NOT_NAT


def test_non_dependent_forall_checks_and_rejects_its_body():
    rows = check_text("k ◂ Nat ➾ Nat = zero .\n"
                      "bad ◂ ∀ n : Nat . Nat = suc .\n", base=nat_sig())
    assert rows[0].ok, rows[0].error
    assert rows[1].status == "type error"
    assert rows[1].error == SUC_NOT_NAT


def test_each_check_infers_its_term_at_most_once(monkeypatch, fresh_corpus):
    # counted per term for the outermost `check` of that term, so the
    # non-dependent ∀ path, which checks the same term again, counts too
    open_checks: list[list] = []
    original_check, original_infer = Checker.check, Checker.infer

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

    monkeypatch.setattr(Checker, "check", check)
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


def test_beta_nonconvertible_error_class(corpus_sig):
    rows = check_text("bad ◂ zero ≃ suc zero = β .", base=corpus_sig)
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
            checker.check([], body, cls)
        assert exc.value.kind == kind


def test_symmetry_checks_against_swapped_equality(corpus_sig):
    # ς in checking mode: goal sides are the proof's sides exchanged
    assert_ok("swap ◂ Π q : zero ≃ suc zero . suc zero ≃ zero\n"
              "  = λ q . ς q .", base=corpus_sig)
    assert_fails("noswap ◂ Π q : zero ≃ suc zero . zero ≃ suc zero\n"
                 "  = λ q . ς q .", "swapped", base=corpus_sig)


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
    ctx = [
        CtxEntry("A", S.Star(), erased=True),
        CtxEntry("x", S.TVar(0)),
        CtxEntry("y", S.TVar(1)),
        CtxEntry("q", S.Eq(S.Var(1), S.Var(0))),  # x ≃ y
    ]
    goal = S.Eq(S.Var(2), S.Var(2))               # x ≃ x
    body = S.Beta(S.Var(1))                       # β{y}
    lhs, rhs = S.Var(2), S.Var(1)                 # x, y
    fwd, n1 = checker._rewrite(goal, erase(lhs),
                               checker._nf(erase(lhs)), rhs, 0)
    assert n1 == 2 and fwd == S.Eq(S.Var(1), S.Var(1))
    checker.check(ctx, body, fwd)
    back, n2 = checker._rewrite(fwd, erase(rhs),
                                checker._nf(erase(rhs)), lhs, 0)
    assert n2 == 2
    checker.check(ctx, body, back)


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
    import dataclasses
    r1 = check_signature(corpus_sig)
    r2 = check_signature(corpus_sig)
    assert [dataclasses.asdict(d) for d in r1.decls] == \
        [dataclasses.asdict(d) for d in r2.decls]


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
    assert checker.conv_pure(PApp(church(16), church(2)),
                             PApp(church(8), church(4)))


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
