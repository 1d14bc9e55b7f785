import pytest

from cedlite import syntax as S
from cedlite.parser import (ParseError, ResolveError, parse_signature,
                            parse_term, tokenize)
from cedlite.printer import print_decl


def test_identity_declaration_shape():
    sig = parse_signature("id ◂ ∀ A : ★ . A ➔ A = Λ A . λ x . x .")
    d = sig.lookup("id")
    assert d.level == "term"
    assert d.body == S.ILam("A", S.Lam("x", None, S.Var(0)))
    assert d.classifier == S.All("A", S.Star(),
                                 S.Pi("", S.TVar(0), S.TVar(1)))


def test_ascii_and_unicode_parse_identically():
    uni = "id ◂ ∀ A : ★ . A ➔ A = Λ A . λ x . x ."
    asc = "id <| forall A : * . A -> A = /\\ A . \\ x . x ."
    d1 = parse_signature(uni).lookup("id")
    d2 = parse_signature(asc).lookup("id")
    assert d1.classifier == d2.classifier
    assert d1.body == d2.body


def test_unbound_identifier_has_position():
    with pytest.raises(ResolveError) as exc:
        parse_signature("x ◂ ★ = y .")
    assert "unbound identifier y" in str(exc.value)
    assert exc.value.pos is not None
    assert exc.value.pos.line == 1


def test_duplicate_definition_rejected():
    text = "a ◂ ★ ➔ ★ = λ X : ★ . X .\na ◂ ★ ➔ ★ = λ X : ★ . X ."
    with pytest.raises(ResolveError, match="duplicate"):
        parse_signature(text)


def test_failed_parse_leaves_the_signature_as_it_was():
    sig = parse_signature("U ◂ ★ = ∀ X : ★ . X ➔ X .\n"
                          "u ◂ U = Λ X . λ x . x .\n")
    bad = ("c ◂ ★ = ∀ X : ★ . X ➔ X .\n"
           "#assert-id u\n"
           "#assert-fail\n"
           "f ◂ c = u .\n"
           "i ◂ c = Λ X . λ x . zz .\n")
    with pytest.raises(ResolveError, match="unbound identifier zz"):
        parse_signature(bad, sig=sig)
    assert [d.name for d in sig.decls] == ["U", "u"]
    assert "c" not in sig and sig.lookup("u").assertions == []
    parse_signature(bad.replace("zz", "x"), sig=sig)
    assert [d.name for d in sig.decls] == ["U", "u", "c", "f", "i"]
    assert len(sig.lookup("u").assertions) == 1


def test_forward_reference_rejected():
    with pytest.raises(ResolveError, match="unbound"):
        parse_signature("a ◂ later ➔ later = λ x . x .\nlater ◂ ★ = later .")


def test_lexical_error_position():
    with pytest.raises(ParseError) as exc:
        parse_signature("a ◂ ★ = %b .")
    assert "1:9" in str(exc.value)


def test_comments_are_skipped():
    sig = parse_signature(
        "-- a comment with λ ∀ tokens\n"
        "id ◂ ∀ A : ★ . A ➔ A = Λ A . λ x . x . -- trailing\n")
    assert "id" in sig


def test_rho_is_ternary_not_erased_application():
    t = parse_term("λ q . λ x . ρ q - x")
    body = t.body.body
    assert body == S.Rho(S.Var(1), S.Var(0), False)
    t2 = parse_term("λ q . λ x . ρ+ q - x")
    assert t2.body.body.normalize_first


def test_beta_brace_binds_tighter_than_application():
    t = parse_term("λ f . λ x . f β{x}")
    assert t.body.body == S.App(S.Var(1), S.Beta(S.Var(0)))


def test_tight_dash_is_erased_application_inside_rho_proof():
    t = parse_term("λ q . λ x . ρ q -x - x")
    assert t.body.body == S.Rho(S.EApp(S.Var(1), S.Var(0)), S.Var(0), False)


def test_dashed_identifiers_lex_as_one_token():
    kinds = [t.kind for t in tokenize("v2l-v2l xs -ys")]
    assert kinds == ["IDENT", "IDENT", "ERASED", "IDENT", "EOF"]


def test_projection_requires_tight_dot():
    t = parse_term("λ x . x.1.2")
    assert t.body == S.Proj(S.Proj(S.Var(0), 1), 2)


def test_braced_equality_type():
    sig = parse_signature(
        "c ◂ ★ = ∀ X : ★ . X ➔ X .\n"
        "i ◂ c = Λ X . λ x . x .\n"
        "q ◂ { i ≃ i } = β .\n")
    assert sig.lookup("q").classifier == S.Eq(S.Ref("i"), S.Ref("i"))


def test_bare_equality_in_classifier():
    sig = parse_signature(
        "c ◂ ★ = ∀ X : ★ . X ➔ X .\n"
        "i ◂ c = Λ X . λ x . x .\n"
        "q ◂ i ≃ i = β .\n")
    assert sig.lookup("q").classifier == S.Eq(S.Ref("i"), S.Ref("i"))


def test_directive_requires_known_name():
    with pytest.raises(ResolveError, match="unknown"):
        parse_signature("#assert-id nothing")


def test_assert_fail_decl_is_not_registered():
    sig = parse_signature(
        "c ◂ ★ = ∀ X : ★ . X ➔ X .\n"
        "#assert-fail bad ◂ c = λ x . x x .\n")
    assert sig.lookup("bad") is None
    assert any(d.expect_fail and d.name == "bad" for d in sig.decls)


def test_type_syntax_in_term_position_rejected():
    with pytest.raises(ResolveError, match="type syntax"):
        parse_signature("c ◂ ★ = ∀ X : ★ . X ➔ X .\n"
                        "b ◂ c = λ x . x ➔ x .")


def test_parser_raises_only_its_own_errors_on_noise():
    # random token soup must fail cleanly, never crash
    import random
    from cedlite.syntax import KernelError
    rng = random.Random(31337)
    pieces = ["λ", "Λ", "Π", "∀", "ι", "★", "➔", "➾", "≃", "·", "β", "ρ",
              "ρ+", "ς", "◂", "(", ")", "[", "]", "{", "}", ",", ":", "=",
              ".", "-", "-x", "x", "ys", "v2l-v2l", "β{x}", ".1", "#assert-id"]
    for _ in range(400):
        text = " ".join(rng.choice(pieces)
                        for _ in range(rng.randrange(1, 25)))
        try:
            parse_signature(text)
        except KernelError:
            pass


def test_print_parse_round_trip_corpus(corpus_sig):
    for ascii_only in (False, True):
        text = "\n".join(print_decl(d, ascii_only=ascii_only)
                         for d in corpus_sig.decls if not d.expect_fail)
        reparsed = parse_signature(text)
        for d in corpus_sig.decls:
            if d.expect_fail:
                continue
            d2 = reparsed.lookup(d.name)
            assert d2 is not None, d.name
            assert d2.classifier == d.classifier, d.name
            assert d2.body == d.body, d.name


def test_nilcv_listing_parses_to_expected_classifier(corpus_sig):
    d = corpus_sig.lookup("nilCV")
    assert d.classifier == S.All(
        "A", S.Star(),
        S.AppTm(S.AppT(S.TRef("VecC"), S.TVar(0)), S.Ref("zero")))
