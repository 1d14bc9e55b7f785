import sys

import pytest

from cedlite import syntax as S
from cedlite.parser import (ParseError, ResolveError, parse_signature,
                            parse_term, parse_type, tokenize)
from cedlite.printer import print_decl


def test_identity_declaration_shape():
    sig = parse_signature("id ◂ ∀ A : ★ . A ➔ A = Λ A . λ x . x .")
    d = sig.lookup("id")
    assert d.level == "term"
    assert d.body == S.ILam("A", S.Lam("x", None, S.Var(0)))
    assert d.classifier == S.All("A", S.Star(),
                                 S.Pi("", S.TVar(0), S.TVar(1)))
    # an inner binder shadows an outer one of the same name, a name looks
    # past the anonymous binders of ➔, and `_` is a name like any other
    sig = parse_signature("k ◂ ∀ A : ★ . A ➔ A ➔ A = Λ A . λ x . λ x . x .\n"
                          "u ◂ ∀ _ : ★ . _ ➔ _ = Λ _ . λ _ . _ .")
    d = sig.lookup("k")
    assert d.body == S.ILam("A", S.Lam("x", None, S.Lam("x", None, S.Var(0))))
    assert d.classifier == S.All("A", S.Star(), S.Pi(
        "", S.TVar(0), S.Pi("", S.TVar(1), S.TVar(2))))
    d = sig.lookup("u")
    assert d.body == S.ILam("_", S.Lam("_", None, S.Var(0)))
    assert d.classifier == S.All("_", S.Star(),
                                 S.Pi("", S.TVar(0), S.TVar(1)))
    assert parse_term("λ x . λ y . λ x . y x").body.body.body == \
        S.App(S.Var(1), S.Var(0))
    assert parse_term("λ x . λ y . (λ x . y) x").body.body == \
        S.App(S.Lam("x", None, S.Var(1)), S.Var(1))
    with pytest.raises(ResolveError, match="unbound identifier y"):
        parse_signature("f ◂ ∀ A : ★ . A ➔ A = Λ A . λ x . (λ y . y) y .")


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
    kinds = [kind for kind, _, _ in tokenize("v2l-v2l xs -ys")]
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


def test_an_equation_operand_right_of_the_sign_may_be_any_term():
    # the paper's spelling of the identity type, `{f ≃ λ x . x}`
    from cedlite.typecheck import check_signature
    text = ("Id ◂ ★ ➔ ★ ➔ ★ = λ A : ★ . λ B : ★ . "
            "ι f : A ➔ B . {f ≃ λ x . x} .\n"
            "elimId ◂ ∀ A : ★ . ∀ B : ★ . Id · A · B ➔ A ➔ B\n"
            "  = Λ A . Λ B . λ c . c.1 .\n"
            "#assert-id elimId\n"
            "idId ◂ ∀ A : ★ . Id · A · A = Λ A . [λ x . x, β] .\n")
    sig = parse_signature(text)
    identity = S.Eq(S.Var(0), S.Lam("x", None, S.Var(0)))
    assert sig.lookup("Id").body.body.body.body == identity
    assert check_signature(sig).ok
    printed = print_decl(sig.lookup("Id"))
    assert printed.endswith(". f ≃ (λ x . x) .")
    assert parse_signature(printed).lookup("Id").body == sig.lookup("Id").body


def test_an_equation_operand_left_of_the_sign_may_be_any_term():
    # the mirror of the paper's spelling, `{λ x . x ≃ f}`: a λ, Λ, ρ or ς
    # on the left ends at the ≃ and reads as if parenthesized
    from cedlite.typecheck import check_signature

    def identity_type(equation):
        return parse_signature("Id ◂ ★ ➔ ★ ➔ ★ = λ A : ★ . λ B : ★ . "
                               f"ι f : A ➔ B . {equation} .")
    sig = identity_type("{λ x . x ≃ f}")
    mirrored = sig.lookup("Id")
    assert mirrored.body == identity_type("{(λ x . x) ≃ f}").lookup("Id").body
    assert mirrored.body.body.body.body == S.Eq(
        S.Lam("x", None, S.Var(0)), S.Var(0))
    assert check_signature(sig).ok
    printed = print_decl(mirrored)
    assert printed.endswith(". (λ x . x) ≃ f .")
    assert parse_signature(printed).lookup("Id").body == mirrored.body
    for left in ("Λ X . λ x . x", "ρ β - λ x . x", "ρ+ β - β", "ς β",
                 "λ x . λ y . y x"):
        assert parse_type(f"{{{left} ≃ β}}") == parse_type(f"{{({left}) ≃ β}}")


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


DEPTH = 10_000
LIMIT = sys.getrecursionlimit()


def spine(node, field: str) -> int:
    """How many times `field` nests, read without recursion."""
    depth = 0
    while hasattr(node, field):
        node, depth = getattr(node, field), depth + 1
    return depth


def test_ten_thousand_deep_nesting_reads_at_the_default_limit(corpus_sig):
    assert DEPTH > LIMIT
    sig = parse_signature(
        "n ◂ Nat = " + "suc (" * DEPTH + "zero" + ")" * DEPTH + " .\n"
        "T ◂ ★ = " + "(" * DEPTH + "Nat" + ")" * DEPTH + " .\n",
        sig=corpus_sig.staged())
    assert spine(sig.lookup("n").body, "arg") == DEPTH
    assert sig.lookup("T").body == S.TRef("Nat")
    decls = sig.decls
    body = parse_term("Λ X . λ z . λ s . " + "s (" * DEPTH + "z"
                      + ")" * DEPTH).body.body.body
    assert spine(body, "arg") == DEPTH and body.fn == S.Var(0)
    # as many binders, the body naming the outermost one
    sig = parse_signature(
        "f ◂ " + "".join(f"Π x{i} : Nat . " for i in range(DEPTH)) + "Nat = "
        + "".join(f"λ x{i} . " for i in range(DEPTH)) + "x0 .\n",
        sig=corpus_sig.staged())
    node = sig.lookup("f").body
    for _ in range(DEPTH):
        node = node.body
    assert node == S.Var(DEPTH - 1)
    # print -> parse -> print keeps the text; texts are compared, because
    # `==` on nodes this deep recurses in C
    for decl in [*decls, *sig.decls]:
        text = print_decl(decl)
        again = parse_signature(text + "\n", sig=corpus_sig.staged())
        assert print_decl(again.lookup(decl.name)) == text, decl.name
    assert sys.getrecursionlimit() == LIMIT
