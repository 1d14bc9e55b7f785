import random

from cedlite import syntax as S
from cedlite.erasure import embed, erase
from cedlite.parser import parse_term
from cedlite.printer import (print_classifier, print_erased, print_pure,
                             print_term)
from termgen import gen_pure


def test_identity_prints_verbatim():
    assert print_term(parse_term("λ x . x")) == "λ x . x"


def test_erased_view_of_church_nil(corpus_sig):
    body = corpus_sig.lookup("nilCV").body
    assert print_erased(body) == "λ cN . λ cC . cN"


def test_erased_view_of_church_cons(corpus_sig):
    body = corpus_sig.lookup("consCV").body
    assert print_erased(body) == "λ x . λ xs . λ cN . λ cC . cC x (xs cN cC)"


def test_application_grouping():
    t = parse_term("λ f . λ x . f (f x) x")
    assert print_term(t) == "λ f . λ x . f (f x) x"


def test_shadowed_binders_round_trip(fresh_corpus):
    # elimVec's classifier shadows n and xs inside the branch type;
    # printing must not let the inner binders capture outer references
    from cedlite.parser import parse_type
    from cedlite.printer import print_type
    original = fresh_corpus.lookup("elimVec").classifier
    reparsed = parse_type(print_type(original), fresh_corpus)
    assert reparsed == original


def test_a_binder_is_primed_past_a_definition_named_in_its_body():
    assert print_term(S.Lam("f", None, S.App(S.Ref("f"), S.Var(0)))) == \
        "λ f' . f f'"
    assert print_pure(S.PLam("f", S.PApp(S.PRef("f"), S.PVar(0)))) == \
        "λ f' . f f'"
    # a definition outside the body does not count
    assert print_term(S.App(S.Lam("f", None, S.Var(0)), S.Ref("f"))) == \
        "(λ f . f) f"


def test_arrow_sugar_for_unused_binders():
    from cedlite.parser import parse_type
    ty = parse_type("Π x : ∀ X : ★ . X ➔ X . ∀ Y : ★ . Y ➔ Y")
    assert print_classifier(ty) == "(∀ X : ★ . X ➔ X) ➔ (∀ Y : ★ . Y ➔ Y)"


def test_erased_application_spacing():
    t = parse_term("λ f . λ x . f -x x")
    assert print_term(t) == "λ f . λ x . f -x x"


def lam_nest(depth):
    """`λ x . λ x . ... f x`, `depth` binders, every hint `x`."""
    body = S.App(S.Ref("f"), S.Var(0))
    for _ in range(depth):
        body = S.Lam("x", None, body)
    return body


def visits_to_print(term, monkeypatch):
    """How many nodes printing `term` visits for its binders' fresh names."""
    calls = []
    subtrees = S.subtrees

    def counted(node, depth):
        calls.append(node)
        return subtrees(node, depth)
    monkeypatch.setattr(S, "subtrees", counted)
    text = print_term(term)
    monkeypatch.setattr(S, "subtrees", subtrees)
    return len(calls), text


def test_fresh_names_cost_linear_visits_in_binder_nesting(monkeypatch):
    n150, _ = visits_to_print(lam_nest(150), monkeypatch)
    n300, text = visits_to_print(lam_nest(300), monkeypatch)
    assert text.startswith("λ x . λ x' . λ x'' . ")
    assert text.endswith(" . f " + "x" + "'" * 299)
    # each of the 302 nodes is visited at most twice, not once per binder
    assert n300 <= 2 * 302 and n300 <= 2 * n150 + 2


def test_pure_terms_print_at_any_depth():
    n = 20_000
    spine = S.PVar(1)
    for _ in range(n):
        spine = S.PApp(S.PVar(0), spine)
    assert print_pure(S.PLam("z", S.PLam("s", spine))) == \
        "λ z . λ s . " + "s (" * (n - 1) + "s z" + ")" * (n - 1)
    lams = S.PApp(S.PRef("f"), S.PVar(0))
    for k in range(n):
        lams = S.PLam(f"x{k}", lams)
    assert print_pure(lams, ascii_only=True) == "".join(
        f"\\ x{k} . " for k in reversed(range(n))) + "f x0"
    # annotated nodes print on the same stack: a dependent Π chain, each
    # domain naming the binder before it, so no arrow hides a binder
    pis = S.AppTm(S.TRef("P"), S.Var(0))
    for k in reversed(range(n)):
        pis = S.Pi(f"x{k}", S.AppTm(S.TRef("P"), S.Var(0)) if k
                   else S.TRef("Nat"), pis)
    assert print_classifier(pis) == "Π x0 : Nat . " + "".join(
        f"Π x{k} : P x{k - 1} . " for k in range(1, n)) + f"P x{n - 1}"
    typed = S.App(S.Ref("f"), S.Var(n - 1))
    for k in reversed(range(n)):
        typed = S.Lam(f"x{k}", S.TRef("Nat"), typed)
    assert print_term(typed) == "".join(
        f"λ x{k} : Nat . " for k in range(n)) + "f x0"
    erased = S.Ref("f")
    for k in range(n):
        erased = S.EApp(erased, S.Ref("a")) if k % 2 \
            else S.TApp(erased, S.TRef("A"))
    assert print_term(erased) == "f" + " · A -a" * (n // 2)


def test_pure_terms_print_as_their_embedding(corpus_report):
    # print_pure and print_term share one layout for λ, application,
    # variables and references, fresh names included
    rng = random.Random(16)
    terms = [gen_pure(rng, 7) for _ in range(400)]
    terms += [nf for d in corpus_report.decls
              for nf in [d.normal_form, *(a.normal_form for a in d.assertions)]
              if nf is not None]
    assert len(terms) > 450
    for p in terms:
        for ascii_only in (False, True):
            for env in (None, ["x", "v5", "cS"]):
                assert print_pure(p, ascii_only, env) == \
                    print_term(embed(p), ascii_only, env)
