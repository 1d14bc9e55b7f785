from cedlite import syntax as S
from cedlite.erasure import erase
from cedlite.parser import parse_term
from cedlite.printer import (print_classifier, print_erased, print_pure,
                             print_term)


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
