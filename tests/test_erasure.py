import random

from cedlite import syntax as S
from cedlite.erasure import (PApp, PLam, PRef, PVar, embed, erase,
                             free_in_erasure)
from subst_oracle import subst_pure
from cedlite.parser import parse_signature, parse_term
from cedlite.syntax import subst
from termgen import gen_pure

IDENT = PLam("x", PVar(0))


def test_clause_variable_and_lambda():
    assert erase(parse_term("λ x . x")) == IDENT


def test_clause_implicit_abstraction_dropped():
    assert erase(parse_term("Λ A . λ x . x")) == IDENT


def test_clause_applications():
    t = parse_term("λ f . λ x . f x")
    assert erase(t) == PLam("f", PLam("x", PApp(PVar(1), PVar(0))))


def test_clause_erased_application_drops_argument():
    t = parse_term("λ y . Λ A . λ x . x -y")
    assert erase(t) == PLam("y", PLam("x", PVar(0)))


def test_clause_type_application_dropped():
    sig = parse_signature("c ◂ ★ = ∀ X : ★ . X ➔ X .")
    t = parse_term("λ x . x · c", sig)
    assert erase(t) == IDENT


def test_clause_pair_erases_to_left():
    t = parse_term("λ a . λ b . [ a , b ]")
    assert erase(t) == PLam("a", PLam("b", PVar(1)))


def test_clause_projections_dropped():
    assert erase(parse_term("λ x . x.1")) == IDENT
    assert erase(parse_term("λ x . x.2.1")) == IDENT


def test_clause_beta_is_identity_by_default():
    assert erase(parse_term("β")) == IDENT


def test_clause_beta_witness():
    assert erase(parse_term("λ x . β{x}")) == IDENT


def test_clause_rho_erases_to_body():
    t = parse_term("λ q . λ x . ρ q - x")
    assert erase(t) == PLam("q", PLam("x", PVar(0)))
    t2 = parse_term("λ q . λ x . ρ+ q - x")
    assert erase(t2) == PLam("q", PLam("x", PVar(0)))


def test_clause_symmetry_erases_to_proof():
    t = parse_term("λ q . ς q")
    assert erase(t) == IDENT


def test_clause_reference_preserved():
    sig = parse_signature("c ◂ ★ = ∀ X : ★ . X ➔ X .\n"
                          "i ◂ c = Λ X . λ x . x .")
    assert erase(parse_term("i", sig)) == PRef("i")


def test_all_implicit_material_dropped():
    # Λ A . λ x . x -y · T with y bound outside
    sig = parse_signature("c ◂ ★ = ∀ X : ★ . X ➔ X .")
    t = parse_term("λ y . Λ A . λ x . x -y · c", sig)
    assert erase(t) == PLam("y", PLam("x", PVar(0)))


def test_free_in_erasure_under_implicit_binder():
    t = parse_term("λ x . Λ y . x")
    assert free_in_erasure(0, t.body)  # x seen from under its own binder


def test_free_in_erasure_skips_erased_argument():
    t = parse_term("λ x . λ t . t -x")
    inner = t.body.body  # t -x, where x has index 1
    assert not free_in_erasure(1, inner)
    assert free_in_erasure(0, inner)  # the head t survives


def test_free_in_erasure_consCV_index_argument(corpus_sig):
    # the -n occurrences in consCV's body never survive erasure
    body = corpus_sig.lookup("consCV").body  # Λ A . Λ n . ...
    assert not free_in_erasure(0, body.body.body)


def test_embed_idempotent_on_random_terms():
    rng = random.Random(20240817)
    for _ in range(200):
        p = gen_pure(rng)
        assert erase(embed(p)) == p


def test_erase_commutes_with_substitution_random():
    rng = random.Random(4159)
    for _ in range(200):
        t = gen_pure(rng, depth=4, avail=(0, 1))
        s = gen_pure(rng, depth=3, avail=(0, 1))
        j = rng.randrange(2)
        lhs = erase(subst(embed(t), j, embed(s)))
        rhs = subst_pure(erase(embed(t)), j, erase(embed(s)))
        assert lhs == rhs


def test_erase_commutes_with_substitution_decorated():
    # substitution through erased decorations around explicit positions
    sig = parse_signature("c ◂ ★ = ∀ X : ★ . X ➔ X .\n"
                          "i ◂ c = Λ X . λ x . x .")
    t = parse_term("λ y . Λ A . [ y -i , β{y} ].1", sig)
    s = parse_term("λ z . z z")
    got = erase(subst(t.body, 0, s))
    want = subst_pure(erase(t.body), 0, erase(s))
    assert got == want


def test_helper_and_eliminator_erase_to_identity_raw(corpus_sig):
    # without any reduction: the pair keeps only its left component and
    # the rewrite keeps only its body
    assert erase(corpus_sig.lookup("mkVec").body) == IDENT
    assert erase(corpus_sig.lookup("elimVec").body) == IDENT
    assert erase(corpus_sig.lookup("mkList").body) == IDENT


def test_corpus_constructor_erasures_are_exact(corpus_sig):
    church_nil = PLam("cN", PLam("cC", PVar(1)))
    church_cons = PLam("x", PLam("xs", PLam("cN", PLam("cC", PApp(
        PApp(PVar(0), PVar(3)),
        PApp(PApp(PVar(2), PVar(1)), PVar(0)))))))
    assert erase(corpus_sig.lookup("nilCV").body) == church_nil
    assert erase(corpus_sig.lookup("consCV").body) == church_cons
    assert erase(corpus_sig.lookup("nilCL").body) == church_nil
    assert erase(corpus_sig.lookup("consCL").body) == church_cons
    assert erase(corpus_sig.lookup("nilPV").body) == church_nil
    assert erase(corpus_sig.lookup("consPV").body) == church_cons


# --- erasure on an explicit stack -----------------------------------------

KEPT = {S.EApp: "fn", S.TApp: "fn", S.Pair: "left", S.Proj: "sub",
        S.Rho: "body", S.Symm: "proof", S.Beta: "witness"}


def erase_recursive(t, env=(), depth=0):
    """`erase` as it was written before the explicit stack: one Python
    frame per application and binder. The oracle of the tests below."""
    while type(t) in KEPT:
        t = getattr(t, KEPT[type(t)])
        if t is None:
            return PLam("x", PVar(0))
    if type(t) is S.Var:
        if t.idx < len(env):
            level = env[len(env) - 1 - t.idx]
            if level is None:
                return PVar(depth + (len(env) - 1 - t.idx))
            return PVar(depth - 1 - level)
        return PVar(depth + (t.idx - len(env)))
    if type(t) is S.Ref:
        return PRef(t.name)
    if type(t) is S.Lam:
        return PLam(t.name, erase_recursive(t.body, env + (depth,),
                                            depth + 1))
    if type(t) is S.ILam:
        return erase_recursive(t.body, env + (None,), depth)
    return PApp(erase_recursive(t.fn, env, depth),
                erase_recursive(t.arg, env, depth))


def decorate(rng, t):
    """`t` with erased material wrapped around and inside it at random."""
    if type(t) is S.Lam:
        t = S.Lam(t.name, None, decorate(rng, t.body))
    elif type(t) is S.App:
        t = S.App(decorate(rng, t.fn), decorate(rng, t.arg))
    roll = rng.random()
    if roll < 0.1:
        return S.ILam("a", S.shift(t, 1))
    if roll < 0.2:
        return S.EApp(t, S.Var(rng.randrange(3)))
    if roll < 0.3:
        return S.TApp(t, S.TRef("T"))
    if roll < 0.4:
        return S.Pair(t, S.Ref("r"))
    if roll < 0.5:
        return S.Proj(S.Rho(S.Var(0), S.Symm(t)), rng.choice((1, 2)))
    if roll < 0.55:
        return S.Beta(t)
    if roll < 0.6:
        return S.Beta()
    return t


def test_erase_equals_the_recursive_oracle_hints_included(corpus_sig):
    terms = []
    for decl in corpus_sig.decls:
        if decl.level == "term":
            todo = [decl.body]
            while todo:             # every term subterm, open ones too
                n = todo.pop()
                if S.is_term(n):
                    terms.append(n)
                todo += [s for s, _ in S.subtrees(n, 0)]
    for t in terms + decorated_terms():
        assert repr(erase(t)) == repr(erase_recursive(t))


def decorated_terms():
    rng = random.Random(1313)
    return [decorate(rng, embed(gen_pure(rng, avail=(0, 1, 2))))
            for _ in range(400)]


def free_in_erasure_recursive(idx, t):
    """`free_in_erasure` as it was before it went through `erase`: the
    erasure clauses again, as a recursive walk. The oracle of the test
    below."""
    while type(t) in KEPT:
        t = getattr(t, KEPT[type(t)])
        if t is None:
            return False
    if type(t) is S.Var:
        return t.idx == idx
    if type(t) is S.Ref:
        return False
    if type(t) in (S.Lam, S.ILam):
        return free_in_erasure_recursive(idx + 1, t.body)
    if type(t) is S.App:
        return free_in_erasure_recursive(idx, t.fn) or \
            free_in_erasure_recursive(idx, t.arg)
    raise TypeError(t)


def test_free_in_erasure_equals_the_recursive_oracle(corpus_sig):
    bodies = []
    for decl in corpus_sig.decls:
        todo = [decl.classifier, decl.body]
        while todo:
            n = todo.pop()
            if type(n) is S.ILam:
                bodies.append(n.body)
            todo += [s for s, _ in S.subtrees(n, 0)]
    assert len(bodies) > 100
    answers = set()
    for t in bodies + decorated_terms():
        for i in range(4):
            want = free_in_erasure_recursive(i, t)
            assert free_in_erasure(i, t) == want, (i, t)
            answers.add(want)
    assert answers == {True, False}


def test_erase_reaches_any_depth():
    n = 10_000
    t = S.Ref("zero")
    for _ in range(n):
        t = S.App(S.Ref("suc"), t)
    t = S.ILam("A", S.Lam("x", None, t))
    p = erase(t)
    for _ in range(n):
        assert type(p.body) is PApp
        p = PLam("x", p.body.arg)
    assert p.body == PRef("zero")


def test_free_in_erasure_reaches_any_depth():
    t = S.Var(0)
    for _ in range(10_000):
        t = S.App(S.Ref("suc"), t)
    assert free_in_erasure(0, t)
    assert not free_in_erasure(1, t)
