import random

import pytest

from cedlite.erasure import PApp, PLam, PRef, PVar, erase
from cedlite.normalize import (Fuel, FuelExhausted, alpha_eq, conv,
                               is_identity, normalize)
from cedlite.parser import parse_term
from cedlite.syntax import Signature, shift
from applicative import applicative_normalize
from termgen import gen_pure

IDENT = PLam("x", PVar(0))
EMPTY = Signature()


def pure(text: str, sig=EMPTY):
    return erase(parse_term(text, sig))


def test_beta_step():
    t = PApp(PLam("x", PVar(0)), PLam("y", PVar(0)))
    assert normalize(t, EMPTY).term == PLam("y", PVar(0))


def test_eta_contracts_fold_wrapper_to_identity():
    t = pure("λ xs . λ cn . λ cc . xs cn cc")
    nf = normalize(t, EMPTY)
    assert nf.term == IDENT
    assert is_identity(t, EMPTY)


def test_eta_runs_to_a_fixpoint():
    # λ x . (λ y . f y) x needs a contraction that exposes another
    f_free = PVar(0)
    t = PLam("x", PApp(PLam("y", PApp(shift(f_free, 2), PVar(0))),
                       PVar(0)))
    assert normalize(t, EMPTY).term == f_free


def test_eta_contracts_over_a_deep_spine():
    # λ s . λ z . λ x . s^700 z x: the η-contractum is shifted down past x
    body = PVar(1)
    for _ in range(700):
        body = PApp(PVar(2), body)
    t = PLam("s", PLam("z", PLam("x", PApp(body, PVar(0)))))
    want = PVar(0)
    for _ in range(700):
        want = PApp(PVar(1), want)
    nf = normalize(t, EMPTY).term
    assert alpha_eq(nf, PLam("s", PLam("z", want)))     # `==` recurses
    assert (nf.hint, nf.body.hint) == ("s", "z")


def test_conv_negative():
    assert not conv(pure("λ x . x"), pure("λ x . x x"), EMPTY)


def test_no_capture_under_binders():
    # (λ x . λ y . x) applied to the free variable y must not capture
    t = PApp(PLam("x", PLam("y", PVar(1))), PVar(0))
    assert normalize(t, EMPTY).term == PLam("y", PVar(1))


def test_substitution_agrees_with_independent_implementation():
    # shadowing-heavy random terms, kernel subst vs the cross-check one
    import applicative
    from subst_oracle import subst_pure
    rng = random.Random(7171)
    for _ in range(300):
        t = gen_pure(rng, depth=5, avail=(0, 1, 2))
        v = gen_pure(rng, depth=4, avail=(0, 1))
        j = rng.randrange(3)
        assert subst_pure(t, j, v) == applicative._subst(t, j, v)


def test_fuel_exhaustion_is_an_error():
    omega = PApp(PLam("x", PApp(PVar(0), PVar(0))),
                 PLam("x", PApp(PVar(0), PVar(0))))
    with pytest.raises(FuelExhausted) as exc:
        normalize(omega, EMPTY, Fuel(1000))
    assert exc.value.steps == 1000


def test_conv_spends_one_budget_for_both_sides():
    # each side takes 60 β-steps: either fits a budget of 100, both do not
    nested, spine = PVar(0), IDENT
    for _ in range(60):
        nested = PApp(IDENT, nested)
    for _ in range(59):
        spine = PApp(spine, IDENT)
    spine = PApp(spine, PVar(0))
    for side in (nested, spine):
        assert normalize(side, EMPTY, Fuel(100)).steps_used == 60
    with pytest.raises(FuelExhausted):
        conv(nested, spine, EMPTY, Fuel(100))
    assert conv(nested, spine, EMPTY, Fuel(120))


def test_fuel_must_be_positive():
    with pytest.raises(ValueError):
        Fuel(0)


def test_normalize_is_deterministic(corpus_sig):
    t = erase(corpus_sig.lookup("appendL").body)
    a = normalize(t, corpus_sig).term
    b = normalize(t, corpus_sig).term
    assert a == b


def test_delta_unfolds_definitions(corpus_sig):
    church_nil = PLam("cN", PLam("cC", PVar(1)))
    assert conv(erase(corpus_sig.lookup("nilV").body), church_nil, corpus_sig)
    # references are gone from normal forms
    nf = normalize(PRef("nilV"), corpus_sig).term
    assert nf == church_nil


def test_normal_forms_have_no_redexes(corpus_sig):
    def is_normal(t, under=0):
        if isinstance(t, PRef):
            return False
        if isinstance(t, PVar):
            return True
        if isinstance(t, PLam):
            if isinstance(t.body, PApp) and t.body.arg == PVar(0):
                # would be an eta redex unless the head uses the binder
                from cedlite.syntax import occurs_index
                if not occurs_index(t.body.fn, 0):
                    return False
            return is_normal(t.body)
        if isinstance(t, PApp):
            return not isinstance(t.fn, PLam) and is_normal(t.fn) \
                and is_normal(t.arg)
        return False

    for name in ("appendL", "appendV", "concatV", "length", "mult"):
        nf = normalize(erase(corpus_sig.lookup(name).body), corpus_sig).term
        assert is_normal(nf), name


def test_eta_expansion_invariance_small_sample():
    from termgen import DUPLICATING_CASES
    rng = random.Random(99)
    sample = [gen_pure(rng) for _ in range(60)] + DUPLICATING_CASES
    for t in sample:
        expanded = PLam("fresh", PApp(shift(t, 1), PVar(0)))
        assert conv(t, expanded, EMPTY, Fuel(20_000))


def test_applicative_cross_check_spot(corpus_sig):
    for name in ("nilV", "consV", "v2l", "l2v", "appendL", "mapL-id"):
        t = erase(corpus_sig.lookup(name).body)
        a = applicative_normalize(t, corpus_sig)
        b = normalize(t, corpus_sig).term
        assert a == b, name


def test_map_partially_applied_to_identity(corpus_sig):
    t = PApp(erase(corpus_sig.lookup("mapL").body), IDENT)
    assert is_identity(t, corpus_sig)
    f_free = PVar(0)
    assert not is_identity(PApp(erase(corpus_sig.lookup("mapL").body),
                                f_free), corpus_sig)


def test_church_list_append_decodes(corpus_sig):
    import church_oracle as oracle
    t = PApp(PApp(erase(corpus_sig.lookup("appendL").body),
                  oracle.church_nat_list([1, 2])),
             oracle.church_nat_list([3]))
    nf = normalize(t, corpus_sig).term
    got = oracle.decode_nat_list(
        oracle.evaluate(nf, lambda n: erase(corpus_sig.lookup(n).body)))
    assert got == [1, 2, 3]
