"""Normalization by evaluation against the substitution oracle, plus the
behaviours NbE must keep: laziness, fuel, and depth without recursion."""

import random
from importlib import import_module

import pytest

import cedlite.typecheck as tc
from cedlite.erasure import PApp, PLam, PRef, PVar, erase
from cedlite.normalize import Fuel, conv, normalize
from cedlite.syntax import KernelError, Signature
from subst_oracle import subst_normalize
from termgen import DUPLICATING_CASES, church, gen_pure

N = import_module("cedlite.normalize")   # the package re-exports the function
EMPTY = Signature()
SELF_APPLY = PLam("x", PApp(PVar(0), PVar(0)))
OMEGA = PApp(SELF_APPLY, SELF_APPLY)


def church_value(t):
    """The value of a Church numeral in η-short normal form, iteratively."""
    if t == PLam("f", PVar(0)):
        return 1
    if not (isinstance(t, PLam) and isinstance(t.body, PLam)):
        return None
    body, n = t.body.body, 0
    while isinstance(body, PApp) and body.fn == PVar(1):
        body, n = body.arg, n + 1
    return n if body == PVar(0) else None


def test_unused_argument_is_never_evaluated():
    t = PApp(PLam("x", PLam("y", PVar(0))), OMEGA)
    nf = normalize(t, EMPTY, Fuel(50))
    assert nf.term == PLam("y", PVar(0))
    assert nf.steps_used == 1


@pytest.mark.parametrize("k", range(10, 17))
def test_church_power_of_two_at_default_recursion_limit(k):
    t = PApp(church(k), church(2))
    assert church_value(normalize(t, EMPTY).term) == 2 ** k
    assert conv(t, church(2 ** k), EMPTY)


def test_agrees_with_oracle_on_corpus_definitions(corpus_sig):
    def_nfs = {}
    for decl in corpus_sig.decls:
        if decl.level != "term":
            continue
        t = erase(decl.body)
        assert normalize(t, corpus_sig).term == \
            subst_normalize(t, corpus_sig, def_nfs=def_nfs), decl.name


def test_agrees_with_oracle_on_generated_terms():
    rng = random.Random(2013)
    closed = [gen_pure(rng) for _ in range(200)]
    open_terms = [gen_pure(rng, depth=5, avail=(0, 1, 2)) for _ in range(200)]
    for t in closed + open_terms + DUPLICATING_CASES:
        assert normalize(t, EMPTY).term == subst_normalize(t, EMPTY), t


# --- inputs without a redex are their own normal forms ----------------------

def slow_normal_form(t, sig):
    """Evaluation and readback, without the scan for a redex."""
    meter = N.Meter(Fuel().max_steps)
    return N._readback(N._eval(t, None, meter, sig), meter, sig), meter.used


def assert_scan_agrees(t, sig):
    out = normalize(t, sig)
    slow, steps = slow_normal_form(t, sig)
    assert repr(out.term) == repr(slow) and out.steps_used == steps, t
    unchanged = steps == 0 and repr(slow) == repr(t)
    assert (out.term is t) == unchanged, t
    return unchanged


def test_scan_agrees_with_evaluation_on_generated_terms():
    rng = random.Random(2018)
    closed = [gen_pure(rng) for _ in range(300)]
    open_terms = [gen_pure(rng, depth=5, avail=(0, 1, 2)) for _ in range(300)]
    inputs = closed + open_terms + DUPLICATING_CASES
    normal = [normalize(t, EMPTY).term for t in inputs]
    verdicts = [assert_scan_agrees(t, EMPTY) for t in inputs + normal]
    assert all(verdicts[len(inputs):])
    assert not all(verdicts[:len(inputs)])


def test_scan_agrees_with_evaluation_on_corpus_definitions(corpus_sig,
                                                          corpus_report):
    for decl in corpus_sig.decls:
        if decl.level != "term":
            continue
        t = erase(decl.body)
        assert_scan_agrees(t, corpus_sig)
        assert assert_scan_agrees(normalize(t, corpus_sig).term, corpus_sig)


def test_a_rejected_reference_is_normal_and_an_unknown_one_raises():
    sig = Signature()
    sig.rejected.add("leak")
    t = PLam("x", PApp(PApp(PRef("leak"), PVar(0)), PVar(0)))
    out = normalize(t, sig)
    assert out.term is t and out.steps_used == 0
    with pytest.raises(KernelError, match="not an unfoldable"):
        normalize(PApp(PRef("nowhere"), PVar(0)), sig)


def test_conversion_of_two_normal_terms_evaluates_nothing(monkeypatch):
    evals, compares = [], []
    real_eval, real_alpha_eq = N._eval, N.alpha_eq

    def counting_eval(*args):
        evals.append(args[0])
        return real_eval(*args)

    def counting_alpha_eq(*args):
        compares.append(args)
        return real_alpha_eq(*args)

    monkeypatch.setattr(N, "_eval", counting_eval)
    monkeypatch.setattr(N, "alpha_eq", counting_alpha_eq)
    monkeypatch.setattr(tc, "alpha_eq", counting_alpha_eq)
    three, four = church(3), church(4)
    assert not conv(three, four, EMPTY)
    assert not conv(three, four, EMPTY, tc.Checker(EMPTY).meter)
    assert evals == [] and len(compares) == 2
    # the counter sees evaluation where there is a redex
    assert conv(PApp(PLam("x", PVar(0)), three), three, EMPTY)
    assert evals
