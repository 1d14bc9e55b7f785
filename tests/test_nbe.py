"""Normalization by evaluation against the substitution oracle, plus the
behaviours NbE must keep: laziness, fuel, and depth without recursion."""

import random

import pytest

from cedlite.erasure import PApp, PLam, PVar, erase
from cedlite.normalize import Fuel, conv, normalize
from cedlite.syntax import Signature
from subst_oracle import subst_normalize
from termgen import DUPLICATING_CASES, church, gen_pure

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
