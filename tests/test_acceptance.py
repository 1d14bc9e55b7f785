"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every comparison is exact alpha-equality of beta-eta-delta normal forms;
there are no numeric tolerances anywhere.
"""

import random

import church_oracle as oracle
from applicative import applicative_normalize
from cedlite import syntax as S
from cedlite.erasure import PApp, PLam, PVar, erase
from cedlite.normalize import Fuel, conv, is_identity, normalize
from cedlite.parser import parse_signature, parse_term, parse_type
from cedlite.printer import print_decl
from cedlite.syntax import shift
from cedlite.typecheck import CheckError, Checker
from cedlite.values import evaluate
from termgen import DUPLICATING_CASES, gen_pure

CHURCH_NIL = PLam("cN", PLam("cC", PVar(1)))
CHURCH_CONS = PLam("x", PLam("xs", PLam("cN", PLam("cC", PApp(
    PApp(PVar(0), PVar(3)), PApp(PApp(PVar(2), PVar(1)), PVar(0)))))))


def report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def nf_of(sig, name):
    return normalize(erase(sig.lookup(name).body), sig).term


def test_criterion_1_constructor_erasures(corpus_sig):
    nils = ["nilCV", "nilPV", "nilV", "nilCL", "nilPL", "nilL"]
    conses = ["consCV", "consPV", "consV", "consCL", "consPL", "consL"]
    ok = all(nf_of(corpus_sig, n) == CHURCH_NIL for n in nils) and \
        all(nf_of(corpus_sig, c) == CHURCH_CONS for c in conses)
    report("1 constructor erasures are the church encodings", ok)


def test_criterion_2_identity_coercion_suite(corpus_sig):
    names = [
        "mkVec", "mkList", "elimVec", "elimList",
        "v2lC", "v2lP", "v2l", "l2vC", "l2vP", "l2v",
        "mkVecL", "v2u", "u2l", "u2l-l2l", "v2l-v2l", "v2u-v2l",
        "mapCL-id", "mapPL-id", "mapL-id",
    ]
    ok = all(is_identity(erase(corpus_sig.lookup(n).body), corpus_sig)
             for n in names)
    report("2 identity-coercion suite", ok)


def test_criterion_3_negative_identity(corpus_sig):
    ok = not is_identity(erase(corpus_sig.lookup("v2lC'").body), corpus_sig)
    report("3 concrete-codomain coercion is not the identity", ok)


def test_criterion_4_program_reuse_zero_cost(corpus_sig):
    ok = conv(erase(corpus_sig.lookup("appendL").body),
              erase(corpus_sig.lookup("appendV").body), corpus_sig) and \
        conv(erase(corpus_sig.lookup("concatV").body),
             erase(corpus_sig.lookup("concatL").body), corpus_sig)
    report("4 program reuse is erasure-equal both directions", ok)


def test_criterion_5_proof_reuse_type_checks(corpus_sig, corpus_report):
    def no_rho(node):
        if isinstance(node, S.Rho):
            return False
        return all(no_rho(sub) for sub, _ in S.subtrees(node, 0))

    # the walk finds the ρ of a proof that does rewrite
    assert not no_rho(corpus_sig.lookup("appendAssocV-direct").body)

    def single_application_of(body, reused):
        while isinstance(body, S.ILam | S.Lam):
            body = body.body
        head = body
        while isinstance(head, (S.App, S.EApp, S.TApp)):
            head = head.fn
        return head == S.Ref(reused)

    ok = True
    for name, reused in (("appendAssocL", "appendAssocV-direct"),
                         ("appendAssocV", "appendAssocL-direct"),
                         ("concatDistAppendV", "concatDistAppendL")):
        row = next(r for r in corpus_report.decls if r.name == name)
        body = corpus_sig.lookup(name).body
        ok = ok and row.ok and no_rho(body) \
            and single_application_of(body, reused)
    report("5 proof reuse checks with single-application bodies", ok)


def test_criterion_6_operational_oracle(corpus_sig):
    def resolve(name):
        return erase(corpus_sig.lookup(name).body)

    def run_decode(term, decode):
        nf = normalize(term, corpus_sig).term
        return decode(oracle.evaluate(nf, resolve))

    append = erase(corpus_sig.lookup("appendL").body)
    append_v = erase(corpus_sig.lookup("appendV").body)
    concat = erase(corpus_sig.lookup("concatL").body)
    concat_v = erase(corpus_sig.lookup("concatV").body)
    length = erase(corpus_sig.lookup("length").body)
    add = erase(corpus_sig.lookup("add").body)
    mult = erase(corpus_sig.lookup("mult").body)

    ok = True
    for i in range(5):
        for j in range(5):
            xs = list(range(i))
            ys = list(range(10, 10 + j))
            for ap in (append, append_v):
                got = run_decode(
                    PApp(PApp(ap, oracle.church_nat_list(xs)),
                         oracle.church_nat_list(ys)),
                    oracle.decode_nat_list)
                ok = ok and got == oracle.ref_append(xs, ys)
            got = run_decode(PApp(PApp(add, oracle.church_nat(i)),
                                  oracle.church_nat(j)), oracle.decode_nat)
            ok = ok and got == oracle.ref_add(i, j)
            got = run_decode(PApp(PApp(mult, oracle.church_nat(i)),
                                  oracle.church_nat(j)), oracle.decode_nat)
            ok = ok and got == oracle.ref_mult(i, j)
    for size in range(5):
        xs = list(range(size))
        got = run_decode(PApp(length, oracle.church_nat_list(xs)),
                         oracle.decode_nat)
        ok = ok and got == oracle.ref_length(xs)
        # inner sizes cycle through 0..4, outer size 0..4
        for xss in ([list(range(k % 5)) for k in range(size)],
                    [list(range(4 - k)) for k in range(size)]):
            for cc in (concat, concat_v):
                got = run_decode(PApp(cc, oracle.church_nat_list_list(xss)),
                                 oracle.decode_nat_list)
                ok = ok and got == oracle.ref_concat(xss)
    report("6 erased programs agree with the reference evaluator", ok)


def test_criterion_7_checker_side_conditions(corpus_sig):
    checker = Checker(corpus_sig)
    cases = [
        ("ι p : (∀ X : ★ . X ➔ X ➔ X) . ∀ X : ★ . X ➔ X ➔ X",
         "[ Λ X . λ a . λ b . a , Λ X . λ a . λ b . b ]",
         "erasure-mismatch"),
        ("∀ x : Nat . Nat", "Λ x . x", "implicit-free"),
        ("zero ≃ suc zero", "β", "beta-nonconv"),
    ]
    ok = True
    for cls_text, body_text, expected_kind in cases:
        cls = parse_type(cls_text, corpus_sig)
        body = parse_term(body_text, corpus_sig)
        try:
            checker._check(0, body, evaluate(cls, 0))
            ok = False
        except CheckError as e:
            ok = ok and e.kind == expected_kind
    report("7 negative typing tests fail with their error classes", ok)


def test_criterion_8_kernel_properties(corpus_sig):
    # parse/print round-trip over the whole corpus, both spellings
    ok = True
    for ascii_only in (False, True):
        text = "\n".join(print_decl(d, ascii_only=ascii_only)
                         for d in corpus_sig.decls if not d.expect_fail)
        reparsed = parse_signature(text)
        for d in corpus_sig.decls:
            if d.expect_fail:
                continue
            d2 = reparsed.lookup(d.name)
            ok = ok and d2 is not None and d2.classifier == d.classifier \
                and d2.body == d.body

    # determinism and agreement with the applicative-order normalizer
    for decl in corpus_sig.decls:
        if decl.level != "term" or decl.expect_fail:
            continue
        t = erase(decl.body)
        a = normalize(t, corpus_sig).term
        b = normalize(t, corpus_sig).term
        ok = ok and a == b
        ok = ok and applicative_normalize(t, corpus_sig) == a

    # eta-expansion never changes conversion: 500 random terms
    from cedlite.syntax import Signature
    empty = Signature()
    rng = random.Random(20250810)
    sample = [gen_pure(rng) for _ in range(500 - len(DUPLICATING_CASES))]
    sample += DUPLICATING_CASES
    for t in sample:
        expanded = PLam("fresh", PApp(shift(t, 1), PVar(0)))
        ok = ok and conv(t, expanded, empty, Fuel(50_000))
    report("8 kernel properties (round-trip, determinism, cross-check, η)",
           ok)
