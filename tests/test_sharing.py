"""Hash-consed elaboration and the inference memo.

Elaboration builds each distinct node of a declaration once, so equal
subterms with equal binder hints are one object; `Checker.infer` memoizes
by the identities of the term and its context. Both must be invisible in
every report: checking a signature whose declarations were rebuilt node
by node, sharing nothing, gives exactly the same rows.
"""

from importlib import resources
from types import SimpleNamespace

import pytest

from cedlite import syntax as S
from cedlite.corpus import load_corpus
from cedlite.parser import parse_files, parse_signature, parse_term
from cedlite.printer import print_pure
from cedlite.syntax import DEPTH, SHAPES
from cedlite.typecheck import check_signature
from perfbench import coercegen

PRELUDE = [str(resources.files("cedlite.corpus") / name)
           for name in coercegen.PRELUDE]


def generated_sig(seed, strip=False):
    text = coercegen.generate(seed).text
    if strip:
        text = text.replace("#assert-fail ", "")
    return parse_signature(text, filename=f"gen-{seed}.ced",
                           sig=parse_files(PRELUDE))


def fields(node):
    return [(getattr(node, f), role) for f, role in SHAPES[type(node)].items()]


def nodes(root):
    """Every subterm occurrence of `root`, repeats included."""
    out, todo = [], [root]
    while todo:
        n = todo.pop()
        out.append(n)
        todo += [v for v, _ in S.subtrees(n, 0)]
    return out


def hinted_key(node, memo):
    """The structure of `node` with its binder hints: two subterms have the
    same key exactly when they are `==` and carry the same hints."""
    if id(node) not in memo:
        memo[id(node)] = (type(node), *[
            v if role not in DEPTH or v is None else hinted_key(v, memo)
            for v, role in fields(node)])
    return memo[id(node)]


def unshared(node):
    """A copy of `node` built node by node, sharing no subterm."""
    return type(node)(*[v if role not in DEPTH or v is None else unshared(v)
                        for v, role in fields(node)])


def length_of_xs(decl):
    """The occurrences of `length · A (xs)`, `xs` any variable."""
    return [n for root in (decl.classifier, decl.body) for n in nodes(root)
            if type(n) is S.App and type(n.fn) is S.TApp
            and n.fn.fn == S.Ref("length") and type(n.arg) is S.Var]


def test_equal_subterms_of_a_declaration_are_one_object():
    sig = generated_sig(5)
    for decl in sig.decls:
        memo, objects = {}, {}
        for root in (decl.classifier, decl.body):
            for n in nodes(root):
                objects.setdefault(hinted_key(n, memo), set()).add(id(n))
        assert all(len(ids) == 1 for ids in objects.values()), decl.name


def test_subterms_that_differ_only_in_hints_stay_apart():
    same = parse_term("λ f . f (f (λ x . x)) (f (λ x . x))").body
    assert same.fn.arg is same.arg
    apart = parse_term("λ f . f (f (λ x . x)) (f (λ y . y))").body
    assert apart.fn.arg == apart.arg and apart.fn.arg is not apart.arg
    assert (apart.fn.arg.arg.name, apart.arg.arg.name) == ("x", "y")


def test_the_repeated_length_index_is_one_object():
    decl = generated_sig(5).lookup("chain1")
    occurrences = length_of_xs(decl)
    assert len(occurrences) > 10
    assert len({id(n) for n in occurrences}) == 1
    # and the unshared copy used below really shares nothing
    copy = SimpleNamespace(classifier=unshared(decl.classifier),
                           body=unshared(decl.body))
    assert len({id(n) for n in length_of_xs(copy)}) == len(occurrences)


def rows(report):
    return [(r.name, r.status, r.steps_used, r.warnings,
             r.normal_form and print_pure(r.normal_form),
             r.error, r.assertions) for r in report.decls]


def assert_unsharing_changes_no_report(make_sig):
    shared = check_signature(make_sig())
    sig = make_sig()
    for decl in sig.decls:
        decl.classifier, decl.body = (unshared(decl.classifier),
                                      unshared(decl.body))
    assert rows(check_signature(sig)) == rows(shared)


def test_a_memo_hit_appends_the_warnings_again():
    # both components of the pair are one object, inferred in one context;
    # the ρ inside rewrites nothing, which warns once per inference
    text = ("f ◂ Nat ➔ Nat = λ y . y .\n"
            "p ◂ Π q : {suc zero ≃ zero} . ι x : Nat . Nat\n"
            "  = λ q . [f (ρ q - zero) , f (ρ q - zero)] .\n")

    def make_sig():
        return parse_signature(text, sig=parse_files(PRELUDE[:1]))
    row = check_signature(make_sig()).decls[-1]
    assert row.ok
    assert row.warnings == ["ρ rewrote no occurrences of the equation's "
                            "left side"] * 2
    assert_unsharing_changes_no_report(make_sig)


def test_the_memo_is_invisible_on_the_corpus():
    assert_unsharing_changes_no_report(load_corpus)


@pytest.mark.parametrize("strip", [False, True], ids=["generated", "stripped"])
def test_the_memo_is_invisible_on_generated_chains(strip):
    for seed in range(24):
        assert_unsharing_changes_no_report(
            lambda: generated_sig(seed, strip))
