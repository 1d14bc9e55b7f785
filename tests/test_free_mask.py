"""Free-index masks, the identity-keeping `rebuild`, and the ρ rewrite
they prune.

`syntax.free_mask(n)` has bit i set exactly when de Bruijn index i is free
in `n`. `Checker._rewrite` keeps a subtree as it is when the mask lacks a
variable free in the equation's left side; the pruned rewrite must give
the goal and the count of the unpruned one in `rewrite_oracle.py`.
"""

import random
from importlib import resources

import pytest

from cedlite import syntax as S
from cedlite.corpus import load_corpus
from cedlite.erasure import PApp, PVar
from cedlite.parser import parse_files, parse_signature
from cedlite.printer import print_classifier
from cedlite.syntax import free_mask, rebuild
from cedlite.typecheck import Checker, check_signature
from perfbench import coercegen
from rewrite_oracle import rewrite_unpruned
from termgen import gen_pure

PRELUDE = [str(resources.files("cedlite.corpus") / name)
           for name in coercegen.PRELUDE]


def naive_free(node, depth=0) -> set:
    """The indices free in `node` at its root, by plain recursion."""
    if type(node) in (S.Var, S.TVar, S.PVar):
        return {node.idx - depth} if node.idx >= depth else set()
    out = set()
    for sub, d in S.subtrees(node, depth):
        out |= naive_free(sub, d)
    return out


def subterms(root):
    out, todo = [], [root]
    while todo:
        n = todo.pop()
        out.append(n)
        todo += [sub for sub, _ in S.subtrees(n, 0)]
    return out


def as_mask(indices) -> int:
    return sum(1 << i for i in indices)


def corpus_roots():
    sig = load_corpus()
    return [root for decl in sig.decls
            for root in (decl.classifier, decl.body)]


def test_free_mask_is_the_free_index_set_on_the_corpus():
    for root in corpus_roots():
        for n in subterms(root):
            assert free_mask(n) == as_mask(naive_free(n)), n


def test_free_mask_is_the_free_index_set_on_generated_terms():
    rng = random.Random(7)
    for _ in range(400):
        t = gen_pure(rng, rng.randint(1, 8), tuple(range(rng.randint(0, 4))))
        for n in subterms(t):
            assert free_mask(n) == as_mask(naive_free(n)), n


def naive_sorts(node, depth=0) -> set:
    """The (index, flavor) pairs of the variables free in `node`."""
    if type(node) in (S.Var, S.TVar):
        return {(node.idx - depth, type(node))} if node.idx >= depth \
            else set()
    out = set()
    for sub, d in S.subtrees(node, depth):
        out |= naive_sorts(sub, d)
    return out


def test_sort_mask_is_the_flavored_free_index_set_on_the_corpus():
    for root in corpus_roots():
        for n in subterms(root):
            want = sum(1 << 2 * i if flavor is S.Var else 2 << 2 * i
                       for i, flavor in naive_sorts(n))
            assert S.sort_mask(n) == want, n


def test_free_mask_of_a_deep_term_needs_no_recursion():
    t = PVar(3)
    for _ in range(20_000):
        t = PApp(PVar(1), t)
    assert free_mask(t) == 0b1010


def test_rebuild_keeps_a_node_whose_subtrees_come_back_unchanged():
    for root in corpus_roots():
        for n in subterms(root):
            assert rebuild(n, lambda s, d: s, 0) is n
    app = S.App(S.Var(0), S.Var(1))
    new = rebuild(app, lambda s, d: S.Var(s.idx + 1), 0)
    assert new == S.App(S.Var(1), S.Var(2)) and new is not app


def record_rewrites(monkeypatch):
    """Compare every `_rewrite` the checker makes with the oracle's."""
    seen = []
    pruned = Checker._rewrite

    def both(self, node, lhs, lhs_nf, rhs, depth):
        got = pruned(self, node, lhs, lhs_nf, rhs, depth)
        want = rewrite_unpruned(Checker(self.sig, self.fuel), node, lhs,
                                lhs_nf, rhs, depth)
        seen.append((print_classifier(got[0]), got[1],
                     print_classifier(want[0]), want[1]))
        assert got[0] == want[0]
        return got
    monkeypatch.setattr(Checker, "_rewrite", both)
    return seen


def test_pruned_rewrite_agrees_with_the_oracle_on_the_corpus(monkeypatch):
    seen = record_rewrites(monkeypatch)
    check_signature(load_corpus())
    assert len(seen) > 20
    assert all(g == w and gc == wc for g, gc, w, wc in seen)
    assert sum(gc for _, gc, _, _ in seen) > 0


@pytest.mark.parametrize("seed", range(24))
def test_pruned_rewrite_agrees_with_the_oracle_on_generated_chains(
        monkeypatch, seed):
    seen = record_rewrites(monkeypatch)
    sig = parse_signature(coercegen.generate(seed).text,
                          filename=f"gen-{seed}.ced", sig=parse_files(PRELUDE))
    check_signature(sig)
    assert seen
    assert all(g == w and gc == wc for g, gc, w, wc in seen)


def test_a_deep_left_side_raises_no_recursion_error():
    # `lhs_nf` is 20,000 applications deep; its mask is found without
    # recursion, and a goal with nothing to rewrite comes back as itself
    lhs = PVar(0)
    for _ in range(20_000):
        lhs = PApp(PVar(0), lhs)
    goal = S.Eq(S.Var(0), S.Ref("zero"))
    checker = Checker(load_corpus())
    new, count = checker._rewrite(goal, lhs, lhs, S.Ref("zero"), 0)
    assert new is goal and count == 0
