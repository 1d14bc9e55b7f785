"""Free-index masks, the identity-keeping `transform`, and the ρ rewrite
they prune.

`n.free_mask` has bit i set exactly when de Bruijn index i is free
in `n`. Each node's constructor computes it, and `n.sort_mask`, from its
children's, so every node the kernel builds, not only the parser's, must
carry the masks a plain recursive walk finds. `Checker._rewrite` keeps a
subtree as it is when the mask lacks a variable free in the equation's
left side, and forces the parts it visits; it must give the goal and the
count that the unpruned one in `rewrite_oracle.py` gives on the goal the
separate forcing pass `reach` leaves.
"""

import random
import sys
from contextlib import contextmanager
from importlib import resources

import pytest

from cedlite import syntax as S
from cedlite.corpus import load_corpus
from cedlite.erasure import PApp, PVar, embed, erase
from cedlite.normalize import Fuel, normalize
from cedlite.parser import parse_files, parse_signature
from cedlite.printer import print_classifier
from cedlite.syntax import KernelError, Signature, shift, subst, transform
from cedlite.typecheck import Checker, check_signature
from perfbench import coercegen
from rewrite_oracle import reach, rewrite_unpruned
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


def naive_sorts(node, depth=0) -> set:
    """The (index, flavor) pairs of the variables free in `node`."""
    if type(node) in (S.Var, S.TVar):
        return {(node.idx - depth, type(node))} if node.idx >= depth \
            else set()
    out = set()
    for sub, d in S.subtrees(node, depth):
        out |= naive_sorts(sub, d)
    return out


def assert_free_masks_hold(nodes):
    for n in nodes:
        assert n.free_mask == as_mask(naive_free(n)), n


def assert_sort_masks_hold(nodes):
    for n in nodes:
        assert n.sort_mask == sum(1 << 2 * i if flavor is S.Var else 2 << 2 * i
                                  for i, flavor in naive_sorts(n)), n


@contextmanager
def recording():
    """Every node constructed inside the block, and the names of the
    functions on the stacks that constructed it (12 frames up)."""
    nodes, sites = [], set()

    def wrap(init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            nodes.append(self)
            frame = sys._getframe(1)
            for _ in range(12):
                if frame is None:
                    break
                sites.add(frame.f_code.co_name)
                frame = frame.f_back
        return __init__
    with pytest.MonkeyPatch.context() as mp:
        for cls in S.SHAPES:
            mp.setattr(cls, "__init__", wrap(cls.__init__))
        yield nodes, sites


def substitute_under_each_binder(roots):
    """`subst` the body under each binder with a term and with a type value;
    the one of the wrong sort for the bound variable raises."""
    for root in roots:
        for n in subterms(root):
            for body in [sub for sub, d in S.subtrees(n, 0) if d]:
                for val in (S.Ref("zero"), S.TRef("Nat")):
                    try:
                        subst(body, 0, val)
                    except KernelError:
                        pass


def normal_forms(report):
    """Every subterm of the report's normal forms."""
    return [n for d in report.decls
            for nf in [d.normal_form, *(a.normal_form for a in d.assertions)]
            if nf is not None for n in subterms(nf)]


# Where the kernel builds nodes: the parser's interner, the readback of
# classifier values and of embedded terms, the generic traversal, erasure,
# NbE readback and η, and the ρ goal (rewritten, or normalized for ρ+).
KERNEL_SITES = {"mk", "_quote", "_quote_tm", "transform", "shift", "erase",
                "_readback", "_eta", "_rewrite", "_norm_term_positions"}


@pytest.fixture(scope="module")
def corpus_built():
    """Every node built while the corpus is loaded and checked, each
    binder's body substituted and each normal form of the report embedded,
    plus the report's normal forms."""
    with recording() as (nodes, sites):
        sig = load_corpus()
        report = check_signature(sig)
        substitute_under_each_binder(decl.body for decl in sig.decls)
        for n in normal_forms(report):
            embed(n)
    assert KERNEL_SITES | {"subst", "embed"} <= sites
    assert len(nodes) > 10_000
    return nodes + normal_forms(report)


def test_free_mask_is_the_free_index_set_on_the_corpus(corpus_built):
    assert_free_masks_hold(corpus_built)


def test_sort_mask_is_the_flavored_free_index_set_on_the_corpus(
        corpus_built):
    assert_sort_masks_hold(corpus_built)


@pytest.mark.parametrize("seed", range(4))
def test_every_node_built_on_generated_chains_carries_its_masks(seed):
    with recording() as (nodes, sites):
        sig = parse_signature(coercegen.generate(seed).text,
                              filename=f"gen-{seed}.ced",
                              sig=parse_files(PRELUDE))
        report = check_signature(sig)
    assert KERNEL_SITES - {"_norm_term_positions"} <= sites
    assert_free_masks_hold(nodes + normal_forms(report))
    assert_sort_masks_hold(nodes + normal_forms(report))


def test_free_mask_is_the_free_index_set_on_generated_terms():
    rng = random.Random(7)
    with recording() as (nodes, sites):
        for _ in range(400):
            t = gen_pure(rng, rng.randint(1, 8),
                         tuple(range(rng.randint(0, 4))))
            embedded = embed(normalize(t, Signature()).term)
            erase(embedded)
            shift(embedded, 2, 1)
            subst(embedded, 0, S.Var(3), S.Ref("zero"))
    assert {"gen_pure", "_readback", "_eta", "embed", "erase", "shift",
            "subst", "transform"} <= sites
    assert_free_masks_hold(nodes)
    assert_sort_masks_hold(nodes)


def test_free_mask_of_a_deep_term_needs_no_recursion():
    t = PVar(3)
    for _ in range(20_000):
        t = PApp(PVar(1), t)
    assert t.free_mask == 0b1010


def test_transform_keeps_a_node_whose_subtrees_come_back_unchanged():
    # the callback declines every node, so the walk visits the whole tree
    # and every level must hand back its own node
    for root in corpus_roots():
        for n in subterms(root):
            visited = []
            assert transform(n, lambda s, d: visited.append(s)) is n
            assert len(visited) == len(subterms(n))
    app = S.App(S.Var(0), S.Var(1))
    new = transform(app, lambda s, d: S.Var(s.idx + 1)
                    if type(s) is S.Var else None)
    assert new == S.App(S.Var(1), S.Var(2)) and new is not app


def record_rewrites(monkeypatch):
    """Compare every `_rewrite` the checker makes with the oracle's, run on
    the goal the separate forcing pass `reach` leaves."""
    seen = []
    pruned = Checker._rewrite

    def both(self, node, lhs, lhs_nf, rhs, lvl, normed):
        got = pruned(self, node, lhs, lhs_nf, rhs, lvl, normed)
        oracle = Checker(self.sig, Fuel(self.meter.max_steps))
        want = rewrite_unpruned(
            oracle, reach(oracle, node, lhs_nf.free_mask, lvl, normed),
            lhs, lhs_nf, rhs, 0)
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
    new, count = checker._rewrite(goal, lhs, lhs, S.Ref("zero"), 0, False)
    assert new is goal and count == 0
