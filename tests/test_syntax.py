"""De Bruijn laws of the generic traversal, over every corpus declaration
and over random pure terms."""

import random
import sys

import pytest

from cedlite import syntax as S
from cedlite.syntax import KernelError, occurs_index, shift, subst
from termgen import gen_pure

RANDOM_TERMS = [gen_pure(random.Random(seed), 6, (0, 1, 2))
                for seed in range(400)]


def _binder_spine(node):
    """`node`, then the body under each of its leading binders: the latter
    are open terms whose free indices point at the peeled binders."""
    while True:
        yield node
        bound = [sub for sub, d in S.subtrees(node, 0) if d == 1]
        if not bound:
            return
        node = bound[0]


def _samples(sig):
    for decl in sig.decls:
        for root in (decl.body, decl.classifier):
            yield from _binder_spine(root)
    yield from RANDOM_TERMS


def test_shifts_compose(corpus_sig):
    for t in _samples(corpus_sig):
        for a, b, c in ((1, 1, 0), (2, 3, 0), (1, 2, 1), (3, 1, 2)):
            assert shift(shift(t, a, c), b, c) == shift(t, a + b, c), t


def test_substituting_into_a_fresh_index_undoes_the_shift(corpus_sig):
    for t in _samples(corpus_sig):
        for j in (0, 1, 2):
            assert subst(shift(t, 1, j), j, S.Var(7)) == t, t


def test_shifted_index_does_not_occur(corpus_sig):
    for t in _samples(corpus_sig):
        for c in (0, 1, 2):
            assert not occurs_index(shift(t, 1, c), c), t


def test_substituting_an_absent_index_only_renumbers(corpus_sig):
    for t in _samples(corpus_sig):
        for j in (0, 1, 2):
            if not occurs_index(t, j):
                assert subst(t, j, S.Var(7)) == shift(t, -1, j), t


@pytest.mark.parametrize("node, val", [
    (S.App(S.Var(0), S.Var(1)), S.TRef("Nat")),
    (S.Lam("x", None, S.Var(1)), S.TVar(0)),
    (S.AppTm(S.TVar(1), S.Var(0)), S.Pi("x", S.TVar(0), S.TVar(1))),
    (S.AppT(S.TVar(0), S.TRef("Nat")), S.Var(0)),
    (S.PApp(S.PVar(0), S.PVar(0)), S.TRef("Nat")),
])
def test_substituting_the_wrong_sort_raises(node, val):
    with pytest.raises(KernelError, match="substituted into"):
        subst(node, 0, val)


def test_every_random_term_with_a_free_index_rejects_a_type():
    for t in RANDOM_TERMS:
        if occurs_index(t, 0):
            with pytest.raises(KernelError):
                subst(t, 0, S.TRef("Nat"))


def test_shift_and_subst_reach_past_two_frames_per_level():
    # 700 levels fit the default recursion limit only at one frame a level
    spine = S.Var(0)
    for _ in range(700):
        spine = S.App(spine, S.Ref("zero"))

    def head(t):
        while type(t) is S.App:
            t = t.fn
        return t
    assert head(shift(spine, 1)) == S.Var(1)
    assert head(subst(spine, 0, S.Ref("zero"))) == S.Ref("zero")


# --- substituting several values in one walk --------------------------------

_SAMPLE_VALUES = {     # an open value of each variable flavor, by class
    S.Var: S.App(S.Var(3), S.Var(0)),
    S.TVar: S.AppT(S.TVar(2), S.TRef("Nat")),
    S.PVar: S.PApp(S.PVar(0), S.PVar(4)),
}


def _flavors(node):
    """The variable class of each index free in `node`, by index."""
    out, todo = {}, [(node, 0)]
    while todo:
        n, d = todo.pop()
        if type(n) in (S.Var, S.TVar, S.PVar):
            if n.idx >= d:
                out.setdefault(n.idx - d, type(n))
        else:
            todo += S.subtrees(n, d)
    return out


def one_at_a_time(node, j, vals):
    """`subst(node, j, *vals)` as a sequence of one-value substitutions,
    outermost index first; each value is lifted over the indices that are
    still to be substituted."""
    for i, val in enumerate(vals):
        r = len(vals) - 1 - i
        node = subst(node, j + r, shift(val, r, j))
    return node


def test_variadic_subst_equals_one_value_at_a_time(corpus_sig):
    tried = 0
    for t in _samples(corpus_sig):
        flavors = _flavors(t)
        for j in (0, 1):
            for m in (1, 2, 3):
                # vals[i] replaces index j + m - 1 - i
                vals = [_SAMPLE_VALUES[flavors.get(j + m - 1 - i, S.Var)]
                        for i in range(m)]
                assert subst(t, j, *vals) == one_at_a_time(t, j, vals), t
                tried += 1
    assert tried > 3000


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("node, good, bad", [
    (S.App(S.App(S.Var(0), S.Var(1)), S.Var(2)), S.Var(5), S.TRef("Nat")),
    (S.AppT(S.AppT(S.TVar(0), S.TVar(1)), S.TVar(2)), S.TRef("Nat"),
     S.Var(5)),
    (S.PApp(S.PApp(S.PVar(0), S.PVar(1)), S.PVar(2)), S.PVar(5),
     S.TRef("Nat")),
])
def test_a_wrong_sort_at_any_position_of_vals_raises(node, good, bad,
                                                     position):
    vals = [good] * 3
    assert subst(node, 0, *vals) is not None
    vals[position] = bad
    with pytest.raises(KernelError, match="substituted into"):
        subst(node, 0, *vals)


# --- the node contract ------------------------------------------------------

MATCH_ARGS = {
    "Var": ("idx",), "Ref": ("name",), "Lam": ("name", "ann", "body"),
    "ILam": ("name", "body"), "App": ("fn", "arg"), "EApp": ("fn", "arg"),
    "TApp": ("fn", "arg"), "Pair": ("left", "right"),
    "Proj": ("sub", "which"), "Beta": ("witness",),
    "Rho": ("proof", "body", "normalize_first"), "Symm": ("proof",),
    "TVar": ("idx",), "TRef": ("name",), "All": ("name", "dom", "body"),
    "Pi": ("name", "dom", "body"), "TLam": ("name", "dom", "body"),
    "AppT": ("fn", "arg"), "AppTm": ("fn", "arg"),
    "Iota": ("name", "dom", "body"), "Eq": ("lhs", "rhs"), "Star": (),
    "KPi": ("name", "dom", "body"), "KPiK": ("name", "dom", "body"),
    "PVar": ("idx",), "PLam": ("hint", "body"), "PApp": ("fn", "arg"),
    "PRef": ("name",),
}


def test_equality_compares_the_class_and_ignores_binder_hints():
    a, b = S.Var(0), S.Var(1)
    assert S.App(a, b) != S.EApp(a, b)
    assert S.App(a, b) == S.App(S.Var(0), S.Var(1))
    assert S.Var(0) != S.TVar(0) and S.Var(0) != S.PVar(0)
    lx, ly = S.Lam("x", None, S.Var(0)), S.Lam("y", None, S.Var(0))
    assert lx == ly and hash(lx) == hash(ly)
    px, py = S.PLam("x", S.PVar(0)), S.PLam("y", S.PVar(0))
    assert px == py and hash(px) == hash(py)
    assert S.Lam("x", S.TRef("Nat"), S.Var(0)) != lx
    assert S.Rho(a, b) != S.Rho(a, b, True)
    assert S.Beta() == S.Beta(None) != S.Beta(a)


def _chain(n, leaf, step):
    for i in range(n):
        leaf = step(i, leaf)
    return leaf


def test_equality_and_hash_reach_any_depth():
    # 10,000 levels at the default recursion limit: `==` and `hash` walk on
    # an explicit stack (a recursive `==` failed at 340 levels)
    assert sys.getrecursionlimit() <= 1000

    def papps(leaf):
        return _chain(10_000, leaf, lambda i, t: S.PApp(S.PVar(i % 3), t))

    def annotated(hint, leaf):
        return _chain(10_000, leaf, lambda i, t: S.Lam(
            f"{hint}{i}", S.TRef("Nat"), S.App(t, S.Var(i % 2))))
    for one, other, bottom in (
            (papps(S.PVar(0)), papps(S.PVar(0)), papps(S.PVar(1))),
            (annotated("x", S.Var(0)), annotated("y", S.Var(0)),
             annotated("x", S.Var(1)))):
        assert one is not other and one == other
        assert hash(one) == hash(other)
        assert one != bottom and not one == bottom


def test_every_node_class_keeps_its_match_args_and_fields():
    assert {cls.__name__: cls.__match_args__ for cls in S.SHAPES} \
        == MATCH_ARGS
    for cls, row in S.SHAPES.items():
        assert tuple(row) == tuple(cls.__slots__) == MATCH_ARGS[cls.__name__]
        assert not hasattr(cls, "__dataclass_fields__")
        # the binder hint is the first field of a binder, and only that
        hints = [f for f, role in row.items() if role is S.HINT]
        assert hints == list(row)[:1 if S.BOUND in row.values() else 0]


def test_nodes_are_slotted_so_a_misspelled_assignment_raises():
    for cls in S.SHAPES:
        assert "__slots__" in cls.__dict__
        node = cls(*[S.Var(0) if role in S.DEPTH else 0
                     for role in S.SHAPES[cls].values()])
        assert not hasattr(node, "__dict__")
        with pytest.raises(AttributeError):
            node.bdoy = S.Var(1)


# --- the interner -----------------------------------------------------------

X, Y, T = S.Var(0), S.Var(1), S.TRef("Nat")

# Pairs of `mk` calls that must build two objects: each pair differs only
# in one data field, in a binder hint, in an absent subtree, or in the
# class alone (classes with the same fields).
APART = {
    "Proj-which": ((S.Proj, X, 1), (S.Proj, X, 2)),
    "Rho-plus": ((S.Rho, X, Y, False), (S.Rho, X, Y, True)),
    "Lam-ann": ((S.Lam, "x", None, X), (S.Lam, "x", T, X)),
    "Lam-hint": ((S.Lam, "x", None, X), (S.Lam, "y", None, X)),
    "Beta-witness": ((S.Beta, None), (S.Beta, X)),
    "Var-idx": ((S.Var, 0), (S.Var, 1)),
    "App-EApp": ((S.App, X, Y), (S.EApp, X, Y)),
    "AppT-AppTm": ((S.AppT, T, T), (S.AppTm, T, T)),
    "Var-TVar": ((S.Var, 0), (S.TVar, 0)),
    "Ref-TRef": ((S.Ref, "f"), (S.TRef, "f")),
}


@pytest.mark.parametrize("one, other", APART.values(), ids=APART)
def test_an_interner_keeps_apart_what_differs_in_class_or_data(one, other):
    mk = S.interner()
    a, b = mk(*one), mk(*other)
    assert a is not b
    assert mk(*one) is a and mk(*other) is b
    for call, node in ((one, a), (other, b)):
        assert type(node) is call[0]
        assert [getattr(node, f) for f in S.SHAPES[call[0]]] == list(call[1:])


def test_an_interner_builds_one_object_per_class_data_and_subtrees():
    mk = S.interner()
    x, t = mk(S.Var, 0), mk(S.TRef, "Nat")
    assert mk(S.Var, 0) is x and mk(S.TRef, "Nat") is t and mk(S.Star) is \
        mk(S.Star)
    app = mk(S.App, x, x)
    assert mk(S.App, x, x) is app
    assert mk(S.Lam, "x", t, app) is mk(S.Lam, "x", t, app)
    assert mk(S.Rho, app, x, True) is mk(S.Rho, app, x, True)
    # a subtree is keyed by its identity: an equal but other object is apart
    other = S.Var(0)
    assert other == x and mk(S.App, other, x) is not app
    # and each interner has a table of its own
    assert S.interner()(S.Var, 0) is not x
