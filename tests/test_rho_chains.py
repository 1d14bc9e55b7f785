"""Chains of ρ links report what each link did, in order.

`ρ q1 - ρ q2 - … - b` rewrites one goal link by link. The reports of
`tests/rho_chains.ced` (read after `nat.ced`) are pinned as text: a
three-link chain mixing ρ and ρ+, one whose middle link rewrites nothing
and warns, one whose last link is not an equality, and one whose links
leave a goal β cannot prove. The fuel, warnings and errors were recorded
before chains were checked in one loop, and must not move. Then come
chains whose links force a part a ρ+ link before them left folded: a
ρ link (`chainFold`, `div`) and a second ρ+ link (`chainPlus2`); their
reports are the ones the goal read back forced in full gives. In
`div3` a ρ+ link normalizes the goal's terms before it judges what to
force, so a part whose normal form drops the rewritten variable stays
folded (fuel 8, where forcing on the terms as written spent 14). In
`chainAnn` a type inside a term stays as written, unforced.

Each link forces only the parts of its goal that its rewrite visits, in
the same walk. Every link checked in the corpus, in `coercegen` seeds
0–3 and in `tests/rho_chains.ced` must leave the goal and count that
`rewrite_oracle.rho_chain_eager`, which forces the whole goal first,
leaves; a part without the left side's variables must stay folded.
"""

from importlib import resources
from pathlib import Path

import pytest

from cedlite import syntax as S
from cedlite.cli import main
from cedlite.corpus import load_corpus
from cedlite.normalize import Fuel
from cedlite.parser import parse_files, parse_signature
from cedlite.printer import print_classifier
from cedlite.syntax import KernelError
from cedlite.typecheck import Checker, check_signature
from cedlite.values import evaluate, size
from perfbench import coercegen
from rewrite_oracle import rho_chain_eager

PRELUDE = [str(resources.files("cedlite.corpus") / name)
           for name in coercegen.PRELUDE]
FILES = [str(resources.files("cedlite.corpus") / "nat.ced"),
         str(Path(__file__).parent / "rho_chains.ced")]
WARNING = "       warning: ρ rewrote no occurrences of the equation's left side"

PLAIN = f"""\
ok     chain3 : Π a : Nat . Π b : Nat . Π c : Nat . (a ≃ b) ➔ (b ≃ c) ➔ (c ≃ zero) ➔ (add zero a ≃ zero)  (fuel 8)
       erasure: λ a . λ b . λ c . λ p . λ q . λ r . λ x . x
ok     chainWarn : Π a : Nat . Π b : Nat . Π c : Nat . (a ≃ b) ➔ (b ≃ c) ➔ (a ≃ b)
       erasure: λ a . λ b . λ c . λ p . λ q . λ x . x
{WARNING}
error  chainBad: ρ proof is not an equality
{WARNING}
error  chainBeta: β requires convertible equands: ?3 vs ?2
{WARNING}
ok     SucEq : Nat ➔ ★
ok     chainFold : Π x : Nat . Π y : Nat . (x ≃ x) ➔ (suc y ≃ zero) ➔ (x ≃ x) ➔ SucEq y  (fuel 9)
       erasure: λ x . λ y . λ p . λ q . λ r . λ x' . x'
ok     chainPlus2 : Π x : Nat . Π y : Nat . (x ≃ x) ➔ (suc y ≃ zero) ➔ (x ≃ x) ➔ SucEq y  (fuel 9)
       erasure: λ x . λ y . λ p . λ q . λ r . λ x' . x'
ok     K : Nat ➔ Nat ➔ Nat
       erasure: λ a . λ b . a
ok     P : Nat ➔ ★
ok     F : Nat ➔ ★
ok     div3 : Π y : Nat . (y ≃ zero) ➔ (y ≃ y) ➔ F y  (fuel 8)
       erasure: λ y . λ q . λ r . λ s . λ x . x
ok     div : Π x : Nat . Π y : Nat . (x ≃ x) ➔ (y ≃ zero) ➔ (x ≃ x) ➔ F y  (fuel 8)
       erasure: λ x . λ y . λ p . λ q . λ r . λ s . λ x' . x'
ok     SelfEq : Nat ➔ ★
ok     chainAnn : Π x : Nat . Π y : Nat . (x ≃ y) ➔ ((λ t : SelfEq x . t) ≃ (λ t . t)) ➔ (x ≃ x)
       erasure: λ x . λ y . λ q . λ e . λ x' . x'
"""

PORCELAIN = """\
OK chain3
OK chainWarn
ERR chainBad ρ proof is not an equality
ERR chainBeta β requires convertible equands: ?3 vs ?2
OK SucEq
OK chainFold
OK chainPlus2
OK K
OK P
OK F
OK div3
OK div
OK SelfEq
OK chainAnn
"""


@pytest.mark.parametrize("mode, expected", [([], PLAIN),
                                            (["--porcelain"], PORCELAIN)],
                         ids=["plain", "porcelain"])
def test_rho_chain_reports_are_pinned(capsys, mode, expected):
    code = main(["check", *mode, *FILES])
    out = capsys.readouterr().out
    assert code == 1
    head, sep, tail = out.partition("chain3")
    assert sep, out
    assert head.rsplit("\n", 1)[1] + sep + tail == expected


# --- each link forces only what its rewrite can reach -----------------------

def compare_links(monkeypatch):
    """Check every ρ chain against `rho_chain_eager` as it is checked: the
    goal each link leaves, evaluated and read back forced (its terms
    normalized too from the chain's first ρ+ on), must be α-equal to the
    oracle's, with the same count. Returns the links compared (whether
    each is a ρ+) and the mismatches."""
    links, bad = [], []
    chains = []       # per `_check_rho` call, innermost last: its rewrites
    check_rho, rewrite = Checker._check_rho, Checker._rewrite

    def recorded(self, *args):
        out = rewrite(self, *args)
        chains[-1].append(out)
        return out

    def compared(self, ctx, t, w):
        lvl = size(ctx)
        oracle = Checker(self.sig, Fuel(self.meter.max_steps))
        try:
            want = rho_chain_eager(oracle, ctx, t, w)
        except KernelError as e:    # would fail the declaration unseen
            bad.append((t, str(e)))
            want = []
        chains.append([])
        try:
            check_rho(self, ctx, t, w)
        finally:
            got = chains.pop()
            if len(got) != len(want):
                bad.append((t, len(got), len(want)))
            rhos = []
            while type(t) is S.Rho:
                rhos.append(t.normalize_first)
                t = t.body
            normed = False
            for plus, (g, gc), (o, oc) in zip(rhos, got, want):
                links.append(plus)
                normed = normed or plus
                g, o = (oracle._quote(evaluate(x, lvl), lvl, True)
                        for x in (g, o))
                if normed:      # what a ρ+ left folded, it left unnormalized
                    g, o = (oracle._norm_term_positions(x) for x in (g, o))
                if gc != oc or g != o:
                    bad.append((print_classifier(g), gc,
                                print_classifier(o), oc))
    monkeypatch.setattr(Checker, "_rewrite", recorded)
    monkeypatch.setattr(Checker, "_check_rho", compared)
    return links, bad


# After nat.ced. The link forces `E x` to `D x ➔ D x`, then each `D x`,
# and rewrites six occurrences of x; `E y` holds no x and stays folded.
NESTED = """\
D ◂ Nat ➔ ★ = λ n : Nat . {n ≃ n} ➔ {n ≃ zero} .
E ◂ Nat ➔ ★ = λ n : Nat . D n ➔ D n .
nested ◂ Π x : Nat . Π y : Nat . Π q : {x ≃ y} . E y ➔ E x
  = λ x . λ y . λ q . ρ q - λ e . e .
"""


def test_each_link_leaves_the_goal_the_eager_oracle_leaves(monkeypatch):
    links, bad = compare_links(monkeypatch)
    check_signature(load_corpus())
    corpus_links = len(links)
    for seed in range(4):
        check_signature(parse_signature(
            coercegen.generate(seed).text, filename=f"gen-{seed}.ced",
            sig=parse_files(PRELUDE)))
    check_signature(parse_files(FILES))
    nested = check_signature(parse_signature(
        NESTED, filename="nested.ced", sig=parse_files(FILES[:1])))
    assert nested.decls[-1].ok and not nested.decls[-1].warnings
    assert bad == []
    assert corpus_links >= 25 and len(links) >= 86
    assert sum(links[:corpus_links]) >= 5 and sum(links) > sum(
        links[:corpus_links])


def test_a_link_leaves_a_part_without_its_left_side_folded(monkeypatch):
    # the left side erases to the variable xs; `Vec · A n`, the range of
    # the goal's arrow, lacks xs and reaches `_rewrite` as written, while
    # the goal read back forced has no `Vec` left
    goals = []
    rewrite = Checker._rewrite

    def recorded(self, node, *args):
        goals.append(node)
        return rewrite(self, node, *args)
    monkeypatch.setattr(Checker, "_rewrite", recorded)
    sig = parse_signature(
        "lazy ◂ ∀ A : ★ . ∀ n : Nat . Π xs : Vec · A n . Π ys : Vec · A n .\n"
        "  Π q : {xs ≃ ys} . {xs ≃ ys} ➔ Vec · A n\n"
        "  = Λ A . Λ n . λ xs . λ ys . λ q . ρ q - λ e . ys .",
        filename="lazy.ced", sig=parse_files(PRELUDE[:3]))
    row = check_signature(sig).decls[-1]
    assert row.name == "lazy" and row.ok, row.error
    goal = goals[-1]
    assert type(goal) is S.Pi and type(goal.dom) is S.Eq
    assert goal.body == S.AppTm(S.AppT(S.TRef("Vec"), S.TVar(5)), S.Var(4))
    forced = Checker(sig)._quote(evaluate(goal, 5), 5, True)
    assert S.TRef("Vec") not in nodes(forced)


def nodes(root) -> list:
    out, todo = [], [root]
    while todo:
        n = todo.pop()
        out.append(n)
        todo += [sub for sub, _ in S.subtrees(n, 0)]
    return out
