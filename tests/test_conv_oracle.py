"""Conversion on values against conversion by readback.

`normalize.conv` compares two weak-head values and stops at the first
difference; `conv_oracle.py` keeps the conversion that read both normal
forms back and compared them. Every `conv` and `Checker._matches` call
made while checking the corpus, `coercegen` seeds 0–23 and the files in
`tests/adversarial/` runs beside the oracle, and so do `termgen` pairs
(open, closed and duplicating). Wherever the oracle ends within budget
the answers agree; a yes spends exactly the oracle's steps, a no at
most as many, and the kernel never runs out of fuel where the oracle
does not.
"""

import random
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

from cedlite import typecheck as tc
from cedlite.corpus import load_corpus
from cedlite.erasure import PApp, PLam, PRef, PVar, erase
from cedlite.normalize import Fuel, FuelExhausted, Meter, conv, normalize
from cedlite.parser import parse_files, parse_signature, parse_term
from cedlite.syntax import Signature, shift
from cedlite.typecheck import check_signature
from conv_oracle import conv_readback, matches_readback
from perfbench import coercegen
from termgen import DUPLICATING_CASES, church, gen_pure

CORPUS = resources.files("cedlite.corpus")
PRELUDE = [str(CORPUS / name) for name in coercegen.PRELUDE]
ADVERSARIAL = Path(__file__).parent / "adversarial"
OUT_OF_FUEL = "out of fuel"


def outcome(step, m: Meter, sig):
    """(answer, steps) of `step` on a meter at `m`'s count, and δ memos
    it adds undone, so neither side pays for a normal form the other
    computed. The answer is OUT_OF_FUEL if the budget runs out."""
    own = Meter(m.max_steps)
    own.used = m.used
    memo = dict(sig._def_nfs)
    try:
        answer = step(own)
    except FuelExhausted:
        answer = OUT_OF_FUEL
    finally:
        sig._def_nfs.clear()
        sig._def_nfs.update(memo)
    return answer, own.used - m.used


def judge(seen: Counter, what: str, oracle, kernel) -> None:
    (want, spent), (got, used) = oracle, kernel
    if want == OUT_OF_FUEL:
        assert got is not True, f"{what}: yes where the oracle ran out"
        seen[what, OUT_OF_FUEL, got] += 1
        return
    assert got == want, f"{what}: {got} where the oracle says {want}"
    assert used == spent if got else used <= spent, \
        f"{what}: {got} in {used} steps, the oracle took {spent}"
    seen[what, got] += 1


@pytest.fixture
def beside_oracle(monkeypatch):
    """Runs the oracle beside every `conv` and `_matches` call of the
    checker; yields the count of what was compared."""
    seen: Counter = Counter()
    kernel_conv, kernel_matches = tc.conv, tc.Checker._matches

    def beside(what, oracle_step, kernel_step, m: Meter, sig):
        oracle = outcome(oracle_step, m, sig)
        before = m.used
        try:
            got = kernel_step()
        except FuelExhausted:
            judge(seen, what, oracle, (OUT_OF_FUEL, m.used - before))
            raise
        judge(seen, what, oracle, (got, m.used - before))
        return got

    def conv_checked(t1, t2, sig, fuel=Fuel()):
        m = fuel if type(fuel) is Meter else Meter(fuel.max_steps)
        return beside("conv", lambda om: conv_readback(t1, t2, sig, om),
                      lambda: kernel_conv(t1, t2, sig, m), m, sig)

    def matches_checked(self, t, lhs, lhs_nf, lhs_mask):
        return beside("match", lambda om: matches_readback(
            self, t, lhs, lhs_nf, lhs_mask, om), lambda: kernel_matches(
            self, t, lhs, lhs_nf, lhs_mask), self.meter, self.sig)

    monkeypatch.setattr(tc, "conv", conv_checked)
    monkeypatch.setattr(tc.Checker, "_matches", matches_checked)
    yield seen


def test_every_conversion_of_the_corpus_check_agrees(beside_oracle):
    check_signature(load_corpus())
    for key in [("conv", True), ("conv", False), ("match", True),
                ("match", False)]:
        assert beside_oracle[key] > 0, key


@pytest.mark.parametrize("fuel", [12, 50])
def test_the_corpus_at_a_low_budget_agrees(beside_oracle, fuel):
    check_signature(load_corpus(), Fuel(fuel))
    assert beside_oracle["conv", True] and beside_oracle["conv", False]


def test_a_no_can_come_where_the_oracle_runs_out(beside_oracle):
    # at 12 steps, a definition rejected for lack of fuel stays a neutral
    # head, and a no comes before the whole normal forms would
    check_signature(load_corpus(), Fuel(12))
    assert beside_oracle["conv", OUT_OF_FUEL, False] > 0


@pytest.mark.parametrize("seeds", [range(0, 8), range(8, 16),
                                   range(16, 24)])
def test_every_conversion_of_generated_chains_agrees(beside_oracle, seeds):
    for seed in seeds:
        sig = parse_signature(coercegen.generate(seed).text,
                              filename=f"gen-{seed}.ced",
                              sig=parse_files(PRELUDE))
        check_signature(sig)
    assert beside_oracle["match", True] and beside_oracle["conv", False]


@pytest.mark.parametrize("name, after_nat, fuel", [
    ("church_65k", False, 100_000), ("church_20_20", False, 2_000),
    ("deep_numeral", True, 100_000), ("delta_chain_1000", False, 100_000),
    ("omega", False, 1_000), ("type_doubling", True, 2_000)])
def test_every_conversion_of_the_adversarial_files_agrees(
        beside_oracle, name, after_nat, fuel):
    files = [str(CORPUS / "nat.ced")] * after_nat \
        + [str(ADVERSARIAL / f"{name}.ced")]
    check_signature(parse_files(files), Fuel(fuel))


def oracle_and_kernel(t1, t2, sig, budget):
    seen: Counter = Counter()
    judge(seen, "pair",
          outcome(lambda m: conv_readback(t1, t2, sig, m), Meter(budget),
                  sig),
          outcome(lambda m: conv(t1, t2, sig, m), Meter(budget), sig))
    return seen


def variants(rng, t):
    """Terms that convert with `t`, and terms that mostly do not."""
    yield normalize(t, Signature()).term
    yield PApp(PLam("y", PVar(0)), t)
    yield PLam("e", PApp(shift(t, 1), PVar(0)))
    yield PApp(PLam("k", shift(t, 1)), PLam("w", PVar(0)))
    yield gen_pure(rng, rng.randint(1, 7), tuple(range(rng.randint(0, 3))))
    yield PApp(t, PVar(0))
    yield PLam("e", t)


@pytest.mark.parametrize("avail", [(), (0, 1, 2)], ids=["closed", "open"])
def test_generated_pairs_agree(avail):
    rng = random.Random(3131 + len(avail))
    seen: Counter = Counter()
    for _ in range(300):
        t = gen_pure(rng, rng.randint(1, 8), avail)
        for u in variants(rng, t):
            for budget in (2, 100_000):
                seen += oracle_and_kernel(t, u, Signature(), budget)
                seen += oracle_and_kernel(u, t, Signature(), budget)
    assert seen["pair", True] and seen["pair", False]
    assert seen["pair", OUT_OF_FUEL, OUT_OF_FUEL] \
        and seen["pair", OUT_OF_FUEL, False]


def test_duplicating_pairs_agree():
    numerals = [church(n) for n in range(10)]
    cases = DUPLICATING_CASES + numerals + [
        PLam("f", PApp(church(6), PVar(0))),
        PLam("f", PApp(church(2), PApp(church(3), PVar(0))))]
    seen: Counter = Counter()
    for t in cases:
        for u in cases:
            for budget in (5, 100_000):
                seen += oracle_and_kernel(t, u, Signature(), budget)
    assert seen["pair", True] > len(cases) and seen["pair", False]


@pytest.fixture(scope="module")
def church_65k():
    """church_65k.ced and, checked after it, 65,536 spelled as `sq (sq
    c16)`."""
    sig = parse_files([str(ADVERSARIAL / "church_65k.ced")])
    sig = parse_signature("c65kb ◂ NatC = sq (sq c16) .\n", sig=sig)
    assert all(r.status == "ok" for r in check_signature(sig).decls)
    return sig


def test_c65k_converts_on_values_as_by_readback(church_65k):
    # both sides are 65,536 applications deep: the walk needs no
    # recursion, and its yes spends what reading both back spends
    other = erase(parse_term("sq (sq c16)", church_65k))
    for t1, t2, want in [(PRef("c65k"), PRef("c65kb"), True),
                         (PRef("c65k"), other, True),
                         (PRef("c65k"), PRef("c256"), False),
                         (other, PRef("c256"), False)]:
        seen = oracle_and_kernel(t1, t2, church_65k, 100_000)
        assert seen["pair", want] == 1
