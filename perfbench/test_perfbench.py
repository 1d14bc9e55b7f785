"""Tests of the benchmark itself: hooks, failure accounting, oracles and
the exact repeat of per-layer counts."""

from __future__ import annotations

import importlib
import random
from pathlib import Path

import pytest

from perfbench import church, coercegen
from perfbench.harness import percentile, run_pass, traced_pass, units_for_tail
from perfbench.tracing import (
    DETERMINISTIC_COUNTS, HOOKS, Hook, HookMissing, resolve_hooks,
)
from perfbench.workloads import WORKLOADS, expected_porcelain

ROOT = Path(__file__).resolve().parent.parent


def test_every_hook_resolves():
    assert len(resolve_hooks()) == len(HOOKS)


def test_renamed_hook_fails_loudly():
    with pytest.raises(HookMissing):
        resolve_hooks([Hook("cedlite.normalize", "_renamed_def_nf", "x")])
    with pytest.raises(HookMissing):
        resolve_hooks([Hook("cedlite.typecheck", "Checker._renamed", "x")])


def test_uninstall_restores_every_binding():
    norm = importlib.import_module("cedlite.normalize")
    tc = importlib.import_module("cedlite.typecheck")
    before = (norm.normalize, tc.normalize, tc.Checker.type_conv)
    wl = WORKLOADS["church"](ROOT, 0)
    wl.setup()
    traced_pass(wl, 1)
    assert (norm.normalize, tc.normalize, tc.Checker.type_conv) == before


def test_escaped_exception_is_a_failed_unit_and_the_run_goes_on(monkeypatch):
    wl = WORKLOADS["church"](ROOT, 0)
    wl.setup()
    norm = importlib.import_module("cedlite.normalize")
    real = norm.normalize
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RecursionError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(norm, "normalize", flaky)
    run = run_pass(wl, units=3)
    assert (run.attempted, run.failed, len(run.times)) == (3, 1, 3)
    assert run.verdicts == 2
    assert "RecursionError: injected" in run.problems[0]


def test_wrong_verdict_is_a_failed_unit(monkeypatch):
    wl = WORKLOADS["church"](ROOT, 0)
    wl.setup()
    monkeypatch.setattr(wl, "deck", [church.Query(
        "add", 1, 1, "add (suc (zero)) (suc (zero))", 3, church.NAT)])
    run = run_pass(wl, units=1)
    assert (run.attempted, run.failed, run.verdicts) == (1, 1, 0)


@pytest.mark.parametrize("p,n", [(75.0, 40), (90.0, 100), (99.0, 1000)])
def test_tail_percentile_has_ten_units_beyond_it(p, n):
    assert units_for_tail(p) == n
    times = [float(i) for i in range(n)]
    beyond = [t for t in times if t > percentile(times, p)]
    assert len(beyond) == 10


@pytest.mark.parametrize("n", [0, 1, 2, 7, 256])
@pytest.mark.parametrize("style", [church.NAT, church.CHURCH])
def test_numeral_decodes_to_its_value(n, style):
    assert church.decode(church.numeral(n, style), style) == n


def test_decoder_rejects_non_numerals():
    from cedlite.erasure import PApp, PLam, PVar
    assert church.decode(PLam("x", PVar(0)), church.NAT) is None
    bad = PLam("a", PLam("b", PApp(PVar(0), PVar(0))))
    assert church.decode(bad, church.NAT) is None


def test_deck_is_seeded_and_stays_under_the_depth_cap():
    d1, d2 = church.deck(random.Random(7)), church.deck(random.Random(7))
    assert d1 == d2 and d1 != church.deck(random.Random(8))
    for q in d1:
        assert q.expected <= 256
        depth = max_depth = 0
        for ch in q.source:
            depth += (ch == "(") - (ch == ")")
            max_depth = max(max_depth, depth)
        assert max_depth <= 100


def test_generator_is_seeded_and_counts_its_verdicts():
    g = coercegen.generate(3)
    assert g.text == coercegen.generate(3).text != coercegen.generate(4).text
    lines, verdicts = expected_porcelain([g.text])
    assert lines == [f"OK {n}" for n in g.decls]
    assert verdicts == g.verdicts
    assert g.text.count("#assert-not-id") == len(coercegen.NOT_ID_LENGTHS)
    assert g.text.count("#assert-fail") == len(coercegen.FAIL_LENGTHS)


def test_corpus_oracle_matches_the_claim_map():
    wl = WORKLOADS["corpus"](ROOT, 0)
    order = importlib.import_module("cedlite.corpus").FILE_ORDER
    lines, verdicts = expected_porcelain(
        (wl.corpus_dir / f).read_text(encoding="utf-8") for f in order)
    assert (len(lines), verdicts - len(lines)) == (86, 40)


@pytest.mark.parametrize("name,units", [("corpus", 1), ("church", 3),
                                        ("coerce", 1)])
def test_per_layer_counts_repeat_exactly(name, units):
    counts = []
    for _ in range(2):
        wl = WORKLOADS[name](ROOT, 11)
        try:
            wl.setup()
            run, tracer = traced_pass(wl, units)
        finally:
            wl.close()
        assert run.failed == 0, run.problems
        m = tracer.metrics()
        counts.append({k: m[k] for k in DETERMINISTIC_COUNTS})
        assert m["normalize.normalize_calls"] > 0 and m["parser.tokens"] > 0
    assert counts[0] == counts[1]
