"""Inputs that once hung the checker or ended in a Python traceback.

Each runs through the command line in a fresh interpreter with a
timeout, so a hang fails the test instead of stalling the suite.
"""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import cedlite

ADVERSARIAL = Path(__file__).parent / "adversarial"
NAT = str(resources.files("cedlite.corpus") / "nat.ced")
SRC = str(Path(cedlite.__file__).parents[1])


def cedlite_cli(*argv, **environ):
    env = dict(os.environ, PYTHONPATH=SRC, **environ)
    env.pop("CEDLITE_FUEL", None)
    return subprocess.run([sys.executable, "-m", "cedlite.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env=env)


def test_rejected_type_definitions_are_never_unfolded():
    # W · W unfolds to itself; both are rejected, and `id` must not loop
    run = cedlite_cli("check", "--fuel", "1000", "--porcelain",
                      str(ADVERSARIAL / "omega.ced"))
    lines = run.stdout.splitlines()
    assert [ln.split()[:2] for ln in lines] == \
        [["ERR", "W"], ["ERR", "Om"], ["OK", "id"]]
    assert run.returncode == 1
    assert "Traceback" not in run.stderr


def test_deep_nesting_parses_and_the_checker_reports_its_depth():
    # the reader has no nesting limit; the checker's recursion still has
    # one, and it fails only the declaration at hand
    run = cedlite_cli("check", "--porcelain", NAT,
                      str(ADVERSARIAL / "deep_numeral.ced"))
    assert run.stdout.splitlines()[-1] == "ERR n400 depth exhausted"
    assert run.returncode == 1
    assert run.stderr == ""


def test_both_report_modes_agree_on_a_four_hundred_binder_declaration(
        tmp_path):
    # the checker accepts `f`; printing its report must not fail it
    n = 400
    path = tmp_path / "binders.ced"
    path.write_text("f ◂ " + "".join(f"Π x{i} : Nat . " for i in range(n))
                    + "Nat = " + "".join(f"λ x{i} . " for i in range(n))
                    + "x0 .\n", encoding="utf-8")
    run = cedlite_cli("check", "--porcelain", NAT, str(path))
    assert run.stdout.splitlines()[-1] == "OK f"
    assert run.returncode == 0
    report = cedlite_cli("check", NAT, str(path))
    assert report.returncode == 0
    assert report.stderr == ""
    assert any(line.startswith("ok     f : Nat ➔ Nat ➔")
               for line in report.stdout.splitlines())


def test_a_four_hundred_binder_classifier_converts_with_itself(tmp_path):
    # conversion compares binder values by structure, one fresh variable
    # per binder; comparing T with itself must fit the depth budget
    n = 400
    ty = "".join(f"Π x{i} : Nat . " for i in range(n)) + "Nat"
    path = tmp_path / "deep_classifier.ced"
    path.write_text(
        f"f ◂ {ty} = " + "".join(f"λ x{i} . " for i in range(n)) + "x0 .\n"
        f"k ◂ ({ty}) ➔ {ty} = λ g . g .\n"
        f"h ◂ {ty} = k f .\n"
        f"p ◂ ι z : ({ty}) . {ty} = [ f , f ] .\n", encoding="utf-8")
    run = cedlite_cli("check", "--porcelain", NAT, str(path))
    assert run.stdout.splitlines()[-4:] == ["OK f", "OK k", "OK h", "OK p"]
    assert run.returncode == 0
    assert run.stderr == ""


def test_ten_thousand_deep_inputs_end_in_verdicts(tmp_path):
    n = 10_000
    path = tmp_path / "deep.ced"
    path.write_text("T ◂ ★ = " + "(" * n + "Nat" + ")" * n + " .\n"
                    "n ◂ Nat = " + "suc (" * n + "zero" + ")" * n + " .\n"
                    "c ◂ NatC = Λ X . λ z . λ s . " + "s (" * n + "z"
                    + ")" * n + " .\n", encoding="utf-8")
    run = cedlite_cli("check", "--porcelain", NAT, str(path))
    assert run.stdout.splitlines()[-3:] == [
        "OK T", "ERR n depth exhausted", "ERR c depth exhausted"]
    assert run.returncode == 1
    assert run.stderr == ""


C65K = "λ z . λ s . " + "s (" * 65_535 + "s z" + ")" * 65_535


def test_c65k_checks_and_prints_its_erasure():
    # the erasure normal form of c65k is 65,536 applications deep
    run = cedlite_cli("check", "--porcelain",
                      str(ADVERSARIAL / "church_65k.ced"))
    assert run.stdout.splitlines() == [
        "OK NatC", "OK two", "OK sq", "OK c16", "OK c256", "OK c65k"]
    assert run.returncode == 0
    assert run.stderr == ""
    report = cedlite_cli("check", str(ADVERSARIAL / "church_65k.ced"))
    assert report.stdout.splitlines()[-2:] == [
        "ok     c65k : NatC  (fuel 773)", "       erasure: " + C65K]
    assert report.returncode == 0
    assert report.stderr == ""


def test_c65k_normalizes_and_prints_outside_a_report():
    run = cedlite_cli("norm", str(ADVERSARIAL / "church_65k.ced"), "c65k")
    assert run.stdout == C65K + "\n"
    assert run.returncode == 0
    assert run.stderr == ""


def test_an_ascii_only_stdout_ends_in_a_report_not_a_traceback(tmp_path):
    # diagnostics keep their Unicode text (here the ➔ of a mismatch),
    # which an ASCII stdout escapes
    path = tmp_path / "ascii.ced"
    path.write_text("Nat ◂ ★ = ∀ X : ★ . X ➔ (X ➔ X) ➔ X .\n"
                    "two ◂ Nat = Λ X . λ z . λ s . s (s z) .\n"
                    "#assert-erase two = λ z . λ s . s z .\n"
                    "bad ◂ Nat ➔ Nat = two .\n", encoding="utf-8")
    for flags in ([], ["--ascii"]):
        run = cedlite_cli("check", *flags, str(path),
                          PYTHONIOENCODING="ascii")
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        assert "error  bad: type mismatch:" in run.stdout
    assert "       assert erases-to two: FAIL (normal form is " \
        "\\ z . \\ s . s (s z))" in run.stdout.splitlines()


def test_church_20_to_the_20_runs_out_of_fuel_and_checking_goes_on():
    run = cedlite_cli("check", "--porcelain",
                      str(ADVERSARIAL / "church_20_20.ced"))
    assert run.stdout.splitlines() == [
        "OK NatC", "OK c20", "OK exp",
        "ERR big fuel exhausted after 100000 reduction steps", "OK after"]
    assert run.returncode == 1
    assert "Traceback" not in run.stderr



def test_a_definition_out_of_fuel_is_rejected_and_stays_opaque(tmp_path):
    # `big` is rejected once; its uses see an opaque head instead of
    # paying the whole budget again, and an assertion on it repeats the
    # error without normalizing again
    text = (ADVERSARIAL / "church_20_20.ced").read_text(encoding="utf-8")
    path = tmp_path / "uses.ced"
    path.write_text(text + "use1 ◂ NatC = big .\nuse2 ◂ NatC = big .\n"
                    "#assert-id big\n", encoding="utf-8")
    run = cedlite_cli("check", "--porcelain", str(path))
    assert run.stdout.splitlines() == [
        "OK NatC", "OK c20", "OK exp",
        "ERR big fuel exhausted after 100000 reduction steps", "OK after",
        "OK use1", "OK use2"]
    assert run.returncode == 1
    report = cedlite_cli("check", str(path)).stdout.splitlines()
    assert "       assert identity big: FAIL (fuel exhausted after 100000 " \
        "reduction steps)" in report
    assert report[-4:] == ["ok     use1 : NatC", "       erasure: big",
                           "ok     use2 : NatC", "       erasure: big"]

def test_a_thousand_deep_delta_chain_checks():
    # d{i} = Λ X . λ x . d{i-1} · X x, each unfolding the one before
    run = cedlite_cli("check", "--porcelain",
                      str(ADVERSARIAL / "delta_chain_1000.ced"))
    lines = run.stdout.splitlines()
    assert lines == ["OK Id"] + [f"OK d{i}" for i in range(1000)]
    assert run.returncode == 0
    assert run.stderr == ""


def test_a_ten_thousand_deep_numeral_erases(tmp_path):
    n = 10_000
    path = tmp_path / "deep.ced"
    path.write_text("n ◂ Nat = " + "suc (" * n + "zero" + ")" * n + " .\n",
                    encoding="utf-8")
    run = cedlite_cli("erase", NAT, str(path), "n")
    assert run.stdout == "suc (" * (n - 1) + "suc zero" + ")" * (n - 1) \
        + "\n"
    assert run.returncode == 0
    assert run.stderr == ""


def doubling(n: int) -> str:
    """`Tn · Nat` and `Sn · Nat` are one type, but comparing them unfolds
    2^n pairs of heads that differ."""
    lines = []
    for c in "TS":
        lines.append(f"{c}0 ◂ ★ ➔ ★ = λ X : ★ . X ➔ X .")
        lines += [f"{c}{i} ◂ ★ ➔ ★ = λ X : ★ . {c}{i - 1} · X ➔ "
                  f"{c}{i - 1} · X ." for i in range(1, n + 1)]
    lines.append(f"f ◂ T{n} · Nat ➔ S{n} · Nat = λ x . x .")
    return "\n".join(lines) + "\n"


def test_type_level_reduction_runs_out_of_fuel():
    # every type-level δ-unfold and β-step is one step of the declaration
    path = ADVERSARIAL / "type_doubling.ced"
    assert doubling(40) in path.read_text(encoding="utf-8")
    run = cedlite_cli("check", "--porcelain", NAT, str(path))
    assert run.stdout.splitlines()[-1] == \
        "ERR f fuel exhausted after 100000 reduction steps"
    assert run.returncode == 1
    assert run.stderr == ""


def test_a_small_budget_bounds_type_level_reduction(tmp_path):
    path = tmp_path / "doubling16.ced"
    path.write_text(doubling(16), encoding="utf-8")
    run = cedlite_cli("check", "--fuel", "1000", "--porcelain", NAT,
                      str(path))
    assert run.stdout.splitlines()[-1] == \
        "ERR f fuel exhausted after 1000 reduction steps"
    assert run.returncode == 1
    small = tmp_path / "doubling4.ced"
    small.write_text(doubling(4), encoding="utf-8")
    run = cedlite_cli("check", "--fuel", "1000", NAT, str(small))
    assert run.stdout.splitlines()[-2:] == [
        "ok     f : T4 · Nat ➔ S4 · Nat  (fuel 124)",
        "       erasure: λ x . x"]
    assert run.returncode == 0
    # an expected failure that runs out counts the budget, not the step
    # that overran
    text = (ADVERSARIAL / "type_doubling.ced").read_text(encoding="utf-8")
    expected = tmp_path / "doubling_fails.ced"
    expected.write_text(text.replace("\nf ◂", "\n#assert-fail f ◂"),
                        encoding="utf-8")
    run = cedlite_cli("check", "--fuel", "1000", NAT, str(expected))
    assert run.stdout.splitlines()[-2:] == [
        "ok     f : T40 · Nat ➔ S40 · Nat  (fuel 1000)",
        "       assert fails f: ok"]
    assert run.returncode == 0
