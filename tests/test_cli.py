import re
from importlib import resources
from pathlib import Path

import pytest

from cedlite.cli import main

CORPUS = resources.files("cedlite.corpus")


def cpath(*names):
    return [str(CORPUS / n) for n in names]


PREFIX = cpath("nat.ced", "list.ced", "vec.ced")
GOLDEN = Path(__file__).parent / "golden"
ADVERSARIAL = Path(__file__).parent / "adversarial"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corpus_command_passes(capsys):
    code, out, _ = run(capsys, "corpus", "--porcelain")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(re.match(r"^(OK|ERR|ASSERT-FAIL) \S+", ln) for ln in lines)
    assert all(ln.startswith("OK ") for ln in lines)


def test_porcelain_output_is_stable(capsys):
    _, out1, _ = run(capsys, "corpus", "--porcelain")
    _, out2, _ = run(capsys, "corpus", "--porcelain")
    assert out1 == out2


@pytest.mark.parametrize("argv, golden", [
    (["corpus"], "corpus_report.txt"),
    (["corpus", "--porcelain"], "corpus_porcelain.txt"),
    (["corpus", "--ascii"], "corpus_report_ascii.txt"),
])
def test_corpus_output_is_byte_identical_to_golden(capsys, argv, golden):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


def test_check_files_in_order(capsys):
    code, out, _ = run(capsys, "check", *PREFIX)
    assert code == 0
    assert "ok     nilV" in out


def test_check_unbound_name_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ced"
    bad.write_text("x ◂ ★ = y .", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "unbound identifier y" in err
    assert re.search(r"\d+:\d+", err)


def test_check_failing_assertion_exits_1(tmp_path, capsys):
    f = tmp_path / "a.ced"
    f.write_text("c ◂ ★ = ∀ X : ★ . X ➔ X .\n"
                 "i ◂ c = Λ X . λ x . x .\n"
                 "k ◂ c ➔ c ➔ c = λ a . λ b . a .\n"
                 "#assert-id k\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", "--porcelain", str(f))
    assert code == 1
    assert "ASSERT-FAIL k" in out


def test_erase_prints_raw_erasure(capsys):
    code, out, _ = run(capsys, "erase", *PREFIX, "nilV")
    assert code == 0
    assert out.strip() == "mkVec nilCV"


def test_norm_prints_normal_form(capsys):
    code, out, _ = run(capsys, "norm", *PREFIX, "nilV")
    assert code == 0
    assert out.strip() == "λ cN . λ cC . cN"


def test_norm_ascii_spelling(capsys):
    code, out, _ = run(capsys, "norm", "--ascii", *PREFIX, "nilV")
    assert code == 0
    assert out.strip() == "\\ cN . \\ cC . cN"


def test_check_ascii_renders_report_in_ascii(capsys):
    code, out, _ = run(capsys, "check", "--ascii", PREFIX[0])
    assert code == 0
    assert "★" not in out and "λ" not in out
    assert "ok     NatC : *" in out


def test_assert_id_yes(capsys):
    code, out, _ = run(capsys, "assert-id", *PREFIX, "elimVec")
    assert code == 0
    assert out.strip() == "identity: yes"


def test_assert_id_no(capsys):
    code, out, _ = run(capsys, "assert-id", *PREFIX, "suc")
    assert code == 1
    assert out.strip() == "identity: no"


def test_eq_command(capsys):
    files = cpath("nat.ced", "list.ced", "vec.ced", "coercions-v2l.ced",
                  "coercions-l2v.ced", "reuse-vec.ced", "vecl-v2u.ced",
                  "reuse-list.ced")
    code, out, _ = run(capsys, "eq", *files, "appendL", "appendV")
    assert code == 0
    assert out.strip() == "convertible: yes"


def test_unknown_name_exits_2(capsys):
    code, _, err = run(capsys, "erase", *PREFIX, "missing")
    assert code == 2
    assert "unknown name" in err


def test_tiny_fuel_reports_failure(capsys):
    code, out, _ = run(capsys, "check", "--fuel", "5", "--porcelain", *PREFIX)
    assert code == 1
    assert "ERR" in out


def test_fuel_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("CEDLITE_FUEL", "5")
    code, _, _ = run(capsys, "check", "--porcelain", *PREFIX)
    assert code == 1
    # explicit flag wins over the environment
    monkeypatch.setenv("CEDLITE_FUEL", "5")
    code, _, _ = run(capsys, "check", "--fuel", "200000", "--porcelain",
                     *PREFIX)
    assert code == 0


def test_expected_failures_count_as_success(capsys):
    code, out, _ = run(capsys, "corpus", "--porcelain")
    assert code == 0
    assert "OK badPair" in out


def test_tight_dot_ends_the_last_declaration(tmp_path, capsys):
    f = tmp_path / "dot.ced"
    f.write_text("c ◂ ★ = ∀ X : ★ . X ➔ X .\n"
                 "i ◂ c = Λ X . λ x . x.", encoding="utf-8")
    code, out, _ = run(capsys, "check", "--porcelain", str(f))
    assert code == 0
    assert out.splitlines() == ["OK c", "OK i"]


@pytest.mark.parametrize("argv, env, message", [
    (["corpus", "--fuel", "0"], None, "invalid fuel value: '0'"),
    (["corpus", "--fuel", "-5"], None, "invalid fuel value: '-5'"),
    (["corpus"], "abc", "invalid fuel value: 'abc'"),
    (["corpus"], "0", "invalid fuel value: '0'"),
    (["erase", PREFIX[0]], None, "required: NAME"),
    (["eq", PREFIX[0], "zero"], None, "required: NAME"),
])
def test_usage_errors_exit_2_with_a_message(capsys, monkeypatch, argv, env,
                                            message):
    if env is not None:
        monkeypatch.setenv("CEDLITE_FUEL", env)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "usage: cedlite" in err and message in err


LEAK = ("leak ◂ ∀ A : ★ . ∀ a : A . A = Λ A . Λ a . a .\n"
        "use ◂ ∀ A : ★ . ∀ a : A . A = Λ A . Λ a . leak · A -a .\n")


@pytest.mark.parametrize("argv, exit_code, output", [
    (["norm", "use"], 0, "leak"),
    (["eq", "use", "leak"], 1, "convertible: no"),
    (["assert-id", "use"], 1, "identity: no"),
])
def test_a_rejected_definition_stays_opaque_outside_check(
        tmp_path, capsys, argv, exit_code, output):
    f = tmp_path / "leak.ced"
    f.write_text(LEAK, encoding="utf-8")
    command, *names = argv
    code, out, _ = run(capsys, command, str(f), *names)
    assert (code, out.strip()) == (exit_code, output)


@pytest.mark.parametrize("command", ["norm", "assert-id"])
def test_a_call_out_of_fuel_is_an_error_exit_1(capsys, command):
    code, out, err = run(capsys, command, "--fuel", "50",
                         str(ADVERSARIAL / "church_20_20.ced"), "big")
    assert (code, out) == (1, "")
    assert err == "error: fuel exhausted after 50 reduction steps\n"


def test_eq_spends_the_budget_once_per_definition_in_its_check(
        capsys, tmp_path):
    # `a` and `b` each check within 200 steps and start `eq` from the
    # normal forms stored then; normalizing both on one budget of 200
    # steps runs out
    from cedlite.erasure import erase
    from cedlite.normalize import Fuel, conv
    from cedlite.parser import parse_files
    from cedlite.syntax import KernelError
    from cedlite.typecheck import check_signature
    two = tmp_path / "two.ced"
    two.write_text("three ◂ Nat = suc (suc (suc zero)) .\n"
                   "a ◂ Nat = mult three (mult three three) .\n"
                   "b ◂ Nat = mult (mult three three) three .\n",
                   encoding="utf-8")
    files = cpath("nat.ced") + [str(two)]
    assert run(capsys, "eq", "--fuel", "200", *files, "a", "b") == (
        0, "convertible: yes\n", "")
    sig = parse_files(files)
    assert all(d.ok for d in check_signature(sig, Fuel(200)).decls)
    with pytest.raises(KernelError, match="fuel exhausted"):
        conv(erase(sig.lookup("a").body), erase(sig.lookup("b").body), sig,
             Fuel(200))


def test_a_missing_file_is_an_error_exit_2(capsys):
    code, out, err = run(capsys, "check", "/nonexistent.ced")
    assert (code, out) == (2, "")
    assert err == ("error: [Errno 2] No such file or directory: "
                   "'/nonexistent.ced'\n")


def test_a_type_definition_has_no_erasure(capsys):
    code, out, err = run(capsys, "erase", PREFIX[0], "Nat")
    assert (code, out) == (2, "")
    assert err == "Nat is a type-level definition and has no erasure\n"


@pytest.mark.parametrize("assertion, fuel, mark", [
    ("zero", [], "FAIL (normal form is λ cZ . λ cS . cS (cS cZ))"),
    ("mult (suc (suc zero)) (suc zero)", ["--fuel", "30"],
     "FAIL (fuel exhausted after 30 reduction steps)"),
])
def test_a_failed_erases_to_assertion_says_why(tmp_path, capsys, assertion,
                                               fuel, mark):
    f = tmp_path / "two.ced"
    f.write_text("two ◂ Nat = suc (suc zero) .\n"
                 f"#assert-erase two = {assertion} .\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", *fuel, PREFIX[0], str(f))
    assert code == 1
    assert out.splitlines()[-1] == f"       assert erases-to two: {mark}"
