"""The text of every kernel diagnostic, one small source each.

Each source follows a shared prelude and is checked through the command
line. The expected line is the porcelain `ERR` line of a declaration the
checker rejects, the report's `assert ...: FAIL (...)` line of a failed
assertion, or the `parse error:` line of a name that does not resolve.
"""

import pytest

from cedlite.cli import main

PRELUDE = ("B ◂ ★ = ∀ X : ★ . X ➔ X .\n"
           "i ◂ B = Λ X . λ x . x .\n"
           "k ◂ B ➔ B ➔ B = λ a . λ b . a .\n"
           "Nat ◂ ★ = ∀ X : ★ . X ➔ (X ➔ X) ➔ X .\n"
           "zero ◂ Nat = Λ X . λ z . λ s . z .\n"
           "one ◂ Nat = Λ X . λ z . λ s . s z .\n")

DIAGNOSTICS = [
    # kinding
    ("F ◂ ★ ➔ ★ = λ X : ★ . X .\nf ◂ F = i .",
     "ERR f expected a ★-kinded type, got kind ★ ➔ ★"),
    ("C ◂ ★ = B · B .",
     "ERR C type applied to a type argument but its kind is not Π over a "
     "kind"),
    ("D ◂ ★ = B i .",
     "ERR D type applied to a term argument but its kind is not "
     "term-indexed"),
    ("E ◂ ★ ➔ ★ = B .",
     "ERR E body kinds to ★, not the ascribed ★ ➔ ★"),
    # annotations, ς, projections and ρ
    ("f ◂ B ➔ B = λ x : (B ➔ B) . x .",
     "ERR f λ binder annotation does not convert to the expected domain B"),
    # a ρ link leaves the part of its goal that lacks x as written
    ("g ◂ Π x : Nat . Π q : {x ≃ zero} . B ➔ {x ≃ zero}\n"
     "  = λ x . λ q . ρ q - λ b : Nat . β .",
     "ERR g λ binder annotation does not convert to the expected domain B"),
    ("s ◂ {i ≃ i} = ς i .",
     "ERR s ς applied to a non-equality proof"),
    ("s ◂ {i ≃ k} ➔ {i ≃ k} = λ q . ς q .",
     "ERR s ς proof does not match the goal with sides swapped"),
    ("p ◂ B = i.1 .",
     "ERR p projection from a non-intersection"),
    ("r ◂ B = ρ i - i .",
     "ERR r ρ proof is not an equality"),
    # conversion and inference
    ("pr ◂ ι x : Nat . Nat = [ zero , one ] .",
     "ERR pr intersection components have different erasures: "
     "λ z . λ s . z vs λ z . λ s . s z"),
    ("c ◂ B = β .",
     "ERR c cannot synthesize a type for this Beta term"),
    ("#assert-fail ok ◂ B = i .",
     "       assert fails ok: FAIL (declaration checked but was expected "
     "to fail)"),
    # name resolution
    ("T ◂ ★ = i .",
     "parse error: d.ced:7:9: i is a term-level definition, not a type"),
    ("x ◂ B = ★ .",
     "parse error: d.ced:7:9: ★ in a term position"),
    ("T ◂ ★ = B -i .",
     "parse error: d.ced:7:9: erased application in a type position"),
    ("T ◂ ★ = β .",
     "parse error: d.ced:7:9: term syntax in a type position"),
    ("x ◂ B = ∀ X : ★ . X .",
     "parse error: d.ced:7:9: type syntax in a term position"),
    ("F ◂ ★ ➔ ★ = λ X . X .",
     "parse error: d.ced:7:13: type-level λ binders must be annotated"),
    ("T ◂ ★ = ★ ➔ B .",
     "parse error: d.ced:7:9: ★ is a kind, not a type"),
    ("#assert-id nothing",
     "parse error: d.ced:7:1: assertion names unknown definition nothing"),
    ("#assert-id B",
     "parse error: d.ced:7:1: assertion target B has no erasure "
     "(type-level)"),
    ("#assert-eq i B",
     "parse error: d.ced:7:1: assertion names unknown term definition B"),
    ("#assert-foo i",
     "parse error: d.ced:7:1: unknown directive #assert-foo"),
    ("i ◂ B = Λ X . λ x . x .",
     "parse error: d.ced:7:1: duplicate definition i"),
    # assertions
    ("#assert-not-id i",
     "       assert not-identity i: FAIL (erasure IS the identity function)"),
    ("#assert-eq i k",
     "       assert erase-equal i k: FAIL (erasures are not convertible)"),
    ("bad ◂ B = zero .\n#assert-id bad",
     "       assert identity bad: FAIL (declaration bad did not check)"),
]


@pytest.mark.parametrize("source, line", DIAGNOSTICS,
                         ids=[line for _, line in DIAGNOSTICS])
def test_diagnostic_text(tmp_path, monkeypatch, capsys, source, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.ced").write_text(PRELUDE + source + "\n",
                                    encoding="utf-8")
    lines = []
    for flags in (["--porcelain"], []):
        assert main(["check", *flags, "d.ced"]) != 0
        captured = capsys.readouterr()
        lines += captured.out.splitlines() + captured.err.splitlines()
    assert line in lines
