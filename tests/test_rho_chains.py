"""Chains of ρ links report what each link did, in order.

`ρ q1 - ρ q2 - … - b` rewrites one goal link by link. The reports of
`tests/rho_chains.ced` (read after `nat.ced`) are pinned as text: a
three-link chain mixing ρ and ρ+, one whose middle link rewrites nothing
and warns, one whose last link is not an equality, and one whose links
leave a goal β cannot prove. The fuel, warnings and errors were recorded
before chains were checked in one loop, and must not move.
"""

from importlib import resources
from pathlib import Path

import pytest

from cedlite.cli import main

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
"""

PORCELAIN = """\
OK chain3
OK chainWarn
ERR chainBad ρ proof is not an equality
ERR chainBeta β requires convertible equands: ?3 vs ?2
"""


@pytest.mark.parametrize("mode, expected", [([], PLAIN),
                                            (["--porcelain"], PORCELAIN)])
def test_rho_chain_reports_are_pinned(capsys, mode, expected):
    code = main(["check", *mode, *FILES])
    out = capsys.readouterr().out
    assert code == 1
    head, sep, tail = out.partition("chain3")
    assert sep, out
    assert head.rsplit("\n", 1)[1] + sep + tail == expected
