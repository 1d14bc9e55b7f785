"""Readback of classifier values, pinned byte for byte.

Two files under `tests/golden/` hold text printed from types that the
checker reads back to syntax:

* `classifier_nf.txt`: the classifier of every declaration of the corpus
  and of the `coerce` workload's files at seeds 0-3, evaluated and read
  back in full normal form (`Checker._quote` with `nf`);
* `coercegen_mismatch.txt`: the `check` reports of those four files with
  `#assert-fail ` stripped, so that every expected failure prints its
  `type mismatch`, and with each `(fuel N)` dropped.

Regenerate them, only for a change that means to move a printed type,
with `PYTHONPATH=src:. python tests/test_readback_golden.py`.
"""

import io
import re
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

from cedlite import cli
from cedlite.corpus import load_corpus
from cedlite.parser import parse_files, parse_signature
from cedlite.printer import print_classifier
from cedlite.typecheck import Checker
from cedlite.values import evaluate
from perfbench import coercegen

GOLDEN = Path(__file__).parent / "golden"
PRELUDE = [str(resources.files("cedlite.corpus") / name)
           for name in coercegen.PRELUDE]
SEEDS = range(4)


def classifier_nfs() -> str:
    lines = []
    sources = [("corpus", load_corpus(), 0)]
    for seed in SEEDS:
        sig = parse_files(PRELUDE)
        before = len(sig.decls)
        parse_signature(coercegen.generate(seed).text, filename="gen.ced",
                        sig=sig)
        sources.append((f"coercegen {seed}", sig, before))
    for source, sig, start in sources:
        lines.append(f"-- {source}")
        for decl in sig.decls[start:]:
            nf = Checker(sig)._quote(evaluate(decl.classifier, 0), 0, True)
            lines.append(f"{decl.name} : {print_classifier(nf)}")
    return "\n".join(lines) + "\n"


def mismatch_reports(tmp: Path) -> str:
    out = []
    for seed in SEEDS:
        path = tmp / f"gen-{seed}.ced"
        path.write_text(coercegen.generate(seed).text
                        .replace("#assert-fail ", ""), encoding="utf-8")
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["check", *PRELUDE, str(path)])
        out.append(f"-- seed {seed}, exit {code}")
        out.append(re.sub(r"  \(fuel \d+\)", "", buf.getvalue()))
    return "\n".join(out)


def test_readback_prints_as_the_golden_files(tmp_path):
    assert classifier_nfs() == (GOLDEN / "classifier_nf.txt").read_text(
        encoding="utf-8")
    assert mismatch_reports(tmp_path) == (
        GOLDEN / "coercegen_mismatch.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile
    (GOLDEN / "classifier_nf.txt").write_text(classifier_nfs(),
                                              encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "coercegen_mismatch.txt").write_text(
            mismatch_reports(Path(tmp)), encoding="utf-8")
