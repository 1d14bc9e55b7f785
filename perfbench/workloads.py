"""The benchmark's three workloads and their verdict oracles.

A workload is set up (possibly several times; the last set-up is used),
then runs units. `unit(i)` performs one timed operation through the
kernel's public entry points and returns how many verdicts it decided
and, if any verdict differs from the answer the benchmark knows without
asking the kernel, a description of the first wrong one.

Every call into the kernel looks the function up on its module at call
time (`self.cli.main`, `self.normalize.conv`, ...), so the wrappers the
tracer installs see it.
"""

from __future__ import annotations

import importlib
import io
import os
import random
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from . import church, coercegen

_DECL = re.compile(r"^(?:#assert-fail\s+)?([^\s#-]\S*)\s+◂", re.M)
_ASSERT = re.compile(r"^#assert-(?:id|not-id|erase|eq)\b", re.M)

WORK_DIR = Path(__file__).resolve().parent / "_work"


def expected_porcelain(texts) -> tuple[list[str], int]:
    """Porcelain lines of a development in which every claim holds, and
    its verdict count: one per declaration plus one per assertion
    directive (an `#assert-fail` declaration counts once, as itself)."""
    lines, verdicts = [], 0
    for text in texts:
        names = _DECL.findall(text)
        lines += [f"OK {n}" for n in names]
        verdicts += len(names) + len(_ASSERT.findall(text))
    return lines, verdicts


class Workload:
    name = ""
    pass_size = 1       # a timed run stops only after a whole pass
    trace_units = 1     # fixed size of the traced pass, so counts repeat
    tail_p = 75.0       # the tail percentile `unit_s_tail` reports

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.corpus_dir = root / "src" / "cedlite" / "corpus"
        self.cli = importlib.import_module("cedlite.cli")

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, i: int) -> tuple[int, str | None]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _run_cli(self, argv: list[str]) -> tuple[int, list[str]]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue().splitlines()

    def _check_porcelain(self, argv, expected: list[str]) -> str | None:
        rc, lines = self._run_cli(argv)
        if rc != 0:
            return f"exit code {rc}"
        if lines != expected:
            wrong = [a for a, b in zip(lines, expected) if a != b]
            return (f"{len(lines)} lines for {len(expected)} expected; "
                    f"first mismatch {wrong[:1]}")
        return None


class Corpus(Workload):
    """`cedlite corpus --porcelain` in process, from a cold signature.

    The paper's own development: 86 declarations and 40 assertions. It
    is the workload where the ρ rewrite does most of the work. Its input
    is fixed; the seed changes nothing.
    """

    name = "corpus"
    trace_units = 5

    def setup(self) -> None:
        order = importlib.import_module("cedlite.corpus").FILE_ORDER
        texts = [(self.corpus_dir / f).read_text(encoding="utf-8")
                 for f in order]
        self.expected, self.verdicts = expected_porcelain(texts)
        warm_up(lambda: self.unit(0))

    def unit(self, i: int) -> tuple[int, str | None]:
        problem = self._check_porcelain(["corpus", "--porcelain"],
                                        self.expected)
        return self.verdicts, problem


class Church(Workload):
    """Seeded numeral queries against `nat.ced`, loaded once in set-up.

    Normalization is almost all of the work: `add`/`mult` unfold
    definitions through `elimNat` (δ-cache hits after the warm-up),
    Church exponentiation is β with duplication and no unfolding. One
    unit parses, erases and normalizes one query, then asks `conv` the
    expected numeral (must say yes) and that numeral plus one (must say
    no). The normal form is decoded by the benchmark and compared with
    Python arithmetic. Set-up deals `DECKS` seeded decks; units cycle
    through all of them, so each run's cost profile averages over many
    draws from the slot bands.
    """

    name = "church"
    DECKS = 8
    pass_size = len(church.SLOTS)
    trace_units = len(church.SLOTS)
    tail_p = 90.0

    def setup(self) -> None:
        self.parser = importlib.import_module("cedlite.parser")
        self.erasure = importlib.import_module("cedlite.erasure")
        self.normalize = importlib.import_module("cedlite.normalize")
        self.sig = self.parser.parse_files([self.corpus_dir / "nat.ced"])
        rng = random.Random(self.seed)
        self.deck = [q for _ in range(self.DECKS) for q in church.deck(rng)]
        for q in church.WARM_UP:
            warm_up(lambda: self._query(q))

    def unit(self, i: int) -> tuple[int, str | None]:
        return 1, self._query(self.deck[i % len(self.deck)])

    def _query(self, q: church.Query) -> str | None:
        term = self.parser.parse_term(q.source, self.sig)
        nf = self.normalize.normalize(self.erasure.erase(term), self.sig).term
        value = church.decode(nf, q.style)
        yes = self.normalize.conv(nf, church.numeral(q.expected, q.style),
                                  self.sig)
        no = self.normalize.conv(nf, church.numeral(q.expected + 1, q.style),
                                 self.sig)
        if value != q.expected or not yes or no:
            return (f"{q.kind} {q.a} {q.b}: decoded {value}, expected "
                    f"{q.expected}; conv yes={yes} no={no}")
        return None


class Coerce(Workload):
    """`cedlite check --porcelain <prelude> gen.ced` on generated chains.

    Scales the paper's central claim, identity coercions, and runs the
    rejection path beside the acceptance path. The work is type-level
    (substitution, weak-head normalization and conversion of types);
    the generated source also gives the parser its largest share. Set-up
    writes `FILES` seeded files and warms up on the prelude alone; unit i
    checks file i mod FILES, so each run averages over many generated
    developments (the cost of one file varies by about 8% from file to
    file).
    """

    name = "coerce"
    FILES = 32
    trace_units = 8

    def setup(self) -> None:
        rng = random.Random(self.seed)
        prelude = [self.corpus_dir / f for f in coercegen.PRELUDE]
        expected, verdicts = expected_porcelain(
            p.read_text(encoding="utf-8") for p in prelude)
        self.work = WORK_DIR / f"coerce-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.inputs = []
        warm = ["check", "--porcelain", *map(str, prelude)]
        for j in range(self.FILES):
            gen = coercegen.generate(rng.randrange(2 ** 32))
            path = self.work / f"gen-{j}.ced"
            path.write_text(gen.text, encoding="utf-8")
            argv = ["check", "--porcelain", *map(str, prelude), str(path)]
            self.inputs.append(
                (argv, expected + [f"OK {n}" for n in gen.decls],
                 verdicts + gen.verdicts))
        warm_up(lambda: self._check_porcelain(warm, expected))

    def unit(self, i: int) -> tuple[int, str | None]:
        argv, expected, verdicts = self.inputs[i % self.FILES]
        return verdicts, self._check_porcelain(argv, expected)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()


def warm_up(fn) -> None:
    """Run the kernel once untimed, so lazy set-up inside it is done before
    timing. The outcome is not counted; timed units report any failure."""
    try:
        fn()
    except Exception:
        pass


WORKLOADS = {w.name: w for w in (Corpus, Church, Coerce)}
