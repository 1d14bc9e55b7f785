"""The front end's diagnostics on 4,000 seeded inputs, pinned byte for byte.

Half the inputs are token soup, read by `parse_signature`, `parse_term`
and `parse_type` in turn against the corpus. The other half are one-token
mutations (a deletion, duplication, swap with the next token, or
replacement) of one declaration of the corpus or of the `coerce`
workload's file at seed 0, read against the declarations before it. Each
input gives one line of `tests/golden/parse_diagnostics.txt`: `OK`, or the
exception's class and text, which carries its position.

Regenerate the file, only for a change that means to move a diagnostic,
with `PYTHONPATH=src:. python tests/test_parse_diagnostics.py >
tests/golden/parse_diagnostics.txt`.
"""

import random
import re
from pathlib import Path

from cedlite.corpus import corpus_texts
from cedlite.parser import parse_signature, parse_term, parse_type, tokenize
from cedlite.syntax import KernelError, Signature
from perfbench import coercegen

GOLDEN = Path(__file__).parent / "golden" / "parse_diagnostics.txt"

PIECES = ["λ", "Λ", "Π", "∀", "ι", "★", "➔", "➾", "≃", "·", "β", "ρ", "ρ+",
          "ς", "◂", "(", ")", "[", "]", "{", "}", ",", ":", "=", ".", "-",
          "-x", "x", "ys", "v2l-v2l", "β{x}", "x.1", "#assert-id", "Nat",
          "zero", "suc", "A", "X", "xs", "List", "l2v", "VecC"]
READERS = (parse_signature, parse_term, parse_type)
# Replacements that often keep a mutant well formed: each token of a group
# may become another of its group.
GROUPS = [["λ", "Λ"], ["Π", "∀", "ι", "λ"], ["➔", "➾", "≃"], ["·", "-"],
          ["ρ", "ρ+", "ς"], ["(", "{"], [")", "}"],
          ["x", "A", "X", "xs", "n", "Nat", "zero", "suc", "List", "VecC",
           "l2v", "v2l", "length", "★", "β"]]


def _chunks(text: str) -> list[str]:
    """The top-level items of a source: each starts in column 1."""
    return [c for c in re.split(r"\n(?=\S)", text) if len(tokenize(c)) > 1]


def _sources() -> list[tuple[str, Signature]]:
    """Every declaration or directive, with the names declared before it."""
    out = []
    for texts in ([t for _, t in corpus_texts()],
                  [dict(corpus_texts())[f] for f in coercegen.PRELUDE]
                  + [coercegen.generate(0).text]):
        sig = Signature()
        for text in texts:
            for chunk in _chunks(text):
                out.append((chunk, sig.staged()))
                parse_signature(chunk, sig=sig)
    return out


def _mutate(rng: random.Random, text: str) -> str:
    spans = [(at, at + len(word) + (kind == "PROJ"))
             for kind, word, at in tokenize(text)[:-1]]
    i = rng.randrange(len(spans))
    s, e = spans[i]
    op = rng.randrange(6)
    if op == 0:
        return text[:s] + text[e:]
    if op == 1:
        return text[:e] + " " + text[s:e] + text[e:]
    if op == 2 and i + 1 < len(spans):
        s2, e2 = spans[i + 1]
        return text[:s] + text[s2:e2] + text[e:s2] + text[s:e] + text[e2:]
    group = next((g for g in GROUPS if text[s:e] in g), None) \
        if op > 3 else None
    return text[:s] + rng.choice(group or PIECES) + text[e:]


def _outcome(read, *args, **kwargs) -> str:
    try:
        read(*args, **kwargs)
    except KernelError as e:
        return f"{type(e).__name__}: {e}"
    return "OK"


def diagnostics() -> list[str]:
    rng = random.Random(20261018)
    corpus = Signature()
    for name, text in corpus_texts():
        parse_signature(text, filename=name, sig=corpus)
    lines = []
    for n in range(2000):
        text = " ".join(rng.choice(PIECES)
                        for _ in range(rng.randrange(1, 25)))
        read = READERS[n % 3]
        lines.append(_outcome(read, text, sig=corpus.staged()))
    sources = _sources()
    for _ in range(2000):
        text, sig = rng.choice(sources)
        lines.append(_outcome(parse_signature, _mutate(rng, text),
                              filename="mutant.ced", sig=sig.staged()))
    return lines


def test_diagnostics_equal_the_golden_file():
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = diagnostics()
    assert len(got) == len(expected) == 4000
    diffs = [(i, g, e) for i, (g, e) in enumerate(zip(got, expected))
             if g != e]
    assert not diffs, diffs[:5]


def test_the_inputs_reach_every_outcome():
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    kinds = {line.split(":")[0] for line in lines}
    assert kinds == {"OK", "ParseError", "ResolveError"}


if __name__ == "__main__":
    print("\n".join(diagnostics()))
