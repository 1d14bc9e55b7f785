"""The regex lexer against the former character-loop lexer.

Both must give the same `(kind, text, line, col)` stream, or the same
error message, on the corpus, on generated coercion chains and on
random strings over the token alphabet. The oracle's two known faults
(see `lex_oracle`) are mended in its stream before the comparison, and
only where their predicates say they show.
"""

import random

from cedlite.corpus import corpus_texts
from cedlite.parser import ParseError, tokenize
from lex_oracle import tokenize as oracle_tokenize
from perfbench import coercegen

PIECES = [
    "λ", "\\", "Λ", "/\\", "Π", "Pi", "∀", "forall", "ι", "iota", "★", "*",
    "➔", "->", "➾", "=>", "≃", "==", "ς", "~", "ρ", "rho", "ρ+", "rho+",
    "β", "beta", "·", "@", "◂", "<|", "=", ".", "(", ")", "[", "]", "{",
    "}", ",", ":", "-", "--", "-x", ".1", ".2", "#a-b", "#assert-id", "#",
    "x", "ys", "v2l-v2l", "_", "x1", "é", "½", "²", "'", "′", "Pix",
    "λx", "1", "/", "<", "+", "%", " ", " ", " ", "\t", "\n", "\r",
]


def line_col(text, offset):
    """The 1-based line and column of `offset` in `text`."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def stream(lex, text):
    """Every token as `(kind, text, line, col)`, or the error message. The
    kernel's tokens are `(kind, text, offset)` tuples; the oracle's carry
    their position."""
    try:
        return [(t.kind, t.text, t.pos.line, t.pos.col)
                if lex is oracle_tokenize
                else (t[0], t[1], *line_col(text, t[2]))
                for t in lex(text, "<fuzz>")]
    except ParseError as e:
        return str(e)


def ends_in_tight_dot(text):
    """The oracle lexes a `.` right after a non-blank character at the end
    of the input as `PROJ ""`."""
    return len(text) > 1 and text[-1] == "." and text[-2] not in " \t\r\n"


def ends_in_comment(text, eof_col):
    """The oracle puts `EOF` at the start of a trailing comment that has
    no newline after it."""
    last_line = text[text.rfind("\n") + 1:]
    return last_line[eof_col - 1:].startswith("--")


def mended(text, old, mends):
    """The oracle's stream with the two faults above mended where their
    predicates hold; `mends` counts each mend by name."""
    if isinstance(old, str):
        return old
    old = list(old)
    if ends_in_tight_dot(text) and old[-2:-1] and old[-2][:2] == ("PROJ", ""):
        _, _, line, col = old[-2]
        old[-2:] = [("DOT", ".", line, col), ("EOF", "", line, col + 1)]
        mends["tight dot"] += 1
    _, _, line, col = old[-1]
    if ends_in_comment(text, col):
        old[-1] = ("EOF", "", line, len(text) - text.rfind("\n"))
        mends["comment"] += 1
    return old


def assert_same(text, mends):
    new = stream(tokenize, text)
    old = stream(oracle_tokenize, text)
    if new != old:
        assert new == mended(text, old, mends), repr(text)


def test_corpus_and_generated_chains_lex_as_before():
    mends = {"tight dot": 0, "comment": 0}
    for _, text in corpus_texts():
        assert_same(text, mends)
    for seed in range(24):
        text = coercegen.generate(seed).text
        assert_same(text, mends)
        assert_same(text.replace("#assert-fail ", ""), mends)
    assert mends == {"tight dot": 0, "comment": 0}


def test_random_strings_lex_as_before():
    rng = random.Random(20181)
    mends = {"tight dot": 0, "comment": 0}
    for _ in range(100_000):
        text = "".join(rng.choice(PIECES) for _ in range(rng.randrange(1, 12)))
        assert_same(text, mends)
    # both faults do occur in the sample, so each mend is exercised
    assert mends["tight dot"] > 0 and mends["comment"] > 0


# Inputs where a split into tokens and the gaps after them could go wrong:
# a comment at the end, a dash before the end or a blank, `.1` where it
# is no projection, words that start with a numeral, and the spellings
# that share a first character with an error or a longer spelling.
EDGE_CASES = [
    "x -- note", "-- note", "x --", "x\n-- note", "--",
    "x -", "-", "x-", "ρ q -\tx", "ρ q -\rx", "ρ q -\r\nx", "x -\t",
    ".1", ".2 x", "x .1", "x\t.2", "-- c\n.1", "x -- c\n.2", "x.3", "x.1",
    "x.1.2", "x..1", "(x).2", "x.12",
    "1x", "2", "x 1", "½", "½x", "x ½", "x½", "²", "_1",
    "ρ+ q - x", "ρ+", "rho+ q - x", "rho+x", "rhox+", "ρ+x",
    "/\\ X . x", "/\\", "a <| b", "<|", "/", "x / y", "<", "x < y",
    "/x", "<x", "x/", "x<",
]


def test_edge_cases_lex_as_before():
    mends = {"tight dot": 0, "comment": 0}
    for text in EDGE_CASES:
        assert_same(text, mends)
    assert mends == {"tight dot": 0, "comment": 5}   # the five notes at EOF


def test_tight_dot_at_end_of_input_is_a_dot():
    kinds = [kind for kind, _, _ in tokenize("x.")]
    assert kinds == ["IDENT", "DOT", "EOF"]


def test_eof_after_trailing_comment_is_at_end_of_input():
    _, _, offset = tokenize("x -- note")[-1]
    assert line_col("x -- note", offset) == (1, 10)
