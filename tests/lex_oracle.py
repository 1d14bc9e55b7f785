"""The kernel's former character-loop lexer, kept as a test oracle.

`tests/test_lexer.py` requires the regex lexer in `cedlite.parser` to
produce the same token stream and the same errors as this one, apart
from two faults of this lexer that the regex lexer does not share:

* a `.` directly after a non-blank character at the very end of the
  input lexes here as a projection with empty text (`PROJ ""`), which
  the parser then fails to read as a number;
* after a trailing comment with no newline, `EOF` here carries the
  column where the comment starts, not the column where the input ends.
"""

from __future__ import annotations

from dataclasses import dataclass

from cedlite.parser import ParseError
from cedlite.syntax import Pos


@dataclass
class Token:
    kind: str
    text: str
    pos: Pos

_SINGLE = {
    "λ": "LAM", "Λ": "BIGLAM", "Π": "PI", "∀": "FORALL", "ι": "IOTA",
    "★": "STAR", "*": "STAR", "➔": "ARROW", "➾": "FATARROW", "≃": "SIMEQ",
    "ς": "SIGMA", "~": "SIGMA", "β": "BETA", "·": "CDOT", "@": "CDOT",
    "◂": "ASCRIBE", "\\": "LAM", "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACKET", "]": "RBRACKET", "{": "LBRACE", "}": "RBRACE",
    ",": "COMMA", ":": "COLON",
}

_KEYWORDS = {"Pi": "PI", "forall": "FORALL", "iota": "IOTA",
             "rho": "RHO", "beta": "BETA"}


def _ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _ident_char(c: str) -> bool:
    return c.isalnum() or c in "_'′"


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def pos() -> Pos:
        return Pos(line, col)

    def err(msg: str):
        raise ParseError(msg, pos(), filename)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        start = pos()
        if c == "-":
            nxt = text[i + 1] if i + 1 < n else ""
            if nxt == "-":
                while i < n and text[i] != "\n":
                    i += 1
                continue
            if nxt == ">":
                toks.append(Token("ARROW", "->", start))
                i += 2
                col += 2
                continue
            if nxt == "" or nxt in " \t\r\n":
                toks.append(Token("DASH", "-", start))
                i += 1
                col += 1
                continue
            toks.append(Token("ERASED", "-", start))
            i += 1
            col += 1
            continue
        if c == "=":
            nxt = text[i + 1] if i + 1 < n else ""
            if nxt == "=":
                toks.append(Token("SIMEQ", "==", start))
                i += 2
                col += 2
                continue
            if nxt == ">":
                toks.append(Token("FATARROW", "=>", start))
                i += 2
                col += 2
                continue
            toks.append(Token("EQUALS", "=", start))
            i += 1
            col += 1
            continue
        if c == "/":
            if i + 1 < n and text[i + 1] == "\\":
                toks.append(Token("BIGLAM", "/\\", start))
                i += 2
                col += 2
                continue
            err("stray '/'")
        if c == "<":
            if i + 1 < n and text[i + 1] == "|":
                toks.append(Token("ASCRIBE", "<|", start))
                i += 2
                col += 2
                continue
            err("stray '<'")
        if c == ".":
            tight_left = i > 0 and text[i - 1] not in " \t\r\n"
            nxt = text[i + 1] if i + 1 < n else ""
            if tight_left and nxt in "12":
                toks.append(Token("PROJ", nxt, start))
                i += 2
                col += 2
                continue
            toks.append(Token("DOT", ".", start))
            i += 1
            col += 1
            continue
        if c == "#":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "-"):
                j += 1
            word = text[i:j]
            toks.append(Token("DIRECTIVE", word, start))
            col += j - i
            i = j
            continue
        if c in ("ρ",):
            if i + 1 < n and text[i + 1] == "+":
                toks.append(Token("RHOPLUS", "ρ+", start))
                i += 2
                col += 2
                continue
            toks.append(Token("RHO", "ρ", start))
            i += 1
            col += 1
            continue
        if c in _SINGLE:
            toks.append(Token(_SINGLE[c], c, start))
            i += 1
            col += 1
            continue
        if _ident_start(c):
            j = i + 1
            while j < n:
                if _ident_char(text[j]):
                    j += 1
                elif text[j] == "-" and j + 1 < n and _ident_char(text[j + 1]):
                    # interior dash, as in v2l-v2l
                    j += 1
                else:
                    break
            word = text[i:j]
            col += j - i
            i = j
            if word in _KEYWORDS:
                kind = _KEYWORDS[word]
                if kind == "RHO" and i < n and text[i] == "+":
                    toks.append(Token("RHOPLUS", "rho+", start))
                    i += 1
                    col += 1
                else:
                    toks.append(Token(kind, word, start))
            else:
                toks.append(Token("IDENT", word, start))
            continue
        err(f"unexpected character {c!r}")
    toks.append(Token("EOF", "", Pos(line, col)))
    return toks
