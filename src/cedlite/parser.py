"""Concrete syntax: lexer, declaration parser, and name resolution.

A file is a sequence of `name ◂ classifier = body .` declarations and
`#assert-*` directives; comments run from `--` to end of line. Unicode
tokens and their ASCII aliases lex identically:

    λ \\     Λ /\\    Π Pi    ∀ forall    ι iota    ★ *     · @
    ➔ ->    ➾ =>    ≃ ==    ς ~         ρ rho     β beta  ◂ <|

Whitespace around `-` is significant: `-t` (tight) is an erased
application, a freestanding `-` separates a ρ proof from its body, and
identifiers may contain interior dashes (`v2l-v2l`). A `.` directly
followed by `1` or `2` with no space before it is a projection.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Optional

from . import syntax as S
from .syntax import Assertion, Decl, KernelError, Pos, Signature


def _located(msg: str, pos: Optional[Pos], filename: Optional[str]) -> str:
    where = ":".join(s for s in (filename, str(pos) if pos else None) if s)
    return f"{where}: {msg}" if where else msg


class ParseError(KernelError):
    def __init__(self, msg: str, pos: Optional[Pos] = None,
                 filename: Optional[str] = None):
        super().__init__(_located(msg, pos, filename))
        self.pos = pos


class ResolveError(ParseError):
    pass


# ---------------------------------------------------------------------------
# Lexer

class _Source:
    """A file name and the line starts of its text; the line and column of
    an offset are found by bisecting them."""

    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.starts = [0, *(m.end() for m in re.finditer("\n", text))]

    def pos(self, at: int) -> Pos:
        line = bisect_right(self.starts, at)
        return Pos(line, at - self.starts[line - 1] + 1)

    def fail(self, msg: str, at: int):
        raise ParseError(msg, self.pos(at), self.filename)


# Every spelling of a fixed token, Unicode and ASCII alike.
_SPELLING = {
    "λ": "LAM", "\\": "LAM", "Λ": "BIGLAM", "/\\": "BIGLAM",
    "Π": "PI", "Pi": "PI", "∀": "FORALL", "forall": "FORALL",
    "ι": "IOTA", "iota": "IOTA", "★": "STAR", "*": "STAR",
    "➔": "ARROW", "->": "ARROW", "➾": "FATARROW", "=>": "FATARROW",
    "≃": "SIMEQ", "==": "SIMEQ", "ς": "SIGMA", "~": "SIGMA",
    "ρ": "RHO", "rho": "RHO", "ρ+": "RHOPLUS", "rho+": "RHOPLUS",
    "β": "BETA", "beta": "BETA", "·": "CDOT", "@": "CDOT",
    "◂": "ASCRIBE", "<|": "ASCRIBE", "=": "EQUALS", ".": "DOT",
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACKET", "]": "RBRACKET",
    "{": "LBRACE", "}": "RBRACE", ",": "COMMA", ":": "COLON",
}

# A token is the first of these alternatives that matches: a projection
# `.1`/`.2`, a symbol (every spelling but the ASCII keywords, longest
# first: λ Λ Π ι ς β ρ are letters, but not inside a word), a dash, a
# directive, a word (`\w` is `isalnum()` or "_"), or one character
# that `tokenize` reports. Each is paired with the gap after it: blanks
# and comments, which run from `--` to the end of the line.
_GAP = r"[ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*"
_SYMBOLS = [s for s in _SPELLING if not (s.isascii() and s.isalpha())]
_TOKEN = re.compile("(" + "|".join([
    r"\.[12]",
    *map(re.escape, sorted((s for s in _SYMBOLS if len(s) > 1),
                           key=len, reverse=True)),
    "[" + re.escape("".join(s for s in _SYMBOLS if len(s) == 1)) + "]",
    "-", r"#(?:[^\W_]|-)*", r"\w[\w'′]*(?:-[\w'′]+)*", ".",
]) + ")(" + _GAP + ")", re.S)
_LEADING_GAP = re.compile(_GAP)
_END_OR_BLANK = {"", " ", "\t", "\r", "\n"}


def tokenize(text: str, filename: str = "<input>") -> list[tuple]:
    """The `(kind, text, offset)` tokens of `text`, ending with `EOF`.

    One `findall` splits the text into `(token, gap)` pairs, and each pair
    is replaced in place by its token, whose offset is the running sum of
    the lengths before it. A token's kind is its spelling's, else that of
    its first character: a letter or "_" starts an identifier; `-` is a
    freestanding `DASH` before a blank or the end, else `ERASED`; a `.`
    right after a non-blank character starts a projection, which keeps
    its digit."""
    at = _LEADING_GAP.match(text).end()
    toks = _TOKEN.findall(text, at)
    kinds = _SPELLING.copy()        # and each identifier once it is seen
    for k, (word, gap) in enumerate(toks):
        kind = kinds.get(word)
        if kind is None:
            c = word[0]
            if c.isalpha() or c == "_":
                kind = kinds[word] = "IDENT"
            elif c == "-":
                kind = "DASH" if text[at + 1:at + 2] in _END_OR_BLANK \
                    else "ERASED"
            elif c == "#":
                kind = "DIRECTIVE"
            elif c == "." and at and text[at - 1] not in " \t\r\n":
                toks[k] = ("PROJ", word[1], at)
                at += 2 + len(gap)
                continue
            else:
                if c == ".":    # a `.` and then a word that starts with 1 or 2
                    at, c = at + 1, word[1]
                _Source(text, filename).fail(
                    f"stray {word!r}" if word in ("/", "<")
                    else f"unexpected character {c!r}", at)
        toks[k] = (kind, word, at)
        at += len(word) + len(gap)
    toks.append(("EOF", "", len(text)))
    return toks


# ---------------------------------------------------------------------------
# The reader: parse and elaborate in one pass
#
#   expr  := λ x (: expr)? . expr | Λ x . expr | (Π|∀|ι) x : expr . expr
#          | (ρ|ρ+) proof - expr | ς expr | arrows (≃ arrows)?
#   proof := ς proof | app              arrows := app ((➔|➾) expr)?
#   app   := atom (atom | -atom | · atom)*
#   atom  := (x | (expr) | [expr , expr] | {arrows ≃ expr}) .n* | β{expr}? | ★
# Each expression is read in a sort: term, type, kind, or classifier (a
# kind if it is ★ or a Π or ➔ ending in ★, through parentheses, else a
# type). A construct of the wrong sort fails at its first token before
# any name inside it resolves; where that shows only later (a ➔ or ≃
# after a term, a `.n` after a type), the error replaces those recorded
# since the construct began. Resolve errors wait for EOF: parse errors win.

_TYPE_BINDERS = {"PI": S.Pi, "FORALL": S.All, "IOTA": S.Iota,
                 "ARROW": S.Pi, "FATARROW": S.All}
_PREFIXES = {"LAM", "BIGLAM", "RHO", "RHOPLUS", "SIGMA", "PI", "FORALL",
             "IOTA"}
_BRACKETS = {"LPAREN", "LBRACKET", "LBRACE"}
_OPENERS = {*_PREFIXES, *_BRACKETS} - {"RHO", "RHOPLUS", "SIGMA"}
_CLOSERS = {"RPAREN", "RBRACKET", "RBRACE", "DOT"}
_ATOM_STARTERS = {"IDENT", "BETA", "STAR", *_BRACKETS}
# The application node in a term (True) or a type, by the argument's joint.
_APPS = {True: {"": S.App, "ERASED": S.EApp, "CDOT": S.TApp},
         False: {"": S.AppTm, "ERASED": S.AppTm, "CDOT": S.AppT}}
_ID_ASSERTIONS = {"#assert-id": "identity", "#assert-not-id": "not-identity"}

# What the machine does next, and what a pending construct waits for.
_EXPR, _ARROWS, _PROOF, _ATOM, _JOIN, _DONE = range(6)
(_APP, _OPERAND, _PAREN, _BODY, _DOM, _EQ_RHS, _WRAP, _PAIR, _PAIR_R,
 _BRACE, _BRACE_R, _RHO_PROOF, _RHO) = range(13)
# The token between the two parts of `[l , r]`, `{l ≃ r}` and `ρ q - t`;
# the tag of each second part is one above its first part's.
_SEPARATOR = {_PAIR: "COMMA", _BRACE: "SIMEQ", _RHO_PROOF: "DASH"}


class _Reader:
    """Reads one input with no recursion: pending constructs wait on an
    explicit stack, and each node is built through the declaration's
    interner once its construct completes, until the first resolve error."""

    def __init__(self, text: str, filename: str, sig: Optional[Signature]):
        self.src = _Source(text, filename)
        self.toks = tokenize(text, filename)
        self.sig = sig if sig is not None else Signature()
        self.i = 0
        # The enclosing binders, innermost last, each with the level of the
        # binder of the same name that it shadows; and each name's
        # innermost binder level, so a name resolves in one probe.
        self.env: list[tuple[str, Optional[int]]] = []
        self.levels: dict[str, int] = {}
        self.mk = S.interner()
        self.err = None               # (message, offset)
        self.attached = []            # (declaration, assertion) pairs
        self.close: dict[int, int] = {}

    def expect(self, kind: str, i: int) -> int:
        """The index after token `i`, which must be of `kind`."""
        got, text, at = self.toks[i]
        if got != kind:
            self.src.fail(f"expected {kind}, found {got} {text!r}", at)
        return i + 1

    def fail(self, msg: str, at, before=False):
        """Record `msg` at `at` if it is the first resolve error; or, given
        `before`, the first error when the failing construct began, if that
        was None: the construct's error precedes those recorded inside it."""
        if (self.err if before is False else before) is None:
            self.err, self.mk = (msg, at), lambda *_: None

    def bind(self, name: str) -> None:
        """Enter a binder of `name` ("" for ➔, which no identifier names)."""
        env, levels = self.env, self.levels
        env.append((name, levels.get(name)))
        levels[name] = len(env) - 1

    def unbind(self) -> None:
        """Leave the innermost binder, unshadowing what it shadowed."""
        name, shadowed = self.env.pop()
        if shadowed is None:
            del self.levels[name]
        else:
            self.levels[name] = shadowed

    def raise_first(self):
        if self.err is not None:
            msg, at = self.err
            raise ResolveError(msg, self.src.pos(at), self.src.filename)

    # --- lookahead, for the two sorts the first token cannot tell --------

    def closer(self, i: int) -> int:
        """The token that closes the bracket, or the binder (at its `.`),
        opened at token `i`; one left open closes before EOF. A scan
        records the pairs inside it, so no token is scanned twice."""
        close, toks = self.close, self.toks
        opened, j = [i], i
        while i not in close:
            j += 1
            kind = toks[j][0]
            if kind == "EOF":
                close.update(dict.fromkeys(opened, j - 1))
            elif kind in _CLOSERS:
                close[opened.pop()] = j
            elif j in close:        # an opener scanned before
                j = close[j]
            elif kind in _OPENERS:
                opened.append(j)
        return close[i]

    def app_end(self, i: int) -> int:
        """The index of the token after the application at token `i` (read
        `β{t}` as `β` applied to `{t}`: same end)."""
        toks = self.toks
        while True:
            kind = toks[i][0]
            if kind in _BRACKETS:
                i = self.closer(i) + 1
            elif kind in _ATOM_STARTERS:
                i += 1
            else:
                return i
            while toks[i][0] == "PROJ":
                i += 1
            kind = toks[i][0]
            if kind == "ERASED" or kind == "CDOT":
                i += 1
            elif kind not in _ATOM_STARTERS:
                return i

    def kind_at(self, i: int, app_only: bool = False) -> bool:
        """Is the expression (or with `app_only`, the application) at token
        `i` kind syntax?"""
        toks = self.toks
        while True:
            kind = toks[i][0]
            if kind == "PI" and not app_only:
                i = self.closer(i) + 1
                continue
            end = self.app_end(i)
            if not app_only:
                after = toks[end][0]
                if after == "ARROW":
                    i = end + 1
                    continue
                if after == "FATARROW" or after == "SIMEQ":
                    return False
            if kind == "STAR" and end == i + 1:
                return True
            if kind != "LPAREN" or end != self.closer(i) + 1:
                return False
            i, app_only = i + 1, False

    # --- expressions ------------------------------------------------------

    def expr(self, sort: str):
        """The node of the expression of `sort` at the next token."""
        toks, env, levels = self.toks, self.env, self.levels
        stack, lookup = [], self.sig.lookup
        i, state = self.i, _EXPR
        fn = fn_at = app_sort = joint = None
        while True:
            if state is _EXPR:
                kind, _, at = toks[i]
                if sort == "classifier":
                    sort = "kind" if self.kind_at(i) else "type"
                if kind in _PREFIXES:
                    i, sort, state = self.prefix(kind, at, i + 1, sort, stack)
                    continue
                eq, state = True, _ARROWS
            if state is _ARROWS:    # `arrows`, then `≃ arrows` if `eq`
                app_sort = sort
                if sort == "type":
                    if eq and toks[self.app_end(i)][0] == "SIMEQ":
                        app_sort = "term"
                elif sort == "kind" and \
                        toks[self.app_end(i)][0] == "ARROW" and \
                        not self.kind_at(i, True):
                    app_sort = "type"
                stack.append((_OPERAND, sort, app_sort, self.err, eq))
                joint, state = None, _ATOM
            elif state is _PROOF:
                if toks[i][0] == "SIGMA":
                    stack.append((_WRAP, toks[i][2], S.Symm, None))
                    i += 1
                    continue
                app_sort, joint, state = "term", None, _ATOM
            while state is _ATOM or state is _JOIN:     # an application
                if state is _ATOM:
                    kind, text, at = toks[i]
                    asort = app_sort if joint is None else \
                        "type" if joint == "CDOT" else "term"
                    before = self.err
                    if kind == "IDENT":
                        term = asort == "term"
                        level = levels.get(text)
                        if level is not None:   # bound: its de Bruijn index
                            val = self.mk(S.Var if term else S.TVar,
                                          len(env) - 1 - level)
                        else:
                            decl, level = lookup(text), "term" if term else "type"
                            if decl is None:
                                self.fail(f"unbound identifier {text}", at)
                            elif decl.level != level:
                                self.fail(f"{text} is a {decl.level}-level "
                                          f"definition, not a {level}", at)
                            val = self.mk(S.Ref if term else S.TRef, text)
                        i += 1
                        if toks[i][0] == "PROJ":
                            i, val, at = self.postfix(i, val, at, asort,
                                                      before)
                    else:
                        if kind == "LPAREN":
                            stack.append((_PAREN, fn, fn_at, app_sort, joint,
                                          asort, before))
                            i, sort, state = i + 1, asort, _EXPR
                        else:
                            stack.append((_APP, fn, fn_at, app_sort, joint))
                            i, sort, state, val = self.atom(
                                kind, at, i, asort, before, stack)
                        eq = False
                        break
                if joint is None:
                    fn, fn_at = val, at
                else:
                    fn = self.mk(_APPS[app_sort == "term"][joint], fn, val)
                kind = toks[i][0]
                if kind in _ATOM_STARTERS:
                    joint, state = "", _ATOM
                elif kind == "ERASED" or kind == "CDOT":
                    if kind == "ERASED" and app_sort != "term":
                        self.fail("erased application in a type position",
                                  fn_at)
                    joint, state = kind, _ATOM
                    i += 1
                else:
                    val, at, state = fn, fn_at, _DONE
            while state is _DONE:   # `val` at `at` completes the top construct
                if not stack:
                    self.i = i
                    return val
                frame = stack.pop()
                tag = frame[0]
                if tag is _OPERAND:
                    _, sort, app_sort, before, eq = frame
                    kind = toks[i][0]
                    if kind == "ARROW" or kind == "FATARROW":
                        if sort == "term":
                            self.fail("type syntax in a term position", at,
                                      before)
                        if eq:      # an arrow as the left side of ≃
                            stack.append((_OPERAND, sort, "", before, eq))
                        cls = (S.KPiK if S.is_kind(val) else S.KPi) \
                            if sort == "kind" else _TYPE_BINDERS[kind]
                        stack.append((_BODY, at, cls, "", val))
                        self.bind("")
                        i, state = i + 1, _EXPR
                    elif eq and kind == "SIMEQ":
                        if sort == "term" or app_sort != "term":
                            self.fail("type syntax in a term position", at,
                                      before)
                        stack.append((_EQ_RHS, at, val))
                        i, sort, eq, state = i + 1, "term", False, _ARROWS
                elif tag is _PAREN:     # and then the application it is in
                    _, fn, fn_at, app_sort, joint, asort, before = frame
                    i = self.expect("RPAREN", i)
                    if toks[i][0] == "PROJ":
                        i, val, at = self.postfix(i, val, at, asort, before)
                    state = _JOIN
                elif tag is _APP:
                    _, fn, fn_at, app_sort, joint = frame
                    state = _JOIN
                elif tag is _BODY:
                    _, at, cls, binder, dom = frame
                    self.unbind()
                    val = self.mk(cls, binder, val) if cls is S.ILam \
                        else self.mk(cls, binder, dom, val)
                elif tag is _DOM:
                    _, d_at, cls, binder, sort = frame
                    i = self.expect("DOT", i)
                    if cls is None:
                        cls = S.KPiK if S.is_kind(val) else S.KPi
                    stack.append((_BODY, d_at, cls, binder, val))
                    self.bind(binder)
                    state = _EXPR
                elif tag is _EQ_RHS:
                    val, at = self.mk(S.Eq, frame[2], val), frame[1]
                elif tag in _SEPARATOR:     # the first part of a pair
                    _, b_at, data, before = frame
                    i = self.expect(_SEPARATOR[tag], i)
                    stack.append((tag + 1, b_at, val, data, before))
                    sort, eq = "term", False
                    state = _EXPR
                elif tag is _PAIR_R or tag is _BRACE_R:
                    _, at, left, asort, before = frame
                    pair = tag is _PAIR_R
                    i = self.expect("RBRACKET" if pair else "RBRACE", i)
                    val = self.mk(S.Pair if pair else S.Eq, left, val)
                    i, val, at = self.postfix(i, val, at, asort, before)
                elif tag is _RHO:
                    _, at, proof, plus, _ = frame
                    val = self.mk(S.Rho, proof, val, plus)
                else:   # _WRAP: ς t, or β{t} once its `}` is read
                    _, at, cls, closing = frame
                    if closing:
                        i = self.expect(closing, i)
                    val = self.mk(cls, val)

    def prefix(self, kind: str, at: int, i: int, sort: str, stack: list):
        """Push the construct that `kind` at `at` begins in `sort`, with
        token `i` next; the index, sort and state to go on with."""
        if kind not in _OPENERS:        # ς, ρ or ρ+
            if sort != "term":
                self.fail("term syntax in a type position", at)
            stack.append((_WRAP, at, S.Symm, None) if kind == "SIGMA"
                         else (_RHO_PROOF, at, kind == "RHOPLUS", None))
            return i, "term", _EXPR if kind == "SIGMA" else _PROOF
        i = self.expect("IDENT", i)
        binder, colon = self.toks[i - 1][1], self.toks[i][0] == "COLON"
        if kind == "BIGLAM":
            if sort != "term":
                self.fail("term syntax in a type position", at)
            cls, sort, colon = S.ILam, "term", False
        elif kind == "LAM":
            if sort != "term" and not colon:
                self.fail("type-level λ binders must be annotated", at)
            cls, dom, sort = (S.Lam, "type", "term") if sort == "term" \
                else (S.TLam, "classifier", "type")
        elif kind == "PI" and sort == "kind":
            cls, dom, colon = None, "classifier", True
        else:
            if sort == "term":
                self.fail("type syntax in a term position", at)
            cls, sort, colon = _TYPE_BINDERS[kind], "type", True
            dom = "classifier" if kind == "FORALL" else "type"
        if not colon:
            stack.append((_BODY, at, cls, binder, None))
            self.bind(binder)
            return self.expect("DOT", i), sort, _EXPR
        stack.append((_DOM, at, cls, binder, sort))
        return self.expect("COLON", i), dom, _EXPR

    def atom(self, kind: str, at: int, i: int, sort: str, before,
             stack: list):
        """Begin the atom other than a name or `(` at token `i`, in `sort`:
        the index, sort and state to go on with, and the atom if whole."""
        if kind == "STAR":
            if sort != "kind":
                self.fail("★ in a term position" if sort == "term"
                          else "★ is a kind, not a type", at)
            return i + 1, sort, _DONE, self.mk(S.Star)
        if kind == "LBRACE":
            if sort == "term":
                self.fail("type syntax in a term position", at)
            stack.append((_BRACE, at, sort, before))
            return i + 1, "term", _ARROWS, None
        if kind not in _ATOM_STARTERS:
            self.src.fail(f"expected a term or type, found {kind} "
                          f"{self.toks[i][1]!r}", at)
        if sort != "term":
            self.fail("term syntax in a type position", at)
        if kind == "LBRACKET":
            stack.append((_PAIR, at, sort, before))
        elif self.toks[i + 1][0] != "LBRACE":
            return i + 1, sort, _DONE, self.mk(S.Beta, None)
        else:
            stack.append((_WRAP, at, S.Beta, "RBRACE"))
            i += 1
        return i + 1, "term", _EXPR, None

    def postfix(self, i: int, val, at: int, sort: str, before):
        """`val` under the projections from token `i` on; a projection is
        term syntax, so in a type it is an error at its last `.n`."""
        toks = self.toks
        while toks[i][0] == "PROJ":
            _, which, at = toks[i]
            if sort == "term":
                val = self.mk(S.Proj, val, int(which))
            else:
                self.fail("term syntax in a type position", at, before)
            i += 1
        return i, val, at

    # --- declarations and directives ------------------------------------

    def items(self) -> None:
        """Read declarations and directives up to EOF into `sig`."""
        while True:
            kind, text, at = self.toks[self.i]
            if kind == "EOF":
                return self.raise_first()
            if self.err is None:    # each declaration has its own interner
                self.mk = S.interner()
            if kind == "IDENT":
                self.decl(False)
                continue
            if kind != "DIRECTIVE":
                self.src.fail(f"expected a declaration or directive, "
                              f"found {kind} {text!r}", at)
            self.i += 1
            if text in _ID_ASSERTIONS:
                self.attach(Assertion(_ID_ASSERTIONS[text], self.ident()), at)
            elif text == "#assert-eq":
                a, b = self.ident(), self.ident()
                self.attach(Assertion("erase-equal", a, other=b), at)
            elif text == "#assert-erase":
                name = self.ident()
                self.i = self.expect("EQUALS", self.i)
                payload = self.expr("term")
                self.i = self.expect("DOT", self.i)
                self.attach(Assertion("erases-to", name, payload=payload), at)
            elif text == "#assert-fail":
                self.decl(True)
            else:
                self.src.fail(f"unknown directive {text}", at)

    def ident(self) -> str:
        self.i = self.expect("IDENT", self.i)
        return self.toks[self.i - 1][1]

    def decl(self, expect_fail: bool) -> None:
        at = self.toks[self.i][2]
        name = self.ident()
        if not expect_fail and name in self.sig:
            self.fail(f"duplicate definition {name}", at)
        self.i = self.expect("ASCRIBE", self.i)
        level = "type" if self.kind_at(self.i) else "term"
        classifier = self.expr("kind" if level == "type" else "type")
        self.i = self.expect("EQUALS", self.i)
        body = self.expr(level)
        self.i = self.expect("DOT", self.i)
        if self.err is None:
            self.sig.add(Decl(name, level, classifier, body,
                              expect_fail=expect_fail))

    def attach(self, assertion: Assertion, at: int) -> None:
        target, other = assertion.target, assertion.other
        decl = self.sig.lookup(target)
        if decl is None:
            msg = f"assertion names unknown definition {target}"
        elif decl.level != "term":
            msg = f"assertion target {target} has no erasure (type-level)"
        elif other is not None and \
                getattr(self.sig.lookup(other), "level", None) != "term":
            msg = f"assertion names unknown term definition {other}"
        else:
            self.attached.append((decl, assertion))
            return
        self.fail(msg, at)

    def whole(self, sort: str):
        """One expression of `sort` that spans the whole input."""
        node = self.expr(sort)
        self.expect("EOF", self.i)
        self.raise_first()
        return node


# ---------------------------------------------------------------------------
# Entry points

def parse_signature(text: str, filename: str = "<input>",
                    sig: Optional[Signature] = None) -> Signature:
    """Parse and resolve declarations, extending `sig` when given, only
    once the whole file resolves: on a `ParseError`, `sig` is unchanged."""
    if sig is None:
        sig = Signature()
    staged = sig.staged()
    reader = _Reader(text, filename, staged)
    reader.items()
    for decl in staged.decls:
        sig.add(decl)
    for decl, assertion in reader.attached:
        decl.assertions.append(assertion)
    return sig


def parse_files(paths, sig: Optional[Signature] = None) -> Signature:
    if sig is None:
        sig = Signature()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            parse_signature(fh.read(), filename=str(path), sig=sig)
    return sig


def parse_term(text: str, sig: Optional[Signature] = None) -> S.Term:
    """Parse a standalone term (closed up to definitions in `sig`)."""
    return _Reader(text, "<term>", sig).whole("term")


def parse_type(text: str, sig: Optional[Signature] = None) -> S.Type:
    """Parse a standalone type, or a kind."""
    return _Reader(text, "<type>", sig).whole("classifier")
