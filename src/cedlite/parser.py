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


class _Reader:
    """Reads one input by recursive descent, one method per rule of the
    grammar. Each node is built through the declaration's interner once
    its children are read, until the first resolve error."""

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

    def expect(self, kind: str) -> None:
        """Step past the next token, which must be of `kind`."""
        got, text, at = self.toks[self.i]
        if got != kind:
            self.src.fail(f"expected {kind}, found {got} {text!r}", at)
        self.i += 1

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

    # --- expressions: each rule gives its node and the offset that errors
    # about the node point at ---------------------------------------------

    def expr(self, sort: str, eq: bool = True):
        """The expression of `sort` at the next token; without `eq` it ends
        before a `≃`, as the left side of a braced equation does."""
        kind, _, at = self.toks[self.i]
        if sort == "classifier":
            sort = "kind" if self.kind_at(self.i) else "type"
        if kind in _PREFIXES:
            return self.prefix(kind, at, sort, eq)
        return self.arrows(sort, eq)

    def arrows(self, sort: str, eq: bool):
        """`arrows` of `sort`, and then `≃ arrows` if `eq`."""
        toks, before = self.toks, self.err
        app_sort = sort
        if sort == "type":
            if eq and toks[self.app_end(self.i)][0] == "SIMEQ":
                app_sort = "term"
        elif sort == "kind" and toks[self.app_end(self.i)][0] == "ARROW" \
                and not self.kind_at(self.i, True):
            app_sort = "type"
        val, at = self.app(app_sort)
        kind = toks[self.i][0]
        if kind == "ARROW" or kind == "FATARROW":
            if sort == "term":
                self.fail("type syntax in a term position", at, before)
            cls = (S.KPiK if S.is_kind(val) else S.KPi) if sort == "kind" \
                else _TYPE_BINDERS[kind]
            self.i += 1
            self.bind("")
            body = self.expr(sort)[0]
            self.unbind()
            # an arrow is type syntax, also as the left side of ≃
            val, app_sort = self.mk(cls, "", val, body), ""
            kind = toks[self.i][0]
        if eq and kind == "SIMEQ":
            if sort == "term" or app_sort != "term":
                self.fail("type syntax in a term position", at, before)
            self.i += 1
            rhs = self.arrows("term", False)[0]
            val = self.mk(S.Eq, val, rhs)
        return val, at

    def prefix(self, kind: str, at: int, sort: str, eq: bool):
        """The construct of `sort` that the binder, ς or ρ at `at` begins;
        its body is an `expr(…, eq)`."""
        self.i += 1
        if kind not in _OPENERS:        # ς, ρ or ρ+
            if sort != "term":
                self.fail("term syntax in a type position", at)
            if kind == "SIGMA":
                proof = self.expr("term", eq)[0]
                return self.mk(S.Symm, proof), at
            proof = self.proof()
            self.expect("DASH")
            body = self.expr("term", eq)[0]
            return self.mk(S.Rho, proof, body, kind == "RHOPLUS"), at
        binder = self.ident()
        colon = self.toks[self.i][0] == "COLON"
        if kind == "BIGLAM":
            if sort != "term":
                self.fail("term syntax in a type position", at)
            cls, sort, colon = S.ILam, "term", False
        elif kind == "LAM":
            if sort != "term" and not colon:
                self.fail("type-level λ binders must be annotated", at)
            cls, dom_sort, sort = (S.Lam, "type", "term") if sort == "term" \
                else (S.TLam, "classifier", "type")
        elif kind == "PI" and sort == "kind":
            cls, dom_sort, colon = None, "classifier", True
        else:
            if sort == "term":
                self.fail("type syntax in a term position", at)
            cls, sort, colon = _TYPE_BINDERS[kind], "type", True
            dom_sort = "classifier" if kind == "FORALL" else "type"
        dom = None
        if colon:
            self.expect("COLON")
            dom = self.expr(dom_sort)[0]
            if cls is None:
                cls = S.KPiK if S.is_kind(dom) else S.KPi
        self.expect("DOT")
        self.bind(binder)
        body = self.expr(sort, eq)[0]
        self.unbind()
        return (self.mk(cls, binder, body) if cls is S.ILam
                else self.mk(cls, binder, dom, body)), at

    def proof(self):
        """The proof of a ρ: `ς proof`, or an application."""
        if self.toks[self.i][0] != "SIGMA":
            return self.app("term")[0]
        self.i += 1
        proof = self.proof()
        return self.mk(S.Symm, proof)

    def app(self, sort: str):
        """An application in `sort`; errors about it point at its head."""
        fn, fn_at = self.atom(sort)
        while True:
            joint = self.toks[self.i][0]
            if joint == "ERASED" or joint == "CDOT":
                if joint == "ERASED" and sort != "term":
                    self.fail("erased application in a type position",
                              fn_at)
                self.i += 1
            elif joint in _ATOM_STARTERS:
                joint = ""
            else:
                return fn, fn_at
            arg = self.atom("type" if joint == "CDOT" else "term")[0]
            fn = self.mk(_APPS[sort == "term"][joint], fn, arg)

    def atom(self, sort: str):
        """The atom of `sort` at the next token, under the projections after
        it; a projection is term syntax, so in a type it is an error at its
        last `.n`."""
        kind, text, at = self.toks[self.i]
        before = self.err
        self.i += 1
        if kind == "IDENT":
            term = sort == "term"
            level = self.levels.get(text)
            if level is not None:   # bound: its de Bruijn index
                val = self.mk(S.Var if term else S.TVar,
                              len(self.env) - 1 - level)
            else:
                decl = self.sig.lookup(text)
                level = "term" if term else "type"
                if decl is None:
                    self.fail(f"unbound identifier {text}", at)
                elif decl.level != level:
                    self.fail(f"{text} is a {decl.level}-level definition, "
                              f"not a {level}", at)
                val = self.mk(S.Ref if term else S.TRef, text)
        elif kind == "LPAREN":
            val, at = self.expr(sort)
            self.expect("RPAREN")
        elif kind == "STAR":
            if sort != "kind":
                self.fail("★ in a term position" if sort == "term"
                          else "★ is a kind, not a type", at)
            return self.mk(S.Star), at
        elif kind == "LBRACE":
            if sort == "term":
                self.fail("type syntax in a term position", at)
            left = self.expr("term", False)[0]
            self.expect("SIMEQ")
            right = self.expr("term")[0]
            self.expect("RBRACE")
            val = self.mk(S.Eq, left, right)
        else:
            if kind not in _ATOM_STARTERS:
                self.src.fail(f"expected a term or type, found {kind} "
                              f"{text!r}", at)
            if sort != "term":
                self.fail("term syntax in a type position", at)
            if kind == "BETA":
                if self.toks[self.i][0] != "LBRACE":
                    return self.mk(S.Beta, None), at
                self.i += 1
                witness = self.expr("term")[0]
                self.expect("RBRACE")
                return self.mk(S.Beta, witness), at
            left = self.expr("term")[0]
            self.expect("COMMA")
            right = self.expr("term")[0]
            self.expect("RBRACKET")
            val = self.mk(S.Pair, left, right)
        while self.toks[self.i][0] == "PROJ":
            _, which, at = self.toks[self.i]
            if sort == "term":
                val = self.mk(S.Proj, val, int(which))
            else:
                self.fail("term syntax in a type position", at, before)
            self.i += 1
        return val, at

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
                self.expect("EQUALS")
                payload = self.expr("term")[0]
                self.expect("DOT")
                self.attach(Assertion("erases-to", name, payload=payload), at)
            elif text == "#assert-fail":
                self.decl(True)
            else:
                self.src.fail(f"unknown directive {text}", at)

    def ident(self) -> str:
        self.expect("IDENT")
        return self.toks[self.i - 1][1]

    def decl(self, expect_fail: bool) -> None:
        at = self.toks[self.i][2]
        name = self.ident()
        if not expect_fail and name in self.sig:
            self.fail(f"duplicate definition {name}", at)
        self.expect("ASCRIBE")
        level = "type" if self.kind_at(self.i) else "term"
        classifier = self.expr("kind" if level == "type" else "type")[0]
        self.expect("EQUALS")
        body = self.expr(level)[0]
        self.expect("DOT")
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
        node = self.expr(sort)[0]
        self.expect("EOF")
        self.raise_first()
        return node


# ---------------------------------------------------------------------------
# Entry points

@S.deep
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


@S.deep
def parse_term(text: str, sig: Optional[Signature] = None) -> S.Term:
    """Parse a standalone term (closed up to definitions in `sig`)."""
    return _Reader(text, "<term>", sig).whole("term")


@S.deep
def parse_type(text: str, sig: Optional[Signature] = None) -> S.Type:
    """Parse a standalone type, or a kind."""
    return _Reader(text, "<type>", sig).whole("classifier")
