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
from dataclasses import dataclass
from typing import Optional, Union

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

    def fail(self, msg: str, at: int, error=ParseError):
        raise error(msg, self.pos(at), self.filename)


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

# One alternative per token class, tried in order at each offset. Symbols
# (every spelling but the ASCII keywords, longest first) come before
# words, because λ Λ Π ι ς β ρ are letters; inside a word they are
# letters again. `\w` is `isalnum()` or "_"; whether a word may start
# with its first character is checked in `tokenize`.
_SYMBOLS = sorted((s for s in _SPELLING
                   if not (s.isascii() and s.isalpha())),
                  key=len, reverse=True)
_TOKEN = re.compile("|".join([
    r"(?P<SKIP>[ \t\r\n]+|--[^\n]*)",
    r"(?P<PROJ>(?<=[^ \t\r\n])\.[12])",
    "(?P<SYMBOL>" + "|".join(map(re.escape, _SYMBOLS)) + ")",
    r"(?P<DASH>-(?=[ \t\r\n]|\Z))",
    r"(?P<ERASED>-)",
    r"(?P<DIRECTIVE>#(?:[^\W_]|-)*)",
    r"(?P<WORD>\w[\w'′]*(?:-[\w'′]+)*)",
    r"(?P<BAD>.)",
]), re.S)


def tokenize(text: str, filename: str = "<input>") -> list[tuple]:
    """The `(kind, text, offset)` tokens of `text`, ending with `EOF`."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        word = m.group()
        if kind in ("SYMBOL", "WORD"):
            kind = _SPELLING.get(word, "IDENT")
        if kind == "IDENT" and not (word[0].isalpha() or word[0] == "_"):
            kind = "BAD"    # a word cannot start with a numeral such as ½
        elif kind == "PROJ":
            word = word[1]
        if kind == "BAD":
            _Source(text, filename).fail(
                f"stray {word!r}" if word in ("/", "<")
                else f"unexpected character {word[0]!r}", m.start())
        toks.append((kind, word, m.start()))
    toks.append(("EOF", "", len(text)))
    return toks


# ---------------------------------------------------------------------------
# Surface AST (names unresolved; `at` is the offset of the node's first token)

@dataclass
class SNode:
    at: int


@dataclass
class SVar(SNode):
    name: str


@dataclass
class SStar(SNode):
    pass


@dataclass
class SLam(SNode):
    binder: str
    ann: Optional[SNode]
    body: SNode


@dataclass
class SBigLam(SNode):
    binder: str
    body: SNode


@dataclass
class SBinder(SNode):
    head: str    # "all" | "pi" | "iota"
    binder: str  # "" for the arrows `A ➔ B` (pi) and `A ➾ B` (all)
    cls: SNode
    body: SNode


@dataclass
class SApp(SNode):
    style: str  # "explicit" | "erased" | "type"
    fn: SNode
    arg: SNode


@dataclass
class SPair(SNode):
    left: SNode
    right: SNode


@dataclass
class SProj(SNode):
    sub: SNode
    which: int


@dataclass
class SBeta(SNode):
    witness: Optional[SNode]


@dataclass
class SRho(SNode):
    plus: bool
    proof: SNode
    body: SNode


@dataclass
class SSigma(SNode):
    proof: SNode


@dataclass
class SEq(SNode):
    lhs: SNode
    rhs: SNode


_ATOM_STARTERS = {"IDENT", "LPAREN", "LBRACKET", "BETA", "STAR", "LBRACE"}

_HEADS = {"PI": "pi", "FORALL": "all", "IOTA": "iota",
          "ARROW": "pi", "FATARROW": "all"}

_APP_STYLES = {"ERASED": "erased", "CDOT": "type"}
_ID_ASSERTIONS = {"#assert-id": "identity", "#assert-not-id": "not-identity"}


class _Parser:
    def __init__(self, toks: list[tuple], src: _Source):
        self.toks, self.i, self.src = toks, 0, src

    def peek(self) -> str:
        """The kind of the next token."""
        return self.toks[self.i][0]

    def next(self) -> tuple:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> str:
        """The text of the next token, which must be of `kind`."""
        got, text, at = self.next()
        if got != kind:
            self.src.fail(f"expected {kind}, found {got} {text!r}", at)
        return text

    # expression grammar, loosest first:
    #   expr   := binders | ρ ... | ς expr | arrows (≃ arrows)?
    #   arrows := app ((➔|➾) expr)?
    #   app    := atom (atom | -atom | · atom)*
    def parse_expr(self) -> SNode:
        kind, _, at = self.next()
        if kind == "LAM":
            binder = self.expect("IDENT")
            ann = None
            if self.peek() == "COLON":
                self.i += 1
                ann = self.parse_expr()
            self.expect("DOT")
            return SLam(at, binder, ann, self.parse_expr())
        if kind == "BIGLAM":
            binder = self.expect("IDENT")
            self.expect("DOT")
            return SBigLam(at, binder, self.parse_expr())
        if kind in ("PI", "FORALL", "IOTA"):
            binder = self.expect("IDENT")
            self.expect("COLON")
            cls = self.parse_expr()
            self.expect("DOT")
            return SBinder(at, _HEADS[kind], binder, cls, self.parse_expr())
        if kind in ("RHO", "RHOPLUS"):
            proof = self.parse_proof()
            self.expect("DASH")
            return SRho(at, kind == "RHOPLUS", proof, self.parse_expr())
        if kind == "SIGMA":
            return SSigma(at, self.parse_expr())
        self.i -= 1     # none of the above: the token starts an operand
        lhs = self.parse_arrows()
        if self.peek() == "SIMEQ":
            self.i += 1
            return SEq(lhs.at, lhs, self.parse_arrows())
        return lhs

    def parse_whole(self) -> SNode:
        """One expression that spans the whole input."""
        node = self.parse_expr()
        self.expect("EOF")
        return node

    def parse_proof(self) -> SNode:
        kind, _, at = self.toks[self.i]
        if kind == "SIGMA":
            self.i += 1
            return SSigma(at, self.parse_proof())
        return self.parse_app()

    def parse_arrows(self) -> SNode:
        lhs = self.parse_app()
        kind = self.peek()
        if kind in ("ARROW", "FATARROW"):
            # the codomain extends maximally right and may itself bind
            self.i += 1
            return SBinder(lhs.at, _HEADS[kind], "", lhs, self.parse_expr())
        return lhs

    def parse_app(self) -> SNode:
        node = self.parse_atom()
        while True:
            kind = self.peek()
            if kind in _ATOM_STARTERS:
                node = SApp(node.at, "explicit", node, self.parse_atom())
            elif kind in _APP_STYLES:
                self.i += 1
                node = SApp(node.at, _APP_STYLES[kind], node, self.parse_atom())
            else:
                return node

    def parse_atom(self) -> SNode:
        kind, text, at = self.next()
        if kind == "IDENT":
            return self.postfix(SVar(at, text))
        if kind == "LPAREN":
            e = self.parse_expr()
            self.expect("RPAREN")
            return self.postfix(e)
        if kind == "LBRACKET":
            left = self.parse_expr()
            self.expect("COMMA")
            right = self.parse_expr()
            self.expect("RBRACKET")
            return self.postfix(SPair(at, left, right))
        if kind == "BETA":
            if self.peek() == "LBRACE":
                self.i += 1
                w = self.parse_expr()
                self.expect("RBRACE")
                return SBeta(at, w)
            return SBeta(at, None)
        if kind == "STAR":
            return SStar(at)
        if kind == "LBRACE":
            lhs = self.parse_arrows()
            self.expect("SIMEQ")
            rhs = self.parse_arrows()
            self.expect("RBRACE")
            return self.postfix(SEq(at, lhs, rhs))
        self.src.fail(f"expected a term or type, found {kind} {text!r}", at)

    def postfix(self, node: SNode) -> SNode:
        while self.peek() == "PROJ":
            _, text, at = self.next()
            node = SProj(at, node, int(text))
        return node

    # --- declarations and directives ------------------------------------

    def parse_decl_core(self) -> tuple[str, SNode, SNode, Pos]:
        pos = self.src.pos(self.toks[self.i][2])
        name = self.expect("IDENT")
        self.expect("ASCRIBE")
        classifier = self.parse_expr()
        self.expect("EQUALS")
        body = self.parse_expr()
        self.expect("DOT")
        return name, classifier, body, pos

    def parse_items(self) -> list:
        items = []
        while True:
            kind, text, at = self.toks[self.i]
            if kind == "EOF":
                return items
            if kind == "DIRECTIVE":
                items.append(self.parse_directive())
            elif kind == "IDENT":
                items.append(("decl", self.parse_decl_core(), False))
            else:
                self.src.fail(f"expected a declaration or directive, "
                              f"found {kind} {text!r}", at)

    def parse_directive(self):
        _, text, at = self.next()
        pos = self.src.pos(at)
        if text in _ID_ASSERTIONS:
            return ("assert", Assertion(_ID_ASSERTIONS[text],
                                        self.expect("IDENT"), pos=pos))
        if text == "#assert-eq":
            a, b = self.expect("IDENT"), self.expect("IDENT")
            return ("assert", Assertion("erase-equal", a, other=b, pos=pos))
        if text == "#assert-erase":
            name = self.expect("IDENT")
            self.expect("EQUALS")
            payload = self.parse_expr()
            self.expect("DOT")
            return ("assert-erase", name, payload, pos)
        if text == "#assert-fail":
            return ("decl", self.parse_decl_core(), True)
        self.src.fail(f"unknown directive {text}", at)


# ---------------------------------------------------------------------------
# Elaboration: classify as term/type/kind and resolve names to indices

def _is_kind_syntax(s: SNode) -> bool:
    while isinstance(s, SBinder) and s.head == "pi":
        s = s.body
    return isinstance(s, SStar)


_TYPE_BINDERS = {"all": S.All, "pi": S.Pi, "iota": S.Iota}


class _Elab:
    """Elaborates under a stack of binder names; discard it once it raises.
    Every node it builds is interned, so equal subterms are one object."""

    def __init__(self, sig: Optional[Signature], src: _Source):
        self.sig = sig if sig is not None else Signature()
        self.src = src
        self.env: list[str] = []  # binder names, innermost last
        self.mk = S.interner()

    def fail(self, msg: str, at: int):
        self.src.fail(msg, at, ResolveError)

    def under(self, binder: str, elab, s: SNode):
        """`elab(s)` with `binder` bound innermost."""
        self.env.append(binder)
        out = elab(s)
        self.env.pop()
        return out

    def resolve(self, s: SVar, level: str, var, ref):
        """A bound name as `var(index)`, else a `level` definition as `ref`."""
        for depth, bound in enumerate(reversed(self.env)):
            if bound == s.name:
                return self.mk(var, depth)
        decl = self.sig.lookup(s.name)
        if decl is None:
            self.fail(f"unbound identifier {s.name}", s.at)
        if decl.level != level:
            self.fail(f"{s.name} is a {decl.level}-level definition, "
                      f"not a {level}", s.at)
        return self.mk(ref, s.name)

    def classifier(self, s: SNode) -> Union[S.Type, S.Kind]:
        return self.kind(s) if _is_kind_syntax(s) else self.type(s)

    def term(self, s: SNode) -> S.Term:
        mk = self.mk
        match s:
            case SVar():
                return self.resolve(s, "term", S.Var, S.Ref)
            case SLam(_, binder, ann, body):
                a = self.type(ann) if ann is not None else None
                return mk(S.Lam, binder, a, self.under(binder, self.term, body))
            case SBigLam(_, binder, body):
                return mk(S.ILam, binder, self.under(binder, self.term, body))
            case SApp(_, style, fn, arg):
                f = self.term(fn)
                if style == "explicit":
                    return mk(S.App, f, self.term(arg))
                if style == "erased":
                    return mk(S.EApp, f, self.term(arg))
                return mk(S.TApp, f, self.type(arg))
            case SPair(_, left, right):
                return mk(S.Pair, self.term(left), self.term(right))
            case SProj(_, sub, which):
                return mk(S.Proj, self.term(sub), which)
            case SBeta(_, witness):
                return mk(S.Beta, self.term(witness) if witness else None)
            case SRho(_, plus, proof, body):
                return mk(S.Rho, self.term(proof), self.term(body), plus)
            case SSigma(_, proof):
                return mk(S.Symm, self.term(proof))
            case SEq(at, _, _) | SBinder(at, _, _, _, _):
                self.fail("type syntax in a term position", at)
            case SStar(at):
                self.fail("★ in a term position", at)
        raise TypeError(s)

    def type(self, s: SNode) -> S.Type:
        mk = self.mk
        match s:
            case SVar():
                return self.resolve(s, "type", S.TVar, S.TRef)
            case SBinder(_, head, binder, cls, body):
                # ∀ X : κ may bind a type; the arrow A ➾ B takes a type
                dom = self.classifier(cls) if head == "all" and binder \
                    else self.type(cls)
                return mk(_TYPE_BINDERS[head], binder, dom,
                          self.under(binder, self.type, body))
            case SLam(at, binder, ann, body):
                if ann is None:
                    self.fail("type-level λ binders must be annotated", at)
                dom = self.classifier(ann)
                return mk(S.TLam, binder, dom,
                          self.under(binder, self.type, body))
            case SApp(_, style, fn, arg):
                f = self.type(fn)
                if style == "type":
                    return mk(S.AppT, f, self.type(arg))
                if style == "explicit":
                    return mk(S.AppTm, f, self.term(arg))
                self.fail("erased application in a type position", s.at)
            case SEq(_, lhs, rhs):
                return mk(S.Eq, self.term(lhs), self.term(rhs))
            case SStar(at):
                self.fail("★ is a kind, not a type", at)
            case SBigLam(at, _, _) | SBeta(at, _) | SRho(at, _, _, _) \
                    | SSigma(at, _) | SPair(at, _, _) | SProj(at, _, _):
                self.fail("term syntax in a type position", at)
        raise TypeError(s)

    def kind(self, s: SNode) -> S.Kind:
        """`s` is kind syntax: ★, or a Π (or ➔) ending in ★."""
        if isinstance(s, SStar):
            return self.mk(S.Star)
        dom = self.classifier(s.cls)
        return self.mk(S.KPiK if S.is_kind(dom) else S.KPi, s.binder, dom,
                       self.under(s.binder, self.kind, s.body))


def _elaborate_items(items, sig: Signature, src: _Source) -> list:
    """Add `items` to `sig`; return the `(declaration, assertion)` pairs."""
    attached = []
    for item in items:
        match item:
            case ("decl", (name, cls_s, body_s, pos), expect_fail):
                if not expect_fail and name in sig:
                    raise ResolveError(f"duplicate definition {name}", pos,
                                       src.filename)
                elab = _Elab(sig, src)
                classifier = elab.classifier(cls_s)
                level = "type" if S.is_kind(classifier) else "term"
                body = (elab.type if level == "type" else elab.term)(body_s)
                sig.add(Decl(name, level, classifier, body, pos=pos,
                             expect_fail=expect_fail))
            case ("assert", assertion):
                attached.append(_attach(sig, assertion, src.filename))
            case ("assert-erase", name, payload_s, pos):
                payload = _Elab(sig, src).term(payload_s)
                attached.append(_attach(sig, Assertion(
                    "erases-to", name, payload=payload, pos=pos),
                    src.filename))
    return attached


def _attach(sig: Signature, assertion: Assertion, filename: Optional[str]):
    decl = sig.lookup(assertion.target)
    if decl is None:
        raise ResolveError(f"assertion names unknown definition "
                           f"{assertion.target}", assertion.pos, filename)
    if decl.level != "term":
        raise ResolveError(f"assertion target {assertion.target} has no "
                           f"erasure (type-level)", assertion.pos, filename)
    if assertion.other is not None:
        other = sig.lookup(assertion.other)
        if other is None or other.level != "term":
            raise ResolveError(f"assertion names unknown term definition "
                               f"{assertion.other}", assertion.pos, filename)
    return decl, assertion


# ---------------------------------------------------------------------------
# Entry points

def _read(text: str, filename: str, parse, elaborate):
    """`elaborate(parse(...), source)` of all of `text`. Nesting too deep
    for Python's recursion limit is a parse error."""
    src = _Source(text, filename)
    try:
        return elaborate(parse(_Parser(tokenize(text, filename), src)), src)
    except RecursionError:
        raise ParseError("nesting too deep", None, filename) from None


def parse_signature(text: str, filename: str = "<input>",
                    sig: Optional[Signature] = None) -> Signature:
    """Parse and resolve declarations, extending `sig` when given, only
    once the whole file resolves: on a `ParseError`, `sig` is unchanged."""
    if sig is None:
        sig = Signature()
    staged = sig.staged()
    attached = _read(text, filename, _Parser.parse_items,
                     lambda items, src: _elaborate_items(items, staged, src))
    for decl in staged.decls:
        sig.add(decl)
    for decl, assertion in attached:
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
    return _read(text, "<term>", _Parser.parse_whole,
                 lambda s, src: _Elab(sig, src).term(s))


def parse_type(text: str, sig: Optional[Signature] = None) -> S.Type:
    """Parse a standalone type, or a kind."""
    return _read(text, "<type>", _Parser.parse_whole,
                 lambda s, src: _Elab(sig, src).classifier(s))
