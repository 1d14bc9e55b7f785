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

@dataclass
class Token:
    kind: str
    text: str
    pos: Pos


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
    r"(?P<NEWLINE>\n)",
    r"(?P<SKIP>[ \t\r]+|--[^\n]*)",
    r"(?P<PROJ>(?<=[^ \t\r\n])\.[12])",
    "(?P<SYMBOL>" + "|".join(map(re.escape, _SYMBOLS)) + ")",
    r"(?P<DASH>-(?=[ \t\r\n]|\Z))",
    r"(?P<ERASED>-)",
    r"(?P<DIRECTIVE>#(?:[^\W_]|-)*)",
    r"(?P<WORD>\w[\w'′]*(?:-[\w'′]+)*)",
    r"(?P<BAD>.)",
]), re.S)


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, word = m.lastgroup, m.group()
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
            continue
        if kind == "SKIP":
            continue
        pos = Pos(line, m.start() - line_start + 1)
        if kind in ("SYMBOL", "WORD"):
            kind = _SPELLING.get(word, "IDENT")
        if kind == "IDENT" and not (word[0].isalpha() or word[0] == "_"):
            kind = "BAD"    # a word cannot start with a numeral such as ½
        if kind == "BAD":
            raise ParseError(f"stray {word!r}" if word in ("/", "<")
                             else f"unexpected character {word[0]!r}",
                             pos, filename)
        toks.append(Token(kind, word[1] if kind == "PROJ" else word, pos))
    toks.append(Token("EOF", "", Pos(line, len(text) - line_start + 1)))
    return toks


# ---------------------------------------------------------------------------
# Surface AST (names unresolved)

@dataclass
class SNode:
    pos: Pos


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


class _Parser:
    def __init__(self, toks: list[Token], filename: str):
        self.toks = toks
        self.i = 0
        self.filename = filename

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.next()
        if t.kind != kind:
            raise ParseError(
                f"expected {kind}, found {t.kind} {t.text!r}",
                t.pos, self.filename)
        return t

    # expression grammar, loosest first:
    #   expr   := binders | ρ ... | ς expr | arrows (≃ arrows)?
    #   arrows := app ((➔|➾) expr)?
    #   app    := atom (atom | -atom | · atom)*
    def parse_expr(self) -> SNode:
        t = self.peek()
        if t.kind == "LAM":
            self.next()
            binder = self.expect("IDENT").text
            ann = None
            if self.peek().kind == "COLON":
                self.next()
                ann = self.parse_expr()
            self.expect("DOT")
            return SLam(t.pos, binder, ann, self.parse_expr())
        if t.kind == "BIGLAM":
            self.next()
            binder = self.expect("IDENT").text
            self.expect("DOT")
            return SBigLam(t.pos, binder, self.parse_expr())
        if t.kind in ("PI", "FORALL", "IOTA"):
            self.next()
            binder = self.expect("IDENT").text
            self.expect("COLON")
            cls = self.parse_expr()
            self.expect("DOT")
            return SBinder(t.pos, _HEADS[t.kind], binder, cls,
                           self.parse_expr())
        if t.kind in ("RHO", "RHOPLUS"):
            self.next()
            proof = self.parse_proof()
            self.expect("DASH")
            return SRho(t.pos, t.kind == "RHOPLUS", proof, self.parse_expr())
        if t.kind == "SIGMA":
            self.next()
            return SSigma(t.pos, self.parse_expr())
        lhs = self.parse_arrows()
        if self.peek().kind == "SIMEQ":
            self.next()
            return SEq(lhs.pos, lhs, self.parse_arrows())
        return lhs

    def parse_whole(self) -> SNode:
        """One expression that spans the whole input."""
        node = self.parse_expr()
        self.expect("EOF")
        return node

    def parse_proof(self) -> SNode:
        t = self.peek()
        if t.kind == "SIGMA":
            self.next()
            return SSigma(t.pos, self.parse_proof())
        return self.parse_app()

    def parse_arrows(self) -> SNode:
        lhs = self.parse_app()
        t = self.peek()
        if t.kind in ("ARROW", "FATARROW"):
            # the codomain extends maximally right and may itself bind
            self.next()
            return SBinder(lhs.pos, _HEADS[t.kind], "", lhs, self.parse_expr())
        return lhs

    def parse_app(self) -> SNode:
        node = self.parse_atom()
        while True:
            t = self.peek()
            if t.kind in _ATOM_STARTERS:
                node = SApp(node.pos, "explicit", node, self.parse_atom())
            elif t.kind == "ERASED":
                self.next()
                node = SApp(node.pos, "erased", node, self.parse_atom())
            elif t.kind == "CDOT":
                self.next()
                node = SApp(node.pos, "type", node, self.parse_atom())
            else:
                return node

    def parse_atom(self) -> SNode:
        t = self.next()
        if t.kind == "IDENT":
            return self.postfix(SVar(t.pos, t.text))
        if t.kind == "LPAREN":
            e = self.parse_expr()
            self.expect("RPAREN")
            return self.postfix(e)
        if t.kind == "LBRACKET":
            left = self.parse_expr()
            self.expect("COMMA")
            right = self.parse_expr()
            self.expect("RBRACKET")
            return self.postfix(SPair(t.pos, left, right))
        if t.kind == "BETA":
            if self.peek().kind == "LBRACE":
                self.next()
                w = self.parse_expr()
                self.expect("RBRACE")
                return SBeta(t.pos, w)
            return SBeta(t.pos, None)
        if t.kind == "STAR":
            return SStar(t.pos)
        if t.kind == "LBRACE":
            lhs = self.parse_arrows()
            self.expect("SIMEQ")
            rhs = self.parse_arrows()
            self.expect("RBRACE")
            return self.postfix(SEq(t.pos, lhs, rhs))
        raise ParseError(
            f"expected a term or type, found {t.kind} {t.text!r}",
            t.pos, self.filename)

    def postfix(self, node: SNode) -> SNode:
        while self.peek().kind == "PROJ":
            t = self.next()
            node = SProj(t.pos, node, int(t.text))
        return node

    # --- declarations and directives ------------------------------------

    def parse_decl_core(self) -> tuple[str, SNode, SNode, Pos]:
        name_tok = self.expect("IDENT")
        self.expect("ASCRIBE")
        classifier = self.parse_expr()
        self.expect("EQUALS")
        body = self.parse_expr()
        self.expect("DOT")
        return name_tok.text, classifier, body, name_tok.pos

    def parse_items(self) -> list:
        items = []
        while True:
            t = self.peek()
            if t.kind == "EOF":
                return items
            if t.kind == "DIRECTIVE":
                items.append(self.parse_directive())
                continue
            if t.kind == "IDENT":
                items.append(("decl", self.parse_decl_core(), False))
                continue
            raise ParseError(
                f"expected a declaration or directive, "
                f"found {t.kind} {t.text!r}", t.pos, self.filename)

    def parse_directive(self):
        t = self.next()
        if t.text == "#assert-id":
            return ("assert", Assertion("identity", self.expect("IDENT").text,
                                        pos=t.pos))
        if t.text == "#assert-not-id":
            return ("assert", Assertion("not-identity",
                                        self.expect("IDENT").text, pos=t.pos))
        if t.text == "#assert-eq":
            a = self.expect("IDENT").text
            b = self.expect("IDENT").text
            return ("assert", Assertion("erase-equal", a, other=b, pos=t.pos))
        if t.text == "#assert-erase":
            name = self.expect("IDENT").text
            self.expect("EQUALS")
            payload = self.parse_expr()
            self.expect("DOT")
            return ("assert-erase", name, payload, t.pos)
        if t.text == "#assert-fail":
            return ("decl", self.parse_decl_core(), True)
        raise ParseError(f"unknown directive {t.text}", t.pos,
                         self.filename)


# ---------------------------------------------------------------------------
# Elaboration: classify as term/type/kind and resolve names to indices

def _is_kind_syntax(s: SNode) -> bool:
    while isinstance(s, SBinder) and s.head == "pi":
        s = s.body
    return isinstance(s, SStar)


_TYPE_BINDERS = {"all": S.All, "pi": S.Pi, "iota": S.Iota}


class _Elab:
    """Elaborates under a stack of binder names; discard it once it raises."""

    def __init__(self, sig: Signature, filename: str = "<input>"):
        self.sig = sig
        self.filename = filename
        self.env: list[str] = []  # binder names, innermost last

    def fail(self, msg: str, pos: Optional[Pos]):
        raise ResolveError(msg, pos, self.filename)

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
                return var(depth)
        decl = self.sig.lookup(s.name)
        if decl is None:
            self.fail(f"unbound identifier {s.name}", s.pos)
        if decl.level != level:
            self.fail(f"{s.name} is a {decl.level}-level definition, "
                      f"not a {level}", s.pos)
        return ref(s.name)

    def classifier(self, s: SNode) -> Union[S.Type, S.Kind]:
        return self.kind(s) if _is_kind_syntax(s) else self.type(s)

    def term(self, s: SNode) -> S.Term:
        match s:
            case SVar():
                return self.resolve(s, "term", S.Var, S.Ref)
            case SLam(_, binder, ann, body):
                a = self.type(ann) if ann is not None else None
                return S.Lam(binder, a, self.under(binder, self.term, body))
            case SBigLam(_, binder, body):
                return S.ILam(binder, self.under(binder, self.term, body))
            case SApp(_, style, fn, arg):
                f = self.term(fn)
                if style == "explicit":
                    return S.App(f, self.term(arg))
                if style == "erased":
                    return S.EApp(f, self.term(arg))
                return S.TApp(f, self.type(arg))
            case SPair(_, left, right):
                return S.Pair(self.term(left), self.term(right))
            case SProj(_, sub, which):
                return S.Proj(self.term(sub), which)
            case SBeta(_, witness):
                return S.Beta(self.term(witness) if witness else None)
            case SRho(_, plus, proof, body):
                return S.Rho(self.term(proof), self.term(body), plus)
            case SSigma(_, proof):
                return S.Symm(self.term(proof))
            case SEq(pos, _, _) | SBinder(pos, _, _, _, _):
                self.fail("type syntax in a term position", pos)
            case SStar(pos):
                self.fail("★ in a term position", pos)
        raise TypeError(s)

    def type(self, s: SNode) -> S.Type:
        match s:
            case SVar():
                return self.resolve(s, "type", S.TVar, S.TRef)
            case SBinder(_, head, binder, cls, body):
                # ∀ X : κ may bind a type; the arrow A ➾ B takes a type
                dom = self.classifier(cls) if head == "all" and binder \
                    else self.type(cls)
                return _TYPE_BINDERS[head](binder, dom,
                                           self.under(binder, self.type, body))
            case SLam(pos, binder, ann, body):
                if ann is None:
                    self.fail("type-level λ binders must be annotated", pos)
                dom = self.classifier(ann)
                return S.TLam(binder, dom, self.under(binder, self.type, body))
            case SApp(_, style, fn, arg):
                f = self.type(fn)
                if style == "type":
                    return S.AppT(f, self.type(arg))
                if style == "explicit":
                    return S.AppTm(f, self.term(arg))
                self.fail("erased application in a type position", s.pos)
            case SEq(_, lhs, rhs):
                return S.Eq(self.term(lhs), self.term(rhs))
            case SStar(pos):
                self.fail("★ is a kind, not a type", pos)
            case SBigLam(pos, _, _) | SBeta(pos, _) | SRho(pos, _, _, _) \
                    | SSigma(pos, _) | SPair(pos, _, _) | SProj(pos, _, _):
                self.fail("term syntax in a type position", pos)
        raise TypeError(s)

    def kind(self, s: SNode) -> S.Kind:
        """`s` is kind syntax: ★, or a Π (or ➔) ending in ★."""
        if isinstance(s, SStar):
            return S.Star()
        dom = self.classifier(s.cls)
        return (S.KPiK if S.is_kind(dom) else S.KPi)(
            s.binder, dom, self.under(s.binder, self.kind, s.body))


def _elaborate_items(items, sig: Signature, filename: str) -> None:
    for item in items:
        match item:
            case ("decl", (name, cls_s, body_s, pos), expect_fail):
                if not expect_fail and name in sig:
                    raise ResolveError(f"duplicate definition {name}", pos,
                                       filename)
                elab = _Elab(sig, filename)
                classifier = elab.classifier(cls_s)
                level = "type" if S.is_kind(classifier) else "term"
                body = (elab.type if level == "type" else elab.term)(body_s)
                sig.add(Decl(name, level, classifier, body, pos=pos,
                             expect_fail=expect_fail))
            case ("assert", assertion):
                _attach(sig, assertion, filename)
            case ("assert-erase", name, payload_s, pos):
                payload = _Elab(sig, filename).term(payload_s)
                _attach(sig, Assertion("erases-to", name, payload=payload,
                                       pos=pos), filename)


def _attach(sig: Signature, assertion: Assertion,
            filename: Optional[str] = None) -> None:
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
    decl.assertions.append(assertion)


# ---------------------------------------------------------------------------
# Entry points

def _read(text: str, filename: str, parse, elaborate):
    """Parse all of `text` with `parse`, then `elaborate` the result.
    Nesting too deep for Python's recursion limit is a parse error."""
    try:
        return elaborate(parse(_Parser(tokenize(text, filename), filename)))
    except RecursionError:
        raise ParseError("nesting too deep", None, filename) from None


def parse_signature(text: str, filename: str = "<input>",
                    sig: Optional[Signature] = None) -> Signature:
    """Parse and resolve declarations, extending `sig` when given."""
    if sig is None:
        sig = Signature()
    _read(text, filename, _Parser.parse_items,
          lambda items: _elaborate_items(items, sig, filename))
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
    elab = _Elab(sig if sig is not None else Signature(), "<term>")
    return _read(text, "<term>", _Parser.parse_whole, elab.term)


def parse_type(text: str, sig: Optional[Signature] = None) -> S.Type:
    """Parse a standalone type, or a kind."""
    elab = _Elab(sig if sig is not None else Signature(), "<type>")
    return _read(text, "<type>", _Parser.parse_whole, elab.classifier)
