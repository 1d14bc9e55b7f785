"""Resolved abstract syntax: annotated terms, types, kinds, the pure terms
that erasure produces, signatures, and one de Bruijn traversal for all.

Bound variables are de Bruijn indices (0 = innermost binder); binder
names are kept only as printing hints and are excluded from equality,
so structural `==` is alpha-equivalence on every AST here. Term and
type variables share one index space: the context is a single telescope
and a binder's classifier decides which flavor it introduces.

`SHAPES` says, for each node class, which fields are data, subtrees, or
subtrees under the node's binder; `rebuild` and `subtrees` read it, and
shifting, substitution, occurrence and every other structural walk of
the kernel are written once on top of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

Term = Union[
    "Var", "Ref", "Lam", "ILam", "App", "EApp", "TApp",
    "Pair", "Proj", "Beta", "Rho", "Symm",
]
Type = Union[
    "TVar", "TRef", "All", "Pi", "TLam", "AppT", "AppTm", "Iota", "Eq",
]
Kind = Union["Star", "KPi", "KPiK"]
PureTerm = Union["PVar", "PLam", "PApp", "PRef"]


class KernelError(Exception):
    """Base for all kernel-raised errors."""


@dataclass
class Pos:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# ---------------------------------------------------------------------------
# Annotated terms

@dataclass(frozen=True)
class Var:
    idx: int


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class Lam:
    name: str = field(compare=False)
    ann: Optional[Type]
    body: Term


@dataclass(frozen=True)
class ILam:
    """Implicit abstraction; erased, binder must not survive erasure."""
    name: str = field(compare=False)
    body: Term


@dataclass(frozen=True)
class App:
    fn: Term
    arg: Term


@dataclass(frozen=True)
class EApp:
    """Erased application `t -s`; the argument never reaches the erasure."""
    fn: Term
    arg: Term


@dataclass(frozen=True)
class TApp:
    """Type application `t · T`."""
    fn: Term
    ty: Type


@dataclass(frozen=True)
class Pair:
    """Intersection introduction `[t , t']`."""
    left: Term
    right: Term


@dataclass(frozen=True)
class Proj:
    sub: Term
    which: int  # 1 or 2


@dataclass(frozen=True)
class Beta:
    """Reflexivity `β` or `β{t}` (erases to the witness, default identity)."""
    witness: Optional[Term] = None


@dataclass(frozen=True)
class Rho:
    """Equality elimination `ρ q - t`; `ρ+` normalizes the goal first."""
    proof: Term
    body: Term
    normalize_first: bool = False


@dataclass(frozen=True)
class Symm:
    """Equality symmetry `ς q`."""
    proof: Term


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class TVar:
    idx: int


@dataclass(frozen=True)
class TRef:
    name: str


@dataclass(frozen=True)
class All:
    """Implicit product `∀ x : dom . body`; dom a kind binds a type
    variable, dom a type binds an erased term variable. `➾` is the
    non-dependent spelling."""
    name: str = field(compare=False)
    dom: Union[Type, Kind]
    body: Type


@dataclass(frozen=True)
class Pi:
    """Explicit product `Π x : dom . body`; `➔` when non-dependent."""
    name: str = field(compare=False)
    dom: Type
    body: Type


@dataclass(frozen=True)
class TLam:
    name: str = field(compare=False)
    dom: Union[Type, Kind]
    body: Type


@dataclass(frozen=True)
class AppT:
    """Type-level application to a type: `T · S`."""
    fn: Type
    arg: Type


@dataclass(frozen=True)
class AppTm:
    """Type-level application to a term: `T t`."""
    fn: Type
    arg: Term


@dataclass(frozen=True)
class Iota:
    """Dependent intersection `ι x : left . right`."""
    name: str = field(compare=False)
    left: Type
    right: Type


@dataclass(frozen=True)
class Eq:
    """Untyped-term equality `{l ≃ r}`; operands are scoped, not typed."""
    lhs: Term
    rhs: Term


# ---------------------------------------------------------------------------
# Kinds

@dataclass(frozen=True)
class Star:
    pass


@dataclass(frozen=True)
class KPi:
    """Term-indexed kind `Π x : T . κ` (`T ➔ κ` when non-dependent)."""
    name: str = field(compare=False)
    dom: Type
    body: Kind


@dataclass(frozen=True)
class KPiK:
    """Type-indexed kind `Π X : κ . κ'` (`κ ➔ κ'` when non-dependent)."""
    name: str = field(compare=False)
    dom: Kind
    body: Kind


# ---------------------------------------------------------------------------
# Pure terms: the untyped λ-terms that erasure produces (see erasure.py)

@dataclass(frozen=True)
class PVar:
    idx: int


@dataclass(frozen=True)
class PLam:
    hint: str = field(compare=False)
    body: PureTerm


@dataclass(frozen=True)
class PApp:
    fn: PureTerm
    arg: PureTerm


@dataclass(frozen=True)
class PRef:
    name: str


# ---------------------------------------------------------------------------
# One generic traversal for every AST above

DATA, SUB, BOUND = None, 0, 1   # a field's role; SUB/BOUND add to the depth

# One row per node class: each field in declaration order, with whether it
# holds plain data, a subtree, or a subtree under the node's binder.
SHAPES = {
    Var: {"idx": DATA},
    Ref: {"name": DATA},
    Lam: {"name": DATA, "ann": SUB, "body": BOUND},
    ILam: {"name": DATA, "body": BOUND},
    App: {"fn": SUB, "arg": SUB},
    EApp: {"fn": SUB, "arg": SUB},
    TApp: {"fn": SUB, "ty": SUB},
    Pair: {"left": SUB, "right": SUB},
    Proj: {"sub": SUB, "which": DATA},
    Beta: {"witness": SUB},
    Rho: {"proof": SUB, "body": SUB, "normalize_first": DATA},
    Symm: {"proof": SUB},
    TVar: {"idx": DATA},
    TRef: {"name": DATA},
    All: {"name": DATA, "dom": SUB, "body": BOUND},
    Pi: {"name": DATA, "dom": SUB, "body": BOUND},
    TLam: {"name": DATA, "dom": SUB, "body": BOUND},
    AppT: {"fn": SUB, "arg": SUB},
    AppTm: {"fn": SUB, "arg": SUB},
    Iota: {"name": DATA, "left": SUB, "right": BOUND},
    Eq: {"lhs": SUB, "rhs": SUB},
    Star: {},
    KPi: {"name": DATA, "dom": SUB, "body": BOUND},
    KPiK: {"name": DATA, "dom": SUB, "body": BOUND},
    PVar: {"idx": DATA},
    PLam: {"hint": DATA, "body": BOUND},
    PApp: {"fn": SUB, "arg": SUB},
    PRef: {"name": DATA},
}
for _cls, _row in SHAPES.items():
    if tuple(_row) != tuple(_cls.__dataclass_fields__):
        raise TypeError(f"SHAPES row of {_cls.__name__} does not list its "
                        f"fields in order")

_ROWS = {cls: tuple(row.items()) for cls, row in SHAPES.items()}
_SUBS = {cls: tuple((f, r) for f, r in row.items() if r is not DATA)
         for cls, row in SHAPES.items()}
_VARS = (Var, TVar, PVar)

_TERM_NODES = (Var, Ref, Lam, ILam, App, EApp, TApp, Pair, Proj, Beta, Rho, Symm)
_TYPE_NODES = (TVar, TRef, All, Pi, TLam, AppT, AppTm, Iota, Eq)
_KIND_NODES = (Star, KPi, KPiK)
_PURE_NODES = (PVar, PLam, PApp, PRef)
_SORTS = {cls: sort for sort, group in (
    ("term", _TERM_NODES), ("type", _TYPE_NODES), ("kind", _KIND_NODES),
    ("pure term", _PURE_NODES)) for cls in group}


def sort_of(node) -> str:
    """"term", "type", "kind" or "pure term"."""
    return _SORTS[type(node)]


def rebuild(node, fn, depth: int):
    """`node` with each subtree `s` replaced by `fn(s, d)`, where `d` is
    `depth` plus one under the node's binder."""
    cls = type(node)
    if not _SUBS[cls]:
        return node
    args = []
    for f, role in _ROWS[cls]:
        v = getattr(node, f)
        args.append(v if role is DATA or v is None else fn(v, depth + role))
    return cls(*args)


def subtrees(node, depth: int) -> list:
    """The `(subtree, d)` pairs of `node` in field order, `d` as in rebuild."""
    return [(v, depth + role) for f, role in _SUBS[type(node)]
            if (v := getattr(node, f)) is not None]


# ---------------------------------------------------------------------------
# Shifting, substitution and occurrence (uniform over the shared index space)

def shift(node, by: int, cutoff: int = 0):
    """Add `by` to every free index >= cutoff, in any AST."""
    if not by:
        return node

    def go(n, c):
        cls = type(n)
        if cls in _VARS:
            return cls(n.idx + by) if n.idx >= c else n
        return rebuild(n, go, c)
    return go(node, cutoff)


def subst(node, j: int, val):
    """Replace index j by `val`; decrement frees above j, in any AST.

    A substituend of another sort than the variable (a Type for a term
    variable, say) means the input confused the flavors; that is an
    internal error.
    """
    shifted = {}        # val under k - j more binders, by k

    def go(n, k):
        cls = type(n)
        if cls not in _VARS:
            return rebuild(n, go, k)
        if n.idx != k:
            return cls(n.idx - 1) if n.idx > k else n
        got = _SORTS.get(type(val), type(val).__name__)
        if got != _SORTS[cls]:
            raise KernelError(f"{got} substituted into {_SORTS[cls]} position")
        out = shifted.get(k)
        if out is None:
            out = shifted[k] = shift(val, k - j)
        return out
    return go(node, j)


def occurs_index(node, idx: int) -> bool:
    """Does de Bruijn index `idx` occur anywhere in `node`?"""
    todo = [(node, idx)]
    while todo:
        n, i = todo.pop()
        if type(n) in _VARS:
            if n.idx == i:
                return True
        else:
            todo += subtrees(n, i)
    return False


def is_term(node) -> bool:
    return isinstance(node, _TERM_NODES)


def is_type(node) -> bool:
    return isinstance(node, _TYPE_NODES)


def is_kind(node) -> bool:
    return isinstance(node, _KIND_NODES)


# ---------------------------------------------------------------------------
# Signatures

@dataclass
class Assertion:
    kind: str          # "identity" | "not-identity" | "erases-to" | "erase-equal"
    target: str
    payload: Optional[Term] = None   # erases-to: the stated pure-form term
    other: Optional[str] = None      # erase-equal: the second definition
    pos: Optional[Pos] = None

    def describe(self) -> str:
        if self.kind == "erase-equal":
            return f"erase-equal {self.target} {self.other}"
        return f"{self.kind} {self.target}"


@dataclass
class Decl:
    name: str
    level: str                      # "term" | "type"
    classifier: Union[Type, Kind]
    body: Union[Term, Type]
    pos: Optional[Pos] = None
    assertions: list[Assertion] = field(default_factory=list)
    expect_fail: bool = False       # declared under #assert-fail; not registered


class Signature:
    """Ordered top-level definitions plus caches keyed by this instance.

    The caches memoize per-definition erasures and normal forms; they are
    write-once per name, so concurrent readers are safe.
    """

    def __init__(self) -> None:
        self.decls: list[Decl] = []
        self._by_name: dict[str, Decl] = {}
        self._erasures: dict[str, object] = {}
        self._def_nfs: dict[str, object] = {}
        self.rejected: set[str] = set()     # declarations that failed to check

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def lookup(self, name: str) -> Optional[Decl]:
        return self._by_name.get(name)

    def add(self, decl: Decl) -> None:
        if not decl.expect_fail:
            if decl.name in self._by_name:
                raise KernelError(f"duplicate definition {decl.name}")
            self._by_name[decl.name] = decl
        self.decls.append(decl)

    def truncate(self, n: int) -> None:
        """Remove every declaration after the first `n`."""
        for decl in self.decls[n:]:
            if not decl.expect_fail:
                del self._by_name[decl.name]
        del self.decls[n:]
