"""Resolved abstract syntax: annotated terms, types, kinds, the pure terms
that erasure produces, signatures, and one de Bruijn traversal for all.

Bound variables are de Bruijn indices (0 = innermost binder); binder
names are kept only as printing hints and are excluded from equality,
so structural `==` is alpha-equivalence on every AST here. Term and
type variables share one index space: the context is a single telescope
and a binder's classifier decides which flavor it introduces.

`SHAPES` says, for each node class, which fields are data, subtrees, or
subtrees under the node's binder. Each class's constructor is generated
from its row and computes the node's free-index masks as it is built;
`transform`, `subtrees` and `interner` read it too. Shifting,
substitution and every other rewrite of the kernel are callbacks given
to the one walk, `transform`.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field
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


class _Node:
    """Every AST node below. Its constructor, generated from its `SHAPES`
    row, stores the fields and two masks of the indices free in the node:
    `free_mask` has bit i set exactly when de Bruijn index i is free;
    `sort_mask` has bit 2i set when index i occurs as a term variable and
    bit 2i + 1 when it occurs as a type variable. Nodes are immutable by
    contract: nothing assigns an attribute after the constructor, so the
    masks never go stale."""
    __slots__ = ("free_mask", "sort_mask")


# `==` compares the class and the compared fields (α-equivalence), and
# equal nodes hash equal; `__init__` is set from the class's SHAPES row.
_node = dataclass(slots=True, init=False, unsafe_hash=True)


# ---------------------------------------------------------------------------
# Annotated terms

@_node
class Var(_Node):
    idx: int


@_node
class Ref(_Node):
    name: str


@_node
class Lam(_Node):
    name: str = field(compare=False)
    ann: Optional[Type]
    body: Term


@_node
class ILam(_Node):
    """Implicit abstraction; erased, binder must not survive erasure."""
    name: str = field(compare=False)
    body: Term


@_node
class App(_Node):
    fn: Term
    arg: Term


@_node
class EApp(_Node):
    """Erased application `t -s`; the argument never reaches the erasure."""
    fn: Term
    arg: Term


@_node
class TApp(_Node):
    """Type application `t · T`."""
    fn: Term
    ty: Type


@_node
class Pair(_Node):
    """Intersection introduction `[t , t']`."""
    left: Term
    right: Term


@_node
class Proj(_Node):
    sub: Term
    which: int  # 1 or 2


@_node
class Beta(_Node):
    """Reflexivity `β` or `β{t}` (erases to the witness, default identity)."""
    witness: Optional[Term] = None


@_node
class Rho(_Node):
    """Equality elimination `ρ q - t`; `ρ+` normalizes the goal first."""
    proof: Term
    body: Term
    normalize_first: bool = False


@_node
class Symm(_Node):
    """Equality symmetry `ς q`."""
    proof: Term


# ---------------------------------------------------------------------------
# Types

@_node
class TVar(_Node):
    idx: int


@_node
class TRef(_Node):
    name: str


@_node
class All(_Node):
    """Implicit product `∀ x : dom . body`; dom a kind binds a type
    variable, dom a type binds an erased term variable. `➾` is the
    non-dependent spelling."""
    name: str = field(compare=False)
    dom: Union[Type, Kind]
    body: Type


@_node
class Pi(_Node):
    """Explicit product `Π x : dom . body`; `➔` when non-dependent."""
    name: str = field(compare=False)
    dom: Type
    body: Type


@_node
class TLam(_Node):
    name: str = field(compare=False)
    dom: Union[Type, Kind]
    body: Type


@_node
class AppT(_Node):
    """Type-level application to a type: `T · S`."""
    fn: Type
    arg: Type


@_node
class AppTm(_Node):
    """Type-level application to a term: `T t`."""
    fn: Type
    arg: Term


@_node
class Iota(_Node):
    """Dependent intersection `ι x : left . right`."""
    name: str = field(compare=False)
    left: Type
    right: Type


@_node
class Eq(_Node):
    """Untyped-term equality `{l ≃ r}`; operands are scoped, not typed."""
    lhs: Term
    rhs: Term


# ---------------------------------------------------------------------------
# Kinds

@_node
class Star(_Node):
    pass


@_node
class KPi(_Node):
    """Term-indexed kind `Π x : T . κ` (`T ➔ κ` when non-dependent)."""
    name: str = field(compare=False)
    dom: Type
    body: Kind


@_node
class KPiK(_Node):
    """Type-indexed kind `Π X : κ . κ'` (`κ ➔ κ'` when non-dependent)."""
    name: str = field(compare=False)
    dom: Kind
    body: Kind


# ---------------------------------------------------------------------------
# Pure terms: the untyped λ-terms that erasure produces (see erasure.py)

@_node
class PVar(_Node):
    idx: int


@_node
class PLam(_Node):
    hint: str = field(compare=False)
    body: PureTerm


@_node
class PApp(_Node):
    fn: PureTerm
    arg: PureTerm


@_node
class PRef(_Node):
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
# How `interner` keys each class: None if every field is data, `_TWO` if
# the fields are two subtrees, else the role of each field.
_TWO = (SUB, SUB)
_KEYS = {cls: None if all(r is DATA for r in row.values())
         else _TWO if tuple(row.values()) == _TWO else tuple(row.values())
         for cls, row in SHAPES.items()}
_VARS = (Var, TVar, PVar)

_TERM_NODES = (Var, Ref, Lam, ILam, App, EApp, TApp, Pair, Proj, Beta, Rho, Symm)
_TYPE_NODES = (TVar, TRef, All, Pi, TLam, AppT, AppTm, Iota, Eq)
_KIND_NODES = (Star, KPi, KPiK)
_PURE_NODES = (PVar, PLam, PApp, PRef)
_SORTS = {cls: sort for sort, group in (
    ("term", _TERM_NODES), ("type", _TYPE_NODES), ("kind", _KIND_NODES),
    ("pure term", _PURE_NODES)) for cls in group}


def _constructor(cls, row: dict):
    """`cls.__init__`: store the fields of `row`, then the masks, folded
    from the children's: a variable contributes its own bits, a subtree
    under the binder its bits moved down one index, an absent (`None`)
    subtree nothing. Pure-term variables have no sort bits."""
    fields = cls.__dataclass_fields__
    free = ["1 << idx"] if cls in _VARS else []
    sorts = ["1 << 2 * idx"] if cls is Var else ["2 << 2 * idx"] \
        if cls is TVar else []
    for f, role in row.items():
        if role is not DATA:
            get = f"{f}.%s" if not fields[f].type.startswith("Optional") \
                else f"({f}.%s if {f} is not None else 0)"
            free.append(get % "free_mask" + " >> 1" * role)
            if cls not in _PURE_NODES:
                sorts.append(get % "sort_mask" + " >> 2" * role)
    src = "".join(f"    self.{f} = {f}\n" for f in row)
    src = (f"def __init__(self, {', '.join(row)}):\n{src}"
           f"    self.free_mask = {' | '.join(free) or 0}\n"
           f"    self.sort_mask = {' | '.join(sorts) or 0}\n")
    scope = {}
    exec(src, scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__name__}.__init__"
    init.__defaults__ = tuple(fields[f].default for f in row
                              if fields[f].default is not MISSING) or None
    return init


for _cls, _row in SHAPES.items():
    _cls.__init__ = _constructor(_cls, _row)


def sort_clash(got: str, position: str) -> KernelError:
    """The error of putting a `got` (a sort) where a variable of sort
    `position` is used."""
    return KernelError(f"{got} substituted into {position} position")


def transform(node, fn, depth: int = 0):
    """`fn(node, depth)` if that is not None; else `node` with each subtree
    `s` replaced by `transform(s, fn, d)`, where `d` is `depth` plus one
    under the node's binder, and `node` itself if every subtree comes back
    as the same object. One Python frame per level."""
    out = fn(node, depth)
    if out is not None:
        return out
    cls = type(node)
    args = []
    changed = False
    for f, role in _ROWS[cls]:
        v = getattr(node, f)
        if role is not DATA and v is not None:
            new = transform(v, fn, depth + role)
            if new is not v:
                v, changed = new, True
        args.append(v)
    return cls(*args) if changed else node


def subtrees(node, depth: int) -> list:
    """The `(subtree, d)` pairs of `node` in field order, `d` as in
    `transform`."""
    return [(v, depth + role) for f, role in _SUBS[type(node)]
            if (v := getattr(node, f)) is not None]


def interner():
    """A hash-consing `mk(cls, *fields)`: keyed by the class, the data fields
    (binder hints included) and the subtrees' identities, it builds equal
    subterms with equal hints as one object."""
    table = {}
    get = table.get

    def mk(cls, *fields):
        roles = _KEYS[cls]
        if roles is _TWO:
            a, b = fields
            key = (cls, id(a), id(b))
        elif roles is None:
            key = (cls, fields)
        else:
            key = (cls, *[v if role is DATA else id(v)
                          for v, role in zip(fields, roles)])
        node = get(key)
        if node is None:
            node = table[key] = cls(*fields)
        return node
    return mk


# ---------------------------------------------------------------------------
# Shifting, substitution and free indices (uniform over the shared index space)

def shift(node, by: int, cutoff: int = 0):
    """Add `by` to every free index >= cutoff, in any AST."""
    def at(n, c):
        if not n.free_mask >> c:
            return n
        cls = type(n)
        return cls(n.idx + by) if cls in _VARS else None
    return transform(node, at, cutoff) if by else node


def subst(node, j: int, *vals):
    """Replace indices j, j+1, ... by `vals[-1]`, `vals[-2]`, ... in one
    walk; decrement the frees above them by `len(vals)`, in any AST.

    The values live outside the substituted binders, so `subst(b, 0, a0,
    a1)` instantiates the body `b` of `Π x0 . Π x1 . b` with `a0` for x0
    and `a1` for x1. A substituend of another sort than the variable (a
    Type for a term variable, say) means the input confused the flavors;
    that is an internal error.
    """
    m = len(vals)
    shifted = {}        # vals[m-1-i] under k - j more binders, by k*m + i

    def at(n, k):
        if not n.free_mask >> k:
            return n
        cls = type(n)
        if cls not in _VARS:
            return None
        i = n.idx - k
        if i >= m:
            return cls(n.idx - m)
        val = vals[m - 1 - i]
        got = _SORTS.get(type(val), type(val).__name__)
        if got != _SORTS[cls]:
            raise sort_clash(got, _SORTS[cls])
        key = k * m + i
        out = shifted.get(key)
        if out is None:
            out = shifted[key] = shift(val, k - j)
        return out
    return transform(node, at, j)


def occurs_index(node, idx: int) -> bool:
    """Does de Bruijn index `idx` occur free in `node`?"""
    return node.free_mask >> idx & 1 == 1


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
    assertions: list[Assertion] = field(default_factory=list)
    expect_fail: bool = False       # declared under #assert-fail; not registered


class Signature:
    """Ordered top-level definitions plus a cache keyed by this instance.

    The cache memoizes per-definition normal forms; it is write-once per
    name, so concurrent readers are safe.
    """

    def __init__(self) -> None:
        self.decls: list[Decl] = []
        self._by_name: dict[str, Decl] = {}
        self._def_nfs: dict[str, object] = {}
        self.rejected: set[str] = set()     # declarations that failed to check

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def lookup(self, name: str) -> Optional[Decl]:
        return self._by_name.get(name)

    def staged(self) -> Signature:
        """An empty signature that resolves the names of this one too."""
        staged = Signature()
        staged._by_name = dict(self._by_name)
        return staged

    def add(self, decl: Decl) -> None:
        if not decl.expect_fail:
            if decl.name in self._by_name:
                raise KernelError(f"duplicate definition {decl.name}")
            self._by_name[decl.name] = decl
        self.decls.append(decl)
