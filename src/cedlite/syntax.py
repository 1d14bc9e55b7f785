"""Resolved abstract syntax: annotated terms, types, kinds, the pure terms
that erasure produces, signatures, and one de Bruijn traversal for all.

Bound variables are de Bruijn indices (0 = innermost binder); binder
names are kept only as printing hints and are excluded from equality,
so structural `==` is alpha-equivalence on every AST here, at any depth.
Term and type variables share one index space: the context is a single
telescope and a binder's classifier decides which flavor it introduces.

A node class declares its fields once, as its `__slots__`: each field
with its role (compared data, binder hint, subtree, optional subtree, or
subtree under the node's binder). `SHAPES` collects these rows; every
class's constructor is generated from its row and computes the node's
free-index masks as it is built, and `==`, `hash`, `repr`, `transform`,
`subtrees` and `interner` read the rows too. Shifting, substitution and
every other rewrite of the kernel are callbacks given to the one walk,
`transform`.
"""

from __future__ import annotations

import functools
import sys
import threading
from dataclasses import dataclass, field
from operator import attrgetter
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


# A field's role. Data: DATA, compared by `==`; FLAG, a compared bool;
# HINT, a binder's name, kept for printing and ignored by `==` and `hash`.
# Subtrees: SUB; OPT, a subtree that may be absent (None); BOUND, one under
# the node's binder. DEPTH says what each subtree role adds to the depth;
# a run of FLAG and OPT fields that ends a row defaults to False and None.
DATA, FLAG, HINT = "data", "flag", "hint"
SUB, OPT, BOUND = "sub", "opt", "bound"
DEPTH = {SUB: 0, OPT: 0, BOUND: 1}
_DEFAULTS = {FLAG: False, OPT: None}


class _Node:
    """Every AST node below. Its fields and their roles are its
    `__slots__`, its row of `SHAPES`. Its constructor, generated from that
    row, stores the fields and two masks of the indices free in the node:
    `free_mask` has bit i set exactly when de Bruijn index i is free;
    `sort_mask` has bit 2i set when index i occurs as a term variable and
    bit 2i + 1 when it occurs as a type variable. Nodes are immutable by
    contract: nothing assigns an attribute after the constructor, so the
    masks never go stale."""
    __slots__ = ("free_mask", "sort_mask")

    def __eq__(self, other):
        """α-equivalence (`alpha_eq`)."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return alpha_eq(self, other)

    def __hash__(self):
        """Of the classes and compared data of the nodes in pre-order, with
        None for an absent subtree, so equal nodes hash equal."""
        items, todo = [], [self]
        while todo:
            n = todo.pop()
            if n is not None:
                cls = type(n)
                todo += [getattr(n, f) for f, _ in _SUBS[cls]]
                n = (cls, _DATA[cls](n))
            items.append(n)
        return hash(tuple(items))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in SHAPES[type(self)]) + ")"


# ---------------------------------------------------------------------------
# Annotated terms

class Var(_Node):
    __slots__ = {"idx": DATA}


class Ref(_Node):
    __slots__ = {"name": DATA}


class Lam(_Node):
    __slots__ = {"name": HINT, "ann": OPT, "body": BOUND}


class ILam(_Node):
    """Implicit abstraction; erased, binder must not survive erasure."""
    __slots__ = {"name": HINT, "body": BOUND}


class App(_Node):
    __slots__ = {"fn": SUB, "arg": SUB}


class EApp(_Node):
    """Erased application `t -s`; the argument never reaches the erasure."""
    __slots__ = {"fn": SUB, "arg": SUB}


class TApp(_Node):
    """Type application `t · T`."""
    __slots__ = {"fn": SUB, "arg": SUB}


class Pair(_Node):
    """Intersection introduction `[t , t']`."""
    __slots__ = {"left": SUB, "right": SUB}


class Proj(_Node):
    """The projection `t.1` or `t.2` (`which`)."""
    __slots__ = {"sub": SUB, "which": DATA}


class Beta(_Node):
    """Reflexivity `β` or `β{t}` (erases to the witness, default identity)."""
    __slots__ = {"witness": OPT}


class Rho(_Node):
    """Equality elimination `ρ q - t`; `ρ+` normalizes the goal first."""
    __slots__ = {"proof": SUB, "body": SUB, "normalize_first": FLAG}


class Symm(_Node):
    """Equality symmetry `ς q`."""
    __slots__ = {"proof": SUB}


# ---------------------------------------------------------------------------
# Types

class TVar(_Node):
    __slots__ = {"idx": DATA}


class TRef(_Node):
    __slots__ = {"name": DATA}


class All(_Node):
    """Implicit product `∀ x : dom . body`; dom a kind binds a type
    variable, dom a type binds an erased term variable. `➾` is the
    non-dependent spelling."""
    __slots__ = {"name": HINT, "dom": SUB, "body": BOUND}


class Pi(_Node):
    """Explicit product `Π x : dom . body`; `➔` when non-dependent."""
    __slots__ = {"name": HINT, "dom": SUB, "body": BOUND}


class TLam(_Node):
    __slots__ = {"name": HINT, "dom": SUB, "body": BOUND}


class AppT(_Node):
    """Type-level application to a type: `T · S`."""
    __slots__ = {"fn": SUB, "arg": SUB}


class AppTm(_Node):
    """Type-level application to a term: `T t`."""
    __slots__ = {"fn": SUB, "arg": SUB}


class Iota(_Node):
    """Dependent intersection `ι x : dom . body`."""
    __slots__ = {"name": HINT, "dom": SUB, "body": BOUND}


class Eq(_Node):
    """Untyped-term equality `{l ≃ r}`; operands are scoped, not typed."""
    __slots__ = {"lhs": SUB, "rhs": SUB}


# ---------------------------------------------------------------------------
# Kinds

class Star(_Node):
    __slots__ = {}


class KPi(_Node):
    """Term-indexed kind `Π x : T . κ` (`T ➔ κ` when non-dependent)."""
    __slots__ = {"name": HINT, "dom": SUB, "body": BOUND}


class KPiK(_Node):
    """Type-indexed kind `Π X : κ . κ'` (`κ ➔ κ'` when non-dependent)."""
    __slots__ = {"name": HINT, "dom": SUB, "body": BOUND}


# ---------------------------------------------------------------------------
# Pure terms: the untyped λ-terms that erasure produces (see erasure.py)

class PVar(_Node):
    __slots__ = {"idx": DATA}


class PLam(_Node):
    __slots__ = {"hint": HINT, "body": BOUND}


class PApp(_Node):
    __slots__ = {"fn": SUB, "arg": SUB}


class PRef(_Node):
    __slots__ = {"name": DATA}


# ---------------------------------------------------------------------------
# One generic traversal for every AST above

_TERM_NODES = (Var, Ref, Lam, ILam, App, EApp, TApp, Pair, Proj, Beta, Rho, Symm)
_TYPE_NODES = (TVar, TRef, All, Pi, TLam, AppT, AppTm, Iota, Eq)
_KIND_NODES = (Star, KPi, KPiK)
_PURE_NODES = (PVar, PLam, PApp, PRef)
_SORTS = {cls: sort for sort, group in (
    ("term", _TERM_NODES), ("type", _TYPE_NODES), ("kind", _KIND_NODES),
    ("pure term", _PURE_NODES)) for cls in group}
_VARS = (Var, TVar, PVar)

# Each node class's fields in order, with their roles: its `__slots__`.
SHAPES = {cls: cls.__slots__ for cls in _SORTS}

_ROWS = {cls: tuple((f, DEPTH.get(r)) for f, r in row.items())
         for cls, row in SHAPES.items()}
_SUBS = {cls: tuple((f, DEPTH[r]) for f, r in row.items() if r in DEPTH)
         for cls, row in SHAPES.items()}


def _data(row: dict):
    """What `==` and `hash` read of a node besides its subtrees: a function
    giving its DATA and FLAG fields as one value."""
    data = [f for f, role in row.items() if role is DATA or role is FLAG]
    return attrgetter(*data) if data else lambda node: None


_DATA = {cls: _data(row) for cls, row in SHAPES.items()}
# The classes whose one field is compared data, with it. Each gets its own
# `==`, as fast as a dataclass's: `perfbench/church.py` decodes numerals
# with one leaf `==` per successor.
_LEAVES = {cls: tuple(row)[0] for cls, row in SHAPES.items()
           if tuple(row.values()) == (DATA,)}
_LEAF_EQ = ("def {0}_eq(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            "        return self.{1} == other.{1}\n"
            "    return NotImplemented\n")
# How `interner` keys each class: None if every field is data, `_TWO` if
# the fields are two subtrees, else whether each field is a subtree.
_TWO = (SUB, SUB)
_KEYS = {cls: None if not _SUBS[cls]
         else _TWO if tuple(row.values()) == _TWO
         else tuple(r in DEPTH for r in row.values())
         for cls, row in SHAPES.items()}


def _constructor(cls, row: dict) -> str:
    """The source of `cls.__init__`, named after `cls`: store the fields of
    `row`, then the masks, folded from the children's: a variable
    contributes its own bits, a subtree under the binder its bits moved
    down one index, an absent (`None`) subtree nothing. Pure-term
    variables have no sort bits."""
    free = ["1 << idx"] if cls in _VARS else []
    sorts = ["1 << 2 * idx"] if cls is Var else ["2 << 2 * idx"] \
        if cls is TVar else []
    for f, down in _SUBS[cls]:
        get = f"({f}.%s if {f} is not None else 0)" if row[f] is OPT \
            else f"{f}.%s"
        free.append(get % "free_mask" + " >> 1" * down)
        if cls not in _PURE_NODES:
            sorts.append(get % "sort_mask" + " >> 2" * down)
    params, tail = [], True
    for f, role in reversed(row.items()):
        tail = tail and role in _DEFAULTS
        params.insert(0, f"{f}={_DEFAULTS[role]}" if tail else f)
    return (f"def {cls.__name__}({', '.join(['self', *params])}):\n"
            + "".join(f"    self.{f} = {f}\n" for f in row)
            + f"    self.free_mask = {' | '.join(free) or 0}\n"
            f"    self.sort_mask = {' | '.join(sorts) or 0}\n")


_scope = {}
exec("".join(map(_constructor, SHAPES, SHAPES.values()))
     + "".join(_LEAF_EQ.format(c.__name__, f) for c, f in _LEAVES.items()),
     _scope)
for _cls, _row in SHAPES.items():
    _cls.__init__ = _scope[_cls.__name__]
    _cls.__init__.__qualname__ = f"{_cls.__name__}.__init__"
    _cls.__match_args__ = tuple(_row)
    if _cls in _LEAVES:
        _cls.__eq__ = _scope[f"{_cls.__name__}_eq"]


def alpha_eq(a, b) -> bool:
    """α-equivalence: the same classes and the same fields, binder hints
    aside, compared on an explicit stack, so at any depth. Pure terms,
    which conversion compares, take the first tests."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is PApp:
            todo.append((a.arg, b.arg))
            todo.append((a.fn, b.fn))
        elif cls is PLam:
            todo.append((a.body, b.body))
        elif cls is PVar:
            if a.idx != b.idx:
                return False
        elif cls is PRef:
            if a.name != b.name:
                return False
        else:
            data = _DATA[cls]
            if data(a) != data(b):
                return False
            for f, _ in _SUBS[cls]:
                todo.append((getattr(a, f), getattr(b, f)))
    return True


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
    for f, down in _ROWS[cls]:
        v = getattr(node, f)
        if down is not None and v is not None:
            new = transform(v, fn, depth + down)
            if new is not v:
                v, changed = new, True
        args.append(v)
    return cls(*args) if changed else node


def subtrees(node, depth: int) -> list:
    """The `(subtree, d)` pairs of `node` in field order, `d` as in
    `transform`."""
    return [(v, depth + down) for f, down in _SUBS[type(node)]
            if (v := getattr(node, f)) is not None]


def interner():
    """A hash-consing `mk(cls, *fields)`: keyed by the class, the data fields
    (binder hints included) and the subtrees' identities, it builds equal
    subterms with equal hints as one object."""
    table = {}
    get = table.get

    def mk(cls, *fields):
        subs = _KEYS[cls]
        if subs is _TWO:
            a, b = fields
            key = (cls, id(a), id(b))
        elif subs is None:
            key = (cls, fields)
        else:
            key = (cls, *[id(v) if sub else v
                          for v, sub in zip(fields, subs)])
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


# ---------------------------------------------------------------------------
# One deep stack for the kernel's recursion

# The second run's stack and frame limit. On 3.10, where each Python call
# takes C stack, `DEEP_FRAMES` frames of the kernel fill at most 80 MB.
DEEP_STACK_BYTES = 512 * 2**20
DEEP_FRAMES = 200_000
_deep_run = threading.local()   # `.attempt`: None, "first" or "deep"
_deep_lock = threading.Lock()   # the recursion limit is the process's


def deep(fn):
    """`fn`, run so that its recursion reaches about `DEEP_FRAMES` frames:
    a call that runs into Python's recursion limit runs once more, on a
    thread whose stack holds them. A call inside another `deep` call runs
    as it is, so only the outermost starts over: what `fn`'s first run
    changed must not change what its second run gives. Outermost calls
    from several threads take turns. (Handing every call to the deep
    thread instead cost `church` queries, two calls each, a quarter of
    their time.)"""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        if getattr(_deep_run, "attempt", None):
            return fn(*args, **kwargs)
        out = []

        def again():
            _deep_run.attempt = "deep"
            try:
                out.append((fn(*args, **kwargs), None))
            except BaseException as e:     # raised again in the caller
                out.append((None, e.with_traceback(None)))
        with _deep_lock:
            _deep_run.attempt = "first"
            try:
                return fn(*args, **kwargs)
            except RecursionError:
                pass
            finally:
                _deep_run.attempt = None
            limit, size = sys.getrecursionlimit(), threading.stack_size()
            try:
                threading.stack_size(DEEP_STACK_BYTES)
                worker = threading.Thread(target=again, daemon=True)
                sys.setrecursionlimit(DEEP_FRAMES)
                worker.start()
                worker.join()
            except (RuntimeError, ValueError):  # no room: run again here
                sys.setrecursionlimit(limit)
                again()
            finally:
                threading.stack_size(size)
                sys.setrecursionlimit(limit)
                _deep_run.attempt = None
        result, error = out[0]
        if error is not None:
            raise error
        return result
    return run


def retry_to_come() -> bool:
    """Does a `RecursionError` here send the `deep` call to the deep stack?"""
    return getattr(_deep_run, "attempt", None) == "first"


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

    def normal_form(self, name: str):
        """The normal form stored for the term definition `name`, if any."""
        return self._def_nfs.get(name)

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
