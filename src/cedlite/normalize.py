"""Untyped conversion on pure terms by normalization by evaluation.

Values are weak-head normal forms of two shapes: a λ-closure (the λ's
hint and body plus the environment it was evaluated in) or a neutral (a
variable, named by its de Bruijn *level*, or a reference to a rejected
definition, applied to a spine of arguments). Evaluation is call-by-need:
every application argument becomes a memoizing thunk, forced at most once
and only when it reaches head position or is read back, so a term that
normal order normalizes still normalizes. A free index of an open input
evaluates to a neutral whose level lies below 0, outside every binder of
the term.

Readback turns a value back into a term with an explicit stack: a
closure is applied to a fresh neutral and its body read back one level
deeper, a neutral becomes its head applied to its read-back arguments.
Each λ is η-contracted once, as soon as its body is read back; a
bottom-up pass over a β-normal form is already an η-fixpoint.

A term with no redex (no β-redex, no reference to a definition that
checked, no η-redex) is its own normal form: one scan that builds
nothing finds that and returns the input itself, in 0 steps, and `conv`
of two such terms is the single α-comparison it starts with.

A definition reference costs one δ-step and evaluates the definition's
own normal form, which is memoized on the signature. A definition that
failed to check is never unfolded: its reference is a neutral head.
`normalize` spends the `Meter` it is given, or one of its own sized by a
`Fuel`; running out is an error, never silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .erasure import erase
from .syntax import (
    KernelError, PApp, PLam, PRef, PureTerm, PVar, Signature, occurs_index,
    shift,
)


@dataclass(frozen=True)
class Fuel:
    max_steps: int = 100_000

    def __post_init__(self) -> None:
        if self.max_steps <= 0:
            raise ValueError("fuel must be positive")


@dataclass
class NormalForm:
    term: PureTerm
    steps_used: int


class FuelExhausted(KernelError):
    def __init__(self, steps: int):
        super().__init__(f"fuel exhausted after {steps} reduction steps")
        self.steps = steps


class Meter:
    """A step budget: a tick past `max_steps` raises `FuelExhausted` and
    leaves `used` at `max_steps`, so no count exceeds the budget."""

    def __init__(self, max_steps: int):
        self.max_steps = max_steps
        self.used = 0

    def tick(self, steps: int = 1) -> None:
        self.used += steps
        if self.used > self.max_steps:
            self.used = self.max_steps
            raise FuelExhausted(self.max_steps)


class _Closure:
    __slots__ = ("hint", "body", "env")

    def __init__(self, hint: str, body: PureTerm, env):
        self.hint = hint
        self.body = body
        self.env = env


class _Neutral:
    """`head` is a de Bruijn level or the `PRef` of a rejected definition."""

    __slots__ = ("head", "spine")

    def __init__(self, head, spine: tuple):
        self.head = head
        self.spine = spine


class _Thunk:
    """`term` in `env`, evaluated on first demand; `value` once forced."""

    __slots__ = ("term", "env", "value")

    def __init__(self, term, env, value=None):
        self.term = term
        self.env = env
        self.value = value


# An environment is None or a pair (thunk of index 0, rest of the env).

def _lookup(env, idx: int) -> _Thunk:
    n = idx
    while env is not None:
        if n == 0:
            return env[0]
        env, n = env[1], n - 1
    return _Thunk(None, None, _Neutral(-1 - n, ()))


def _force(th: _Thunk, m: Meter, sig: Signature):
    if th.value is None:
        th.value = _eval(th.term, th.env, m, sig)
        th.term = th.env = None
    return th.value


def _eval(t: PureTerm, env, m: Meter, sig: Signature):
    """Weak-head value of `t` in `env`: a Krivine machine whose pending
    arguments are thunks, the last one applied first."""
    args: list[_Thunk] = []
    while True:
        kind = type(t)
        if kind is PApp:
            a = t.arg
            args.append(_lookup(env, a.idx) if type(a) is PVar
                        else _Thunk(a, env))
            t = t.fn
        elif kind is PLam:
            if not args:
                return _Closure(t.hint, t.body, env)
            m.tick()
            env, t = (args.pop(), env), t.body
        elif kind is PVar:
            th = _lookup(env, t.idx)
            v = th.value if th.value is not None else _force(th, m, sig)
            if type(v) is _Neutral:
                if args:
                    args.reverse()
                    return _Neutral(v.head, v.spine + tuple(args))
                return v
            if not args:
                return v
            m.tick()
            env, t = (args.pop(), v.env), v.body
        elif kind is PRef:
            if t.name in sig.rejected:
                args.reverse()
                return _Neutral(t, tuple(args))
            # The normal form takes the reference's place, so it is
            # evaluated in the environment the reference sits in.
            m.tick()
            t = _def_nf(t.name, sig, m)
        else:
            raise TypeError(t)


_APP = object()     # readback marker: apply the result below to the top one


def _readback(v, m: Meter, sig: Signature) -> PureTerm:
    """The η-short term of a value, built with an explicit stack."""
    out: list[PureTerm] = []
    todo: list = [(v, 0)]
    while todo:
        item, depth = todo.pop()
        if item is _APP:
            arg = out.pop()
            out[-1] = PApp(out[-1], arg)
        elif type(item) is str:             # a λ's hint: its body is done
            out.append(_eta(item, out.pop()))
        else:
            if type(item) is _Thunk:
                item = _force(item, m, sig)
            if type(item) is _Closure:
                fresh = _Thunk(None, None, _Neutral(depth, ()))
                todo.append((item.hint, depth))
                todo.append((_eval(item.body, (fresh, item.env), m, sig),
                             depth + 1))
            else:
                head = item.head
                out.append(head if type(head) is PRef
                           else PVar(depth - 1 - head))
                for arg in reversed(item.spine):
                    todo.append((_APP, depth))
                    todo.append((arg, depth))
    return out[0]


def _eta_body(body: PureTerm) -> bool:
    """Is a λ over `body` an η-redex: is `body` `f 0` with 0 not free in f?"""
    return type(body) is PApp and type(body.arg) is PVar \
        and body.arg.idx == 0 and not occurs_index(body.fn, 0)


def _eta(hint: str, body: PureTerm) -> PureTerm:
    """`λ hint . body`, η-contracted if it is an η-redex.

    `body` is already η-short and β-normal, so the contractum is too.
    """
    if _eta_body(body):
        return shift(body.fn, -1)
    return PLam(hint, body)


def _def_nf(name: str, sig: Signature, m: Meter) -> PureTerm:
    # a normal form not yet memoized is computed on a budget of its own
    cached = sig._def_nfs.get(name)
    if cached is not None:
        return cached
    decl = sig.lookup(name)
    if decl is None or decl.level != "term":
        raise KernelError(f"{name} is not an unfoldable term definition")
    nf = normalize(erase(decl.body), sig, Meter(m.max_steps)).term
    sig._def_nfs[name] = nf
    return nf


def _has_redex(t: PureTerm, rejected) -> bool:
    """Does `t` hold a β-redex, a reference to a definition not in
    `rejected`, or an η-redex? An iterative scan that builds no term and
    stops at the first one found."""
    todo = [t]
    while todo:
        t = todo.pop()
        while type(t) is PLam:
            t = t.body
            if _eta_body(t):
                return True
        while type(t) is PApp:
            todo.append(t.arg)
            t = t.fn
            if type(t) is PLam:
                return True
        if type(t) is PRef:
            if t.name not in rejected:
                return True
        elif type(t) is not PVar:
            return True             # not a pure term: `_eval` reports it
    return False


def normalize(t: PureTerm, sig: Signature,
              fuel: Fuel | Meter = Fuel()) -> NormalForm:
    """The βδη-normal form of `t`, and the β/δ steps this call took. A
    term with no redex is its own normal form, reached in 0 steps; any
    other is evaluated and read back."""
    if not _has_redex(t, sig.rejected):
        return NormalForm(t, 0)
    m = fuel if type(fuel) is Meter else Meter(fuel.max_steps)
    before = m.used
    return NormalForm(_readback(_eval(t, None, m, sig), m, sig),
                      m.used - before)


def alpha_eq(t1: PureTerm, t2: PureTerm) -> bool:
    """Structural equality up to binder hints, without recursion."""
    todo = [(t1, t2)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        kind = type(a)
        if kind is not type(b):
            return False
        if kind is PApp:
            todo.append((a.arg, b.arg))
            todo.append((a.fn, b.fn))
        elif kind is PLam:
            todo.append((a.body, b.body))
        elif kind is PVar:
            if a.idx != b.idx:
                return False
        elif a.name != b.name:
            return False
    return True


def conv(t1: PureTerm, t2: PureTerm, sig: Signature,
         fuel: Fuel | Meter = Fuel()) -> bool:
    """Definitional equality: α-equality of βδη-normal forms. Both sides
    spend one budget: the `Meter` given, or one sized by a `Fuel`."""
    if alpha_eq(t1, t2):
        return True
    m = fuel if type(fuel) is Meter else Meter(fuel.max_steps)
    n1 = normalize(t1, sig, m).term
    n2 = normalize(t2, sig, m).term
    # two inputs that are their own normal forms were compared just above
    return (n1 is not t1 or n2 is not t2) and alpha_eq(n1, n2)


IDENTITY = PLam("x", PVar(0))


def is_identity(t: PureTerm, sig: Signature,
                fuel: Fuel | Meter = Fuel()) -> bool:
    return conv(t, IDENTITY, sig, fuel)
