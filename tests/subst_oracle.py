"""Normal-order substitution normalizer, kept as a test oracle.

This is the kernel's former normalizer: weak-head reduction by
substitution on de Bruijn terms, call-by-name β, δ through each
definition's memoized normal form, then η-contraction passes to a
fixpoint. It shares no evaluation code with the kernel's
normalization by evaluation, only the de Bruijn helpers `shift` and
`occurs_index`; the tests require both to reach α-equal normal forms.
Everything here recurses, so keep its inputs shallow.
"""

from __future__ import annotations

from cedlite.erasure import PApp, PLam, PRef, PVar, PureTerm, erase
from cedlite.syntax import occurs_index, shift


LIMIT = 100_000     # β/δ steps per normalization, as the kernel's default


class OutOfFuel(Exception):
    pass


def subst_pure(t: PureTerm, j: int, val: PureTerm) -> PureTerm:
    match t:
        case PVar(idx):
            if idx == j:
                return val
            return PVar(idx - 1) if idx > j else t
        case PLam(hint, body):
            return PLam(hint, subst_pure(body, j + 1, shift(val, 1)))
        case PApp(f, a):
            return PApp(subst_pure(f, j, val), subst_pure(a, j, val))
        case PRef(_):
            return t
    raise TypeError(t)


class _Machine:
    """One normalization: a step budget and this oracle's own δ cache."""

    def __init__(self, sig, def_nfs: dict):
        self.sig = sig
        self.used = 0
        self.def_nfs = def_nfs

    def tick(self) -> None:
        self.used += 1
        if self.used > LIMIT:
            raise OutOfFuel

    def def_nf(self, name: str) -> PureTerm:
        if name not in self.def_nfs:
            inner = _Machine(self.sig, self.def_nfs)
            body = erase(self.sig.lookup(name).body)
            self.def_nfs[name] = inner.nf(body)
        return self.def_nfs[name]

    def whnf(self, t: PureTerm) -> PureTerm:
        stack: list[PureTerm] = []
        while True:
            match t:
                case PApp(f, a):
                    stack.append(a)
                    t = f
                case PLam(_, body) if stack:
                    self.tick()
                    t = subst_pure(body, 0, stack.pop())
                case PRef(name):
                    self.tick()
                    t = self.def_nf(name)
                case _:
                    break
        for a in reversed(stack):
            t = PApp(t, a)
        return t

    def nf(self, t: PureTerm) -> PureTerm:
        t = self.whnf(t)
        match t:
            case PLam(hint, body):
                return PLam(hint, self.nf(body))
            case PApp(_, _):
                # head is neutral (a variable); normalize the arguments
                spine = []
                while isinstance(t, PApp):
                    spine.append(t.arg)
                    t = t.fn
                for a in reversed(spine):
                    t = PApp(t, self.nf(a))
                return t
            case _:
                return t


def _eta(t: PureTerm) -> PureTerm:
    """One bottom-up η pass; β-normal input stays β-normal."""
    match t:
        case PLam(hint, body):
            b = _eta(body)
            if isinstance(b, PApp) and b.arg == PVar(0) \
                    and not occurs_index(b.fn, 0):
                return shift(b.fn, -1)
            return PLam(hint, b)
        case PApp(f, a):
            return PApp(_eta(f), _eta(a))
        case _:
            return t


def subst_normalize(t: PureTerm, sig, def_nfs: dict | None = None) -> PureTerm:
    """Full βδ-normalization, then η-contraction to a fixpoint.

    `def_nfs` is the δ cache to share between calls on one signature;
    more than `LIMIT` β/δ steps raise `OutOfFuel`.
    """
    machine = _Machine(sig, {} if def_nfs is None else def_nfs)
    out = machine.nf(t)
    while True:
        contracted = _eta(out)
        if contracted == out:
            return out
        out = contracted
