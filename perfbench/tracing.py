"""Outside-in layer tracing: wrap the kernel's functions, record spans.

The kernel is not modified. `Tracer.install` replaces each hooked
function by a wrapper in every `cedlite` module that binds it (the
defining module, the modules that import it by name, and the package's
re-exports) and `Tracer.uninstall` puts the originals back. Modules are
taken from `importlib.import_module`: the package attribute
`cedlite.normalize` is the re-exported *function*, not the submodule.

A span hook records one span per outermost call: while a span of the
same name is open, nested calls (recursion in `subst`, `shift`, `_eta`,
`type_conv`, `kind_check`, or one printer entry point calling another)
run unrecorded inside it. A count hook records no span and sees every
call. Spans are kept in memory with their parent's id and the unit they
belong to; `Tracer.metrics` turns them into per-layer totals and self
times when the traced pass ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional


class HookMissing(RuntimeError):
    """A hooked kernel name no longer exists; the trace would read zero."""


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str                       # "func" or "Class.method"
    name: str                       # span name "<layer>.<what>"
    span: bool = True
    # span hooks: called with (counts, args, result) after an outermost call;
    # count hooks: called with (counts, fn, args, kwargs) instead of fn
    on_call: Optional[Callable] = None


def _count_tokens(counts, args, result):
    counts["parser.tokens"] += len(result)


def _count_chars(counts, args, result):
    counts["printer.chars"] += len(result)


def _count_signature(counts, args, result):
    sig = args[0]
    for decl, row in zip(sig.decls, result.decls):
        counts["typecheck.steps"] += row.steps_used
        if row.status == "type error" or (
                decl.expect_fail and row.assertions and row.assertions[0].ok):
            counts["typecheck.rejected"] += 1


def _pure_size(term) -> int:
    n, stack = 0, [term]
    while stack:
        t = stack.pop()
        n += 1
        body = getattr(t, "body", None)
        if body is not None:
            stack.append(body)
        elif hasattr(t, "fn"):
            stack.append(t.fn)
            stack.append(t.arg)
    return n


def _count_normal_form(counts, args, result):
    counts["normalize.steps"] += result.steps_used
    counts["normalize.nf_nodes"] += _pure_size(result.term)


def _count_delta(counts, fn, args, kwargs):
    name, sig = args[0], args[1]
    counts["normalize.delta_calls"] += 1
    if sig._def_nfs.get(name) is not None:
        counts["normalize.delta_hits"] += 1
    return fn(*args, **kwargs)


def _count_match(counts, fn, args, kwargs):
    counts["typecheck.rho_match_attempts"] += 1
    hit = fn(*args, **kwargs)
    if hit:
        counts["typecheck.rho_match_hits"] += 1
    return hit


_PRINT = ("print_term", "print_type", "print_kind", "print_classifier",
          "print_pure", "print_erased", "print_decl")

# Every kernel name the trace depends on. The private ones -- which a
# refactor may rename without notice -- are `_def_nf`, `_eta`,
# `Checker._check_rho`, `Checker._matches`, `_eval_assertion`,
# `_render_report` and the δ cache `Signature._def_nfs` read by
# `_count_delta`. `resolve_hooks` fails on any that is missing.
HOOKS = (
    Hook("cedlite.parser", "tokenize", "parser.tokenize",
         on_call=_count_tokens),
    Hook("cedlite.parser", "parse_signature", "parser.parse"),
    Hook("cedlite.parser", "parse_term", "parser.parse"),
    Hook("cedlite.parser", "parse_type", "parser.parse"),
    Hook("cedlite.syntax", "subst", "syntax.subst"),
    Hook("cedlite.syntax", "shift", "syntax.shift"),
    Hook("cedlite.typecheck", "check_signature", "typecheck.check_signature",
         on_call=_count_signature),
    Hook("cedlite.typecheck", "Checker.type_whnf", "typecheck.type_whnf"),
    Hook("cedlite.typecheck", "Checker.type_conv", "typecheck.type_conv"),
    Hook("cedlite.typecheck", "Checker.kind_check", "typecheck.kind_check"),
    Hook("cedlite.typecheck", "Checker._check_rho", "typecheck.rho"),
    Hook("cedlite.typecheck", "Checker._matches", "typecheck.rho_match",
         span=False, on_call=_count_match),
    Hook("cedlite.typecheck", "_eval_assertion", "typecheck.assertions"),
    Hook("cedlite.normalize", "normalize", "normalize.normalize",
         on_call=_count_normal_form),
    Hook("cedlite.normalize", "_eta", "normalize.eta"),
    Hook("cedlite.normalize", "_def_nf", "normalize.delta",
         span=False, on_call=_count_delta),
    Hook("cedlite.normalize", "conv", "normalize.conv"),
    Hook("cedlite.erasure", "erase", "erasure.erase"),
    Hook("cedlite.erasure", "free_in_erasure", "erasure.free_in"),
    *(Hook("cedlite.printer", f, "printer.print", on_call=_count_chars)
      for f in _PRINT),
    Hook("cedlite.cli", "_render_report", "cli.render"),
    Hook("cedlite.cli", "main", "cli.main"),
)

LAYERS = ("parser", "syntax", "typecheck", "normalize", "erasure", "printer",
          "cli")


def resolve_hooks(hooks=HOOKS):
    """[(hook, owner, attr, original)] per hook; HookMissing if absent."""
    out = []
    for hook in hooks:
        owner = importlib.import_module(hook.module)
        *path, attr = hook.attr.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except AttributeError:
            raise HookMissing(f"{hook.module}:{hook.attr} is gone; update "
                              f"perfbench/tracing.py HOOKS") from None
        out.append((hook, owner, attr, original))
    sig = importlib.import_module("cedlite.syntax").Signature()
    if not isinstance(getattr(sig, "_def_nfs", None), dict):
        raise HookMissing("cedlite.syntax:Signature._def_nfs (the δ cache) "
                          "is gone; update perfbench/tracing.py _count_delta")
    return out


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[tuple] = []   # (id, parent, unit, name, start, end)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._next_id = 0
        self._unit = -1
        self._saved: list[tuple] = []

    # --- installing -------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("cedlite.cli")   # loads every kernel module
        modules = _cedlite_modules()
        for hook, owner, attr, original in resolve_hooks():
            wrapper = self._span_wrapper(hook, original) if hook.span \
                else self._count_wrapper(hook, original)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, hook: Hook, fn):
        name, after = hook.name, hook.on_call
        active, stack, spans = self._active, self._stack, self.spans
        counts, clock = self.counts, self.clock

        def traced(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active.discard(name)
                spans.append((sid, parent, self._unit, name, start, end))
            counts[name + "_calls"] += 1
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def _count_wrapper(self, hook: Hook, fn):
        on_call, counts = hook.on_call, self.counts

        def counted(*args, **kwargs):
            return on_call(counts, fn, args, kwargs)

        return counted

    # --- units --------------------------------------------------------------

    def begin_unit(self, index: int) -> None:
        """Open the root span of one unit; its layer spans hang below it."""
        self._unit = index
        self._stack.append(self._next_id)
        self._next_id += 1
        self._unit_start = self.clock()

    def end_unit(self) -> None:
        end = self.clock()
        sid = self._stack.pop()
        self.spans.append((sid, None, self._unit, "unit", self._unit_start,
                           end))

    # --- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over every traced unit.

        `<layer>.<what>_s` is the summed duration of the outermost spans of
        that name, so it includes time spent in other layers it called:
        `typecheck.rho_s` includes the `normalize` calls inside ρ. The
        `<layer>.self_s` figures exclude every child span and add up, with
        the harness's own share, to the traced unit time.
        """
        incl: Counter = Counter()
        child: Counter = Counter()
        for sid, parent, unit, name, start, end in self.spans:
            incl[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_by_name: Counter = Counter()
        for sid, parent, unit, name, start, end in self.spans:
            self_by_name[name] += (end - start) - child[sid]
        c = self.counts
        tokenize_s = incl["parser.tokenize"]
        parse_s = self_by_name["parser.parse"]
        m = {
            "parser.tokenize_s": tokenize_s,
            "parser.parse_s": parse_s,
            "parser.tokens": c["parser.tokens"],
            "parser.tokens_per_s": _ratio(c["parser.tokens"],
                                          tokenize_s + parse_s),
            "syntax.subst_s": incl["syntax.subst"],
            "syntax.subst_calls": c["syntax.subst_calls"],
            "syntax.shift_s": incl["syntax.shift"],
            "syntax.shift_calls": c["syntax.shift_calls"],
            "typecheck.check_signature_s": incl["typecheck.check_signature"],
            "typecheck.type_whnf_s": incl["typecheck.type_whnf"],
            "typecheck.type_whnf_calls": c["typecheck.type_whnf_calls"],
            "typecheck.type_conv_s": incl["typecheck.type_conv"],
            "typecheck.kind_check_s": incl["typecheck.kind_check"],
            "typecheck.rho_s": incl["typecheck.rho"],
            "typecheck.rho_match_attempts": c["typecheck.rho_match_attempts"],
            "typecheck.rho_match_ratio": _ratio(
                c["typecheck.rho_match_hits"],
                c["typecheck.rho_match_attempts"]),
            "typecheck.assertions_s": incl["typecheck.assertions"],
            "typecheck.steps": c["typecheck.steps"],
            "typecheck.rejected": c["typecheck.rejected"],
            "normalize.normalize_s": incl["normalize.normalize"],
            "normalize.normalize_calls": c["normalize.normalize_calls"],
            "normalize.steps": c["normalize.steps"],
            "normalize.eta_s": incl["normalize.eta"],
            "normalize.delta_calls": c["normalize.delta_calls"],
            "normalize.delta_hit_ratio": _ratio(c["normalize.delta_hits"],
                                                c["normalize.delta_calls"]),
            "normalize.conv_s": incl["normalize.conv"],
            "normalize.conv_calls": c["normalize.conv_calls"],
            "normalize.nf_nodes": c["normalize.nf_nodes"],
            "erasure.erase_s": incl["erasure.erase"],
            "erasure.erase_calls": c["erasure.erase_calls"],
            "erasure.free_in_s": incl["erasure.free_in"],
            "printer.print_s": incl["printer.print"],
            "printer.chars": c["printer.chars"],
            "cli.render_s": incl["cli.render"],
            "cli.main_s": incl["cli.main"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in self_by_name.items()
                                       if k.startswith(layer + "."))
        m["trace.unit_s"] = incl["unit"]
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cedlite_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "cedlite" or n.startswith("cedlite."))]


# Counts that must repeat exactly between two traced passes at one seed.
DETERMINISTIC_COUNTS = (
    "parser.tokens", "syntax.subst_calls", "syntax.shift_calls",
    "typecheck.type_whnf_calls", "typecheck.rho_match_attempts",
    "typecheck.steps", "typecheck.rejected", "normalize.normalize_calls",
    "normalize.steps", "normalize.delta_calls", "normalize.conv_calls",
    "normalize.nf_nodes", "erasure.erase_calls", "printer.chars",
)
