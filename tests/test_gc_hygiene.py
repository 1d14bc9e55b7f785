"""Checking leaves no cyclic garbage behind.

Reference counting frees everything a check builds the moment it is
dropped, as long as nothing the kernel makes forms a reference cycle: a
recursive closure that refers to itself through its cell, or a caught
error kept with its traceback, whose frames hold the error. Such a cycle
pins the whole check (report, rows, checker, values) until the cycle
collector runs. Here the collector is off while a file is checked, and
one collection afterwards must find no object of `cedlite` in a cycle.
"""

import gc
import io
import types
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

import cedlite
from cedlite.cli import main
from cedlite.corpus import load_corpus
from cedlite.parser import parse_files
from cedlite.typecheck import check_signature
from perfbench import coercegen

PACKAGE = str(Path(cedlite.__file__).parent)
CORPUS = resources.files("cedlite.corpus")

# A λ that checks only after its failed inference is carried past a
# non-dependent ∀; an expected failure, whose message is never built; and
# last (so the error is still held when checking ends) a mismatch, whose
# deferred message is built for the report.
REJECTING = """\
k ◂ Nat ➾ Nat ➔ Nat = λ x . x .
#assert-fail
bad ◂ Nat = λ x . x .
mismatch ◂ Nat ➔ Nat = zero .
"""


def inputs(name: str, tmp_path: Path):
    """The files of one input, or None for the bundled corpus."""
    if name == "corpus":
        return None
    if name == "coerce":
        gen = tmp_path / "gen.ced"
        gen.write_text(coercegen.generate(5).text, encoding="utf-8")
        return [str(CORPUS / f) for f in coercegen.PRELUDE] + [str(gen)]
    bad = tmp_path / "rejecting.ced"
    bad.write_text(REJECTING, encoding="utf-8")
    return [str(CORPUS / "nat.ced"), str(bad)]


def check_via_cli(files) -> int:
    argv = ["corpus"] if files is None else ["check", *files]
    with redirect_stdout(io.StringIO()):
        return main(argv)


def check_via_kernel(files) -> int:
    sig = load_corpus() if files is None else parse_files(files)
    return 0 if check_signature(sig).ok else 1


def ours(o) -> bool:
    """Is `o` an instance of a `cedlite` class, a `cedlite` function or a
    frame of `cedlite` code?"""
    if isinstance(o, types.FrameType):
        return o.f_code.co_filename.startswith(PACKAGE)
    if isinstance(o, types.FunctionType):
        return (o.__module__ or "").startswith("cedlite")
    return type(o).__module__.startswith("cedlite")


def describe(o) -> str:
    if isinstance(o, types.FrameType):
        return f"frame of {o.f_code.co_name}"
    if isinstance(o, types.FunctionType):
        return f"function {o.__qualname__}"
    return type(o).__qualname__


@pytest.mark.parametrize("entry", [check_via_cli, check_via_kernel],
                         ids=["cli", "check_signature"])
@pytest.mark.parametrize("name, exit_code", [
    ("corpus", 0), ("coerce", 0), ("rejecting", 1)])
def test_checking_leaves_no_cyclic_garbage(tmp_path, entry, name, exit_code):
    files = inputs(name, tmp_path)
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        assert entry(files) == exit_code
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = sorted({describe(o) for o in gc.garbage if ours(o)})
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        gc.collect()
        if enabled:
            gc.enable()
    assert found == []
