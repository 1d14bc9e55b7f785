"""Batch command-line driver.

Exit codes: 0 all checks and assertions pass, 1 check or assertion
failure, 2 usage or parse error. `--porcelain` emits one stable line
per declaration: `OK|ERR|ASSERT-FAIL <name> <detail>`.
"""

from __future__ import annotations

import argparse
import os
import sys

from .corpus import load_corpus
from .erasure import erase
from .normalize import Fuel, conv, is_identity, normalize
from .parser import ParseError, parse_files
from .printer import print_classifier, print_pure
from .syntax import KernelError, Signature, deep
from .typecheck import CheckReport, check_signature

def fuel(text: str) -> Fuel:
    """The type of `--fuel` and `CEDLITE_FUEL`: a positive step budget."""
    return Fuel(int(text))


def _render_report(report: CheckReport, porcelain: bool, ascii_only: bool,
                   out) -> None:
    for d in report.decls:
        failed_asserts = [a for a in d.assertions if not a.ok]
        if porcelain:
            if d.status == "type error":
                print(f"ERR {d.name} {_oneline(d.error)}", file=out)
            elif failed_asserts:
                print(f"ASSERT-FAIL {d.name} "
                      f"{_oneline(failed_asserts[0].description)}", file=out)
            else:
                print(f"OK {d.name}", file=out)
            continue
        if d.status == "type error":
            print(f"error  {d.name}: {d.error}", file=out)
        else:
            cls = print_classifier(d.classifier, ascii_only)
            line = f"ok     {d.name} : {cls}"
            if d.status == "assertion failure":
                line = f"assert-fail {d.name} : {cls}"
            if d.steps_used:
                line += f"  (fuel {d.steps_used})"
            print(line, file=out)
            if d.normal_form is not None:
                print(f"       erasure: "
                      f"{print_pure(d.normal_form, ascii_only)}", file=out)
        for w in d.warnings:
            print(f"       warning: {w}", file=out)
        for a in d.assertions:
            detail = a.detail if a.normal_form is None \
                else f"normal form is {print_pure(a.normal_form, ascii_only)}"
            mark = "ok" if a.ok else f"FAIL ({detail})" if detail else "FAIL"
            print(f"       assert {a.description}: {mark}", file=out)


def _oneline(s: str | None) -> str:
    return " ".join((s or "").split())


def _find_term(sig: Signature, name: str):
    decl = sig.lookup(name)
    if decl is None:
        print(f"unknown name {name}", file=sys.stderr)
        raise SystemExit(2)
    if decl.level != "term":
        print(f"{name} is a type-level definition and has no erasure",
              file=sys.stderr)
        raise SystemExit(2)
    return decl


def _checked_terms(args):
    """The files' checked signature (a rejected definition stays opaque)
    and per name the normal form its check stored, else its erasure."""
    sig = parse_files(args.files)
    check_signature(sig, args.fuel)
    return sig, [sig.normal_form(name) or erase(_find_term(sig, name).body)
                 for name in args.names]


def cmd_check(args) -> int:
    sig = load_corpus() if args.files is None else parse_files(args.files)
    report = check_signature(sig, args.fuel)
    _render_report(report, args.porcelain, args.ascii, sys.stdout)
    return 0 if report.ok else 1


def cmd_erase(args) -> int:
    decl = _find_term(parse_files(args.files), args.names[0])
    print(print_pure(erase(decl.body), ascii_only=args.ascii))
    return 0


def cmd_norm(args) -> int:
    sig, (term,) = _checked_terms(args)
    nf = normalize(term, sig, args.fuel)
    print(print_pure(nf.term, ascii_only=args.ascii))
    return 0


def cmd_assert_id(args) -> int:
    sig, (term,) = _checked_terms(args)
    verdict = is_identity(term, sig, args.fuel)
    print(f"identity: {'yes' if verdict else 'no'}")
    return 0 if verdict else 1


def cmd_eq(args) -> int:
    sig, (t1, t2) = _checked_terms(args)
    verdict = conv(t1, t2, sig, args.fuel)
    print(f"convertible: {'yes' if verdict else 'no'}")
    return 0 if verdict else 1


def _parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    """The parser, built once, and the `--fuel` its subcommands share."""
    common = argparse.ArgumentParser(add_help=False)
    fuel_opt = common.add_argument(
        "--fuel", type=fuel,
        help=f"reduction step budget of each declaration (its check, the "
             f"normalizations inside it and its normal form) and of each "
             f"assertion; norm, eq and assert-id start from the normal "
             f"forms the checks stored and spend one more budget, which a "
             f"conversion spends on both sides (default "
             f"{Fuel().max_steps}, or CEDLITE_FUEL)")
    common.add_argument("--ascii", action="store_true",
                        help="print ASCII token spellings")
    common.add_argument("--porcelain", action="store_true",
                        help="stable machine-readable output")

    ap = argparse.ArgumentParser(prog="cedlite", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    for command, fn, n_names, help_text in (
            ("check", cmd_check, 0,
             "type-check files and run their assertions"),
            ("erase", cmd_erase, 1, "print a definition's erasure"),
            ("norm", cmd_norm, 1,
             "print a definition's erasure in normal form"),
            ("assert-id", cmd_assert_id, 1,
             "is the definition's erasure the identity?"),
            ("eq", cmd_eq, 2, "are two definitions' erasures convertible?")):
        p = sub.add_parser(command, parents=[common], help=help_text)
        p.add_argument("files", nargs="+", metavar="FILE")
        if n_names:
            p.add_argument("names", nargs=n_names, metavar="NAME")
        p.set_defaults(fn=fn)

    p = sub.add_parser("corpus", parents=[common],
                       help="check the bundled corpus")
    p.set_defaults(fn=cmd_check, files=None)
    return ap, fuel_opt


_PARSER, _FUEL = _parser()


def main(argv: list[str] | None = None) -> int:
    # Diagnostics keep their Unicode text, so a stdout that cannot encode
    # it escapes it, as Python does for stderr.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    _FUEL.default = os.environ.get("CEDLITE_FUEL") or Fuel()
    try:
        ns = _PARSER.parse_args(argv)
        return deep(ns.fn)(ns)
    except SystemExit as e:
        return int(e.code or 0)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except KernelError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: depth exhausted", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
