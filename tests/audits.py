"""Post-hoc audit passes over the checked bodies of a signature.

They re-run two of the checker's side conditions on every accepted term
declaration, independently of the order in which checking met them.
"""

from cedlite import syntax as S
from cedlite.erasure import erase, free_in_erasure
from cedlite.normalize import Fuel, conv


def _walk_terms(node):
    """Every term node in `node`, including those inside its types."""
    todo = [node]
    while todo:
        n = todo.pop()
        if S.is_term(n):
            yield n
        todo += [sub for sub, _ in S.subtrees(n, 0)]


def audit_implicit_erasures(sig: S.Signature) -> list[str]:
    """Re-scan checked bodies: no implicit binder may survive erasure."""
    offenders = []
    for decl in sig.decls:
        if decl.level != "term" or decl.expect_fail:
            continue
        for node in _walk_terms(decl.body):
            if isinstance(node, S.ILam) and free_in_erasure(0, node.body):
                offenders.append(decl.name)
    return offenders


def audit_intersections(sig: S.Signature, fuel: Fuel = Fuel()) -> list[str]:
    """Re-check that every accepted pair has matching component erasures."""
    offenders = []
    for decl in sig.decls:
        if decl.level != "term" or decl.expect_fail:
            continue
        for node in _walk_terms(decl.body):
            if isinstance(node, S.Pair):
                if not conv(erase(node.left), erase(node.right), sig, fuel):
                    offenders.append(decl.name)
    return offenders
