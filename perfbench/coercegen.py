"""Seeded, dependency-free generator of the `coerce` workload's input file.

Each chain is a random walk over the corpus coercions between lists,
vectors and length-constrained lists:

    List --l2v--> Vec    Vec --v2l--> List    Vec --v2u--> VecL    VecL --u2l--> List

Every step erases to the identity, so every chain must check and be
`#assert-id`. Each `l2v` step indexes its vector by `length · A <whole
prefix>` and later steps repeat that index as an erased argument, so
source size roughly doubles per `l2v`; the length menu is capped at 12
because the cost per declaration grows steeply beyond it (measured on
the seed kernel: about 75 ms at 12 steps, 0.38 s at 16, 2.2 s at 20).

Beside the chains the file holds two kinds of declaration that must be
rejected, which run the checker's rejection path:

* `#assert-not-id` chains that end in `v2lC' · A -n xs.1.1`, the
  corpus's concrete-codomain elimination, which is not an identity;
* `#assert-fail` chains whose ascription has a wrong index,
  `Vec · A (suc n)` where the chain produces `Vec · A n`.

The expected verdict of every declaration and assertion is known here,
without asking the kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Corpus files the generated declarations depend on, in checking order.
PRELUDE = ("nat.ced", "list.ced", "vec.ced", "coercions-v2l.ced",
           "coercions-l2v.ced", "vecl-v2u.ced", "map-nested.ced")

# A fixed multiset of chain lengths keeps the cost of one generated file
# nearly the same for every seed; the seed picks the walks. Each length
# yields a pair of chains (see `_pair`).
CHAIN_LENGTHS = (2, 4, 6, 8, 10, 12)
NOT_ID_LENGTHS = (5, 9)
FAIL_LENGTHS = (3, 7)

# Copied from negative.ced (not part of the prelude): eliminating at the
# concrete list type rebuilds the list, so it is not the identity.
V2LC_PRIME = """\
v2lC' ◂ ∀ A : ★ . ∀ n : Nat . VecC · A n ➔ ListC · A
  = Λ A . Λ n . λ xs .
  xs · (λ _ : Nat . ListC · A) (nilCL · A) (Λ _ . consCL · A) .
"""


@dataclass
class Generated:
    text: str
    decls: list[str]          # declaration names in file order
    assertions: int           # assertion directives other than #assert-fail

    @property
    def verdicts(self) -> int:
        return len(self.decls) + self.assertions


def _walk(start: str, choices, length: int, end_in_vec: bool):
    """(binders, lambdas, kind, term, index) of one chain from `start`;
    at each vector the next of `choices` picks `v2l` (True) or `v2u`."""
    kind, choices = start, iter(choices)
    if kind == "List":
        binders, lams, index = "Π xs : List · A . ", "λ xs . ", None
    else:
        binders = f"∀ n : Nat . Π xs : {kind} · A n . "
        lams, index = "Λ n . λ xs . ", "n"
    term = "xs"
    steps = 0
    while steps < length or (end_in_vec and kind != "Vec"):
        if kind == "List":
            kind, index = "Vec", f"length · A ({term})"
            term = f"l2v · A ({term})"
        elif kind == "Vec":
            if next(choices):
                kind, term = "List", f"v2l · A -({index}) ({term})"
                index = None
            else:
                kind, term = "VecL", f"v2u · A -({index}) ({term})"
        else:
            kind, term = "List", f"u2l · A -({index}) ({term})"
            index = None
        steps += 1
    return binders, lams, kind, term, index


def _pair(rng: random.Random, length: int, end_in_vec: bool):
    """Two walks of one length with opposite choices and different
    starts, which evens out the mix of steps within a file."""
    first = rng.randrange(3)
    choices = [rng.random() < 0.5 for _ in range(length + 2)]
    return [_walk(_STARTS[first], choices, length, end_in_vec),
            _walk(_STARTS[(first + 1) % 3], [not c for c in choices],
                  length, end_in_vec)]


_STARTS = ("List", "Vec", "VecL")


def _result_type(kind: str, index: str | None) -> str:
    return "List · A" if kind == "List" else f"{kind} · A ({index})"


def generate(seed: int) -> Generated:
    rng = random.Random(seed)
    lines = ["-- generated coercion chains, seed " + str(seed), "",
             V2LC_PRIME]
    decls, assertions = ["v2lC'"], 0
    walks = [w for n in CHAIN_LENGTHS for w in _pair(rng, n, False)]
    rng.shuffle(walks)
    for i, (b, lam, kind, term, index) in enumerate(walks):
        name = f"chain{i}"
        lines += [f"{name} ◂ ∀ A : ★ . {b}{_result_type(kind, index)}",
                  f"  = Λ A . {lam}{term} .", f"#assert-id {name}", ""]
        decls.append(name)
        assertions += 1
    for i, (b, lam, _, term, index) in enumerate(
            _pair(rng, n, True)[0] for n in NOT_ID_LENGTHS):
        name = f"notid{i}"
        lines += [f"{name} ◂ ∀ A : ★ . {b}ListC · A",
                  f"  = Λ A . {lam}v2lC' · A -({index}) ({term}).1.1 .",
                  f"#assert-not-id {name}", ""]
        decls.append(name)
        assertions += 1
    for i, (b, lam, _, term, index) in enumerate(
            _pair(rng, n, True)[1] for n in FAIL_LENGTHS):
        name = f"fail{i}"
        wrong = f"Vec · A (suc ({index}))"
        lines += [f"#assert-fail {name} ◂ ∀ A : ★ . {b}{wrong}",
                  f"  = Λ A . {lam}{term} .", ""]
        decls.append(name)
    return Generated("\n".join(lines), decls, assertions)
