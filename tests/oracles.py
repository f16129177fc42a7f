"""Independent oracles for the library: the paper's closed forms and plain runs.

None of these is on any path the library runs. The builtin sequences are
digit-walk memos on ints (``ddfa.sequences``); these closed forms, recursions
and word runs restate them another way, so that a test can compare the two:
``a_recursion`` for ``a`` and ``b``, ``d_shape_closed_form`` for ``d`` and
``e``, ``a131271_triangle``'s rows for ``a131271``, ``dfao_output`` over
``base_k_word`` for ``t``, and ``degenerate_ddfa`` for plain runs as charge
runs.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable

from ddfa.automata import Automaton, Word, delta_star
from ddfa.discharge import ONE, ZERO


@lru_cache(maxsize=None)
def a_recursion(n: int) -> Fraction:
    """Halving recursion matching the 2-state equal-split charge sequence.

    a(0) = a(1) = 1/2; a(2m) = a(m)/2 and a(2m+1) = 1 - a(m)/2 past that.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n <= 1:
        return Fraction(1, 2)
    half, bit = divmod(n, 2)
    if bit:
        return 1 - a_recursion(half) / 2
    return a_recursion(half) / 2


def a131271_triangle(depth: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..depth of the doubling triangle; row n permutes {1, ..., 2^n}.

    Row n interleaves row n-1 with its reflection: entry v contributes
    v followed by 2^n + 1 - v.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    rows: list[tuple[int, ...]] = [(1,)]
    for n in range(1, depth + 1):
        rows.append(tuple(x for v in rows[-1] for x in (v, 2**n + 1 - v)))
    return tuple(rows)


def d_shape_closed_form(n: int) -> Fraction:
    """Closed form for the 4-state reduced charge, by binary word shape; an oracle.

    d(0) = 1/2; words starting 11 give 3/4; 1 followed by l zeros gives
    2^-(l+1); 1, l >= 1 zeros, then a 1 gives 1 - 2^-(l+2).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return Fraction(1, 2)
    rest = format(n, "b")[1:]
    if rest.startswith("1"):
        return Fraction(3, 4)
    zeros = rest.find("1")
    if zeros == -1:
        return Fraction(1, 2 ** (len(rest) + 1))
    return 1 - Fraction(1, 2 ** (zeros + 2))


def dfao_output(auto: Automaton, word: Iterable[str]) -> Fraction:
    """Run ``word`` from the start state and apply the output map to the final state."""
    return auto.output[delta_star(auto, auto.start, word)]


def base_k_word(n: int, k: int) -> Word:
    """Canonical base-``k`` expansion of ``n`` as a word, most significant digit first.

    No leading zeros; ``n = 0`` encodes as the single-symbol word ("0",).
    Digit values are rendered as decimal tokens, so k > 10 works.
    """
    if k < 2:
        raise ValueError(f"base must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return ("0",)
    digits: list[str] = []
    while n:
        digits.append(str(n % k))
        n //= k
    return tuple(reversed(digits))


def degenerate_ddfa(base: Automaton) -> Automaton:
    """Give an automaton the degenerate rule set: weight 1 on the edge taken.

    The resulting runs keep the full unit charge on the current state, so
    they reproduce plain transition behavior exactly.
    """
    keys = product(base.states, base.alphabet, base.alphabet)
    return replace(base, rules={(q, s, t): ONE if t == s else ZERO for q, s, t in keys})
