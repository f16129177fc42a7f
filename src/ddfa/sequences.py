"""Number sequences read off automaton charge runs, and the builtin sequences.

The builtin automata give rise to a small family of sequences. Running an
automaton on base-k expansions is ``charge_sequence``; the builtin names
used by the command line read digit walks on ints, or views of one,
instead, and build no automaton:

    a        final charges of the 2-state equal-split automaton, base 2
    b        numerators of a (always odd)
    d        reduced final charges of the 4-state automaton, all states valued 1
    e        numerators of d
    t        binary digit parity, a memo on ints (the parity DFAO run is its oracle)
    tcal     0/1 recursion whose even branch switches on primality
    a131271  triangle of permutations of {1..2^n}, read row by row

Any discharging automaton over the digits "0", ..., "k-1" gives a charge
sequence in three forms (``CHARGE_FORMS``), read by ``charge_sequence`` and
listed by ``charge_b_file_text``: "charge", the final charge of the run on
the base-k word of n; "reduced", its value under the automaton's valuation;
and "numerator", the numerator of the reduced value, or of the charge when
there is no valuation.

Every producer is exact: Fraction or int, never float. A sequence is its
term function ``n -> value``, which raises ``ValueError`` off its domain.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd, lcm
from typing import Callable, Iterator

from .automata import Automaton
from .documents import decimal_literal, parse_rational
from .regularity import Sequence


# ---------------------------------------------------------------------------
# one walk over base-k words


class _DigitMemo(dict):
    """n -> the value of a run over the base-k word of n, for every n read.

    The word of n >= k is the word of its parent n // k plus the digit
    n % k; the word of n < k extends the empty word, whose value is
    ``root``. ``step(parent value, n)`` is the value of n. A miss walks up
    to the nearest stored ancestor, or to the empty word, and steps back
    down, storing every index it visits, so nothing recurses and a cleared
    memo still starts from ``root``.
    """

    def __init__(self, k: int, root, step: Callable[[object, int], object]):
        super().__init__()
        self.k, self.root, self.step = k, root, step

    def __missing__(self, n: int):
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        k = self.k
        if n >= k and (parent := n // k) in self:
            value = self[n] = self.step(self[parent], n)
            return value
        path = []
        while n not in self:
            path.append(n)
            if n < k:
                value = self.root
                break
            n //= k
        else:
            value = self[n]
        for m in reversed(path):
            value = self[m] = self.step(value, m)
        return value

    def span(self, lo: int, hi: int, last: Callable[[object, int], object]) -> Iterator:
        """``last(parent value, n)`` for lo <= n < hi in order, storing nothing.

        ``last`` is ``step`` for the values of the range. The indices >= k
        of [lo, hi) have their parents in
        [max(lo, k) // k, (hi - 1) // k + 1), and so on up to a range of
        one-digit words, whose parent is the empty word. Each ancestor level
        is one ``step`` per index from its parent's entry in the level
        above, which is the only level kept; the last level is mapped
        through ``last`` straight from its parents as it is read.
        """
        if lo < 0:
            raise ValueError(f"n must be nonnegative, got {lo}")
        k, root = self.k, self.root

        def level(parents: list, first: int, lo: int, hi: int, step) -> Iterator:
            # parents holds the values of first, first + 1, ...; n >= k reads n // k
            start = max(lo, k)
            each = chain.from_iterable(map(repeat, parents, repeat(k)))
            return chain(map(step, repeat(root), range(lo, min(hi, k))),
                         map(step, islice(each, start - first * k, None), range(start, hi)))

        ranges = [(lo, hi)]
        while hi > k:
            lo, hi = max(lo, k) // k, (hi - 1) // k + 1
            ranges.append((lo, hi))
        values, first = [], 0
        for lo, hi in reversed(ranges[1:]):
            values, first = list(level(values, first, lo, hi, self.step)), lo
        return level(values, first, *ranges[0], last)


# ---------------------------------------------------------------------------
# charge sequences from automata


def _digit_base(auto: Automaton) -> int:
    """The base k >= 2 whose digits "0", ..., "k-1" are exactly the alphabet."""
    base = len(auto.alphabet)
    if base < 2:
        raise ValueError(
            f"alphabet {auto.alphabet} has {base} symbol(s); base-k digits need at least two"
        )
    digits = [str(i) for i in range(base)]
    if set(auto.alphabet) != set(digits):
        raise ValueError(f"alphabet {auto.alphabet} is not the base-{base} digits {digits}")
    return base


CHARGE_FORMS = ("charge", "numerator", "reduced")


def _charge_runs(
    auto: Automaton, form: str
) -> tuple[_DigitMemo, Callable[[tuple[int, ...], int], tuple[int, int]]]:
    """A snapshot memo of the runs on the base-k words, and the leaf that values a run.

    ``form`` is one of ``CHARGE_FORMS``: "charge" values the final charge
    and ignores ``auto.valuation``, "reduced" needs one, and "numerator"
    values the reduced value with a valuation and the charge without; a
    numerator reader keeps the first int of ``leaf``.

    A snapshot (state index, word length L, charges...) of the run on the
    base-k word w of n equals ``delta_c(auto, auto.start, w)`` with the
    charges scaled by D**L, D the lcm of the weight denominators. Each
    index is one ``charge_step`` from its parent's snapshot. Snapshots are
    int tuples, so the store holds no Fraction and no cycle, and a racing
    write stores an equal tuple.

    ``leaf(parent snapshot, n)`` values the run on the word of n, one step
    past its parent's, as (numerator, denominator) in lowest terms, one
    gcd: the final charge, or with a valuation the reduced value
    ``reduce_charge(auto.valuation, state, charge)``, which is 0 for an unvalued
    final state with zero charge and a ``ValueError`` for one with any other.
    It builds no snapshot of n: the final charge is the moving charge times
    the D-scaled weights into the next state, plus D times the next state's
    own charge when it is not the current one.
    """
    if auto.rules is None:
        raise ValueError("sequence generation needs a discharging automaton (ddfa/ddfao)")
    if form not in CHARGE_FORMS:
        raise ValueError(f"unknown form {form!r}; expected charge, reduced or numerator")
    valuation = None if form == "charge" else auto.valuation
    if form == "reduced" and valuation is None:
        raise ValueError("the reduced form needs a valuation")
    base = _digit_base(auto)
    states, alphabet, transition = auto.states, auto.alphabet, auto.transition
    weights = auto.rules
    index = {q: i for i, q in enumerate(states)}
    scale = lcm(*(w.denominator for w in weights.values()))
    moves = tuple(
        tuple(
            (
                index[transition[(q, s)]],
                tuple(
                    (index[transition[(q, t)]], int(weights[(q, s, t)] * scale))
                    for t in alphabet
                    if weights[(q, s, t)]
                ),
            )
            for s in map(str, range(base))
        )
        for q in states
    )

    def step(snapshot: tuple[int, ...], n: int) -> tuple[int, ...]:
        # moves[state][digit] = (next state, ((target, D * weight), ...))
        state = snapshot[0]
        moving = snapshot[2 + state]
        target_state, edges = moves[state][n % base]
        charges = [c * scale for c in snapshot[2:]]
        charges[state] = 0
        for target, weight in edges:
            charges[target] += moving * weight
        return (target_state, snapshot[1] + 1, *charges)

    # (p, q) of each state's value p/q; None where the valuation leaves it out
    valued = {q: 1 for q in states} if valuation is None else valuation
    values = tuple((valued[q].numerator, valued[q].denominator) if q in valued else None
                   for q in states)

    # landing[state][digit] = (next state, D * the weights into it, its (p, q) or None)
    landing = tuple(
        tuple(
            (target_state, sum(weight for target, weight in edges if target == target_state),
             values[target_state])
            for target_state, edges in row
        )
        for row in moves
    )
    powers: dict[int, int] = {}  # parent word length L -> D**(L + 1)

    def leaf(snapshot: tuple[int, ...], n: int) -> tuple[int, int]:
        state = snapshot[0]
        target_state, weight, valued = landing[state][n % base]
        charge = snapshot[2 + state] * weight
        if target_state != state:
            charge += snapshot[2 + target_state] * scale
        if valued is None:
            if charge:
                raise ValueError(f"state {states[target_state]} has no assigned value")
            return 0, 1
        length = snapshot[1]
        try:
            power = powers[length]
        except KeyError:
            power = powers[length] = scale ** (length + 1)
        p, q = valued
        numerator, denominator = p * charge, q * power
        common = gcd(numerator, denominator)
        return numerator // common, denominator // common

    root = (index[auto.start], 0, *(int(q == auto.start) for q in states))
    return _DigitMemo(base, root, step), leaf


def charge_sequence(auto: Automaton, form: str = "charge") -> Sequence:
    """The ``form`` of the run on the base-k expansion of each n, k = |alphabet|.

    A Fraction for "charge" and "reduced", an int for "numerator". A final
    state the valuation leaves out gives 0 where its charge is 0 and a
    ``ValueError`` where it is not. Each term is ``leaf`` of its parent's
    snapshot, the memo's root for n < k, so the memo holds parents only.
    """
    store, leaf = _charge_runs(auto, form)
    k, root = store.k, store.root
    # store[n] of a negative n raises the memo's "n must be nonnegative"
    if form == "numerator":
        return lambda n: leaf(store[n // k] if n >= k else root if n >= 0 else store[n], n)[0]
    return lambda n: Fraction(*leaf(store[n // k] if n >= k else root if n >= 0 else store[n], n))


def charge_b_file_text(auto: Automaton, form: str, count: int, offset: int = 0) -> str:
    """The b-file of terms offset <= n < offset + count of a charge sequence.

    Equals ``b_file_text(charge_sequence(auto, form), count, offset)``, but
    the ancestors of the range are stepped a level at a time
    (``_DigitMemo.span``), each term is valued straight from its parent's
    snapshot by the runs' ``leaf`` and formatted from its ints.
    """
    store, leaf = _charge_runs(auto, form)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    terms = zip(range(offset, offset + count), store.span(offset, offset + count, leaf))
    if form == "numerator":
        lines = [f"{n} {p}" for n, (p, _) in terms]
    else:
        lines = [f"{n} {p}" if q == 1 else f"{n} {p}/{q}" for n, (p, q) in terms]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# builtin sequences on ints


# b(n), the numerator of a(n), on ints: a(n) = b(n) / 2^max(1, bitlen n) with
# b(n) odd, so b(2m) = b(m) and b(2m+1) = 2^bitlen(2m+1) - b(m); the empty
# word's 1 gives b(0) = b(1) = 1. The builtin a reads it, with no recursion at
# any n; the tests' ``a_recursion`` is the oracle.
_b_recursion = _DigitMemo(2, 1, lambda b, n: (1 << n.bit_length()) - b if n & 1 else b)


def _a131271_flat(i: int) -> int:
    """Entry i (0-based) of the row-by-row reading of the triangle.

    Reading the rows in order gives (b(i+1) + 1) / 2, b being odd; the
    tests' ``a131271_triangle`` is the oracle.
    """
    if i < 0:
        raise ValueError(f"index must be nonnegative, got {i}")
    return (_b_recursion[i + 1] + 1) // 2


# e, the numerator of d, on ints: once the word of n has left 1 0*, e is fixed,
# so e(2m + d) = e(m) when e(m) > 1. Otherwise n is 0 or 1 0^l (e = 1), or
# 1 0^l 1 (e = 2^bitlen(n) - 1, which is 1 at n = 1), and the empty word's 1
# gives e(0) = 1. The builtin d reads it, as d(n) = e / (e + 1) when e > 1 and
# 1 / 2^max(1, bitlen n) else; the tests' ``d_shape_closed_form`` is their oracle.
_e = _DigitMemo(2, 1, lambda e, n: (1 << n.bit_length()) - 1 if e == 1 and n & 1 else e)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981  # least strong pseudoprime to those 13 bases


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: exact below psi_13, and exact for a composite above.

    After a screen by the primes up to 41, bases 2, 3, 5 and 7 are exact
    below 3,215,031,751 (Jaeschke 1993) and the 13 primes up to 41 below
    psi_13 (Sorenson and Webster, Math. Comp. 86, 2017). A base that
    witnesses n composite proves it at any size; a number at or above
    psi_13 that no base witnesses is refused with a ``ValueError``, since
    only a probabilistic test would call it prime.
    """
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 2:
        return False
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _SMALL_PRIMES[:4] if n < 3_215_031_751 else _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI_13:
        raise ValueError(f"tcal needs the primality of a {n.bit_length()}-bit probable prime; "
                         f"the test is exact only below {_PSI_13}")
    return True


# tcal, a 0/1 recursion whose even step flips exactly when the half-index is
# prime: tcal(0) = 0; tcal(2n) = 1 - tcal(n) if n is prime else tcal(n);
# tcal(2n+1) = 1 - tcal(n). The empty word's 0 gives tcal(0) = 0 and
# tcal(1) = 1 by the same step.
_tcal = _DigitMemo(2, 0, lambda v, n: 1 - v if n & 1 or _is_prime(n >> 1) else v)


# t, the binary digit parity: t(2m + d) = t(m) xor d, and the empty word's 0
# gives t(0) = 0.
_t = _DigitMemo(2, 0, lambda v, n: v ^ (n & 1))


# ---------------------------------------------------------------------------
# builtin registry and b-file format


_BUILTIN_TERMS: dict[str, Sequence] = {
    "a": lambda n: Fraction(_b_recursion[n], 1 << max(1, n.bit_length())),
    "b": _b_recursion.__getitem__,
    "d": lambda n: (Fraction(e, e + 1) if (e := _e[n]) > 1
                    else Fraction(1, 1 << max(1, n.bit_length()))),
    "e": _e.__getitem__,
    "t": _t.__getitem__,
    "tcal": _tcal.__getitem__,
    "a131271": _a131271_flat,
}
BUILTIN_SEQUENCE_NAMES = tuple(_BUILTIN_TERMS)


def builtin_sequence(name: str) -> Sequence:
    """Term function of one of the builtin sequence names."""
    try:
        return _BUILTIN_TERMS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin sequence {name!r}; expected one of {sorted(_BUILTIN_TERMS)}"
        ) from None


def b_file_text(seq: Sequence, count: int, offset: int = 0) -> str:
    """Plain-text listing "n value" per line, newline-terminated, no blank line."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    lines = [f"{n} {seq(n)}" for n in range(offset, offset + count)]
    return "\n".join(lines) + "\n"


def read_b_file(text: str) -> Sequence:
    """Parse "n value" lines (comments with # allowed) into a finite producer."""
    table: dict[int, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'n value', got {raw!r}")
        if not (parts[0].isascii() and parts[0].isdigit()):
            raise ValueError(
                f"line {lineno}: index {parts[0]!r} is not a non-negative decimal integer"
            )
        n = decimal_literal(parts[0], f"line {lineno}")
        if n in table:
            raise ValueError(f"line {lineno}: duplicate index {n}")
        value = parse_rational(parts[1], f"line {lineno}")
        table[n] = int(value) if value.denominator == 1 else value

    def term(n: int):
        try:
            return table[n]
        except KeyError:
            raise ValueError(f"index {n} not present in sequence file") from None

    return term
