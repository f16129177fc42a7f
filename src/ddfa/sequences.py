"""Number sequences read off automaton charge runs, plus their closed forms.

The two builtin automata give rise to a small family of sequences, exposed
here both through simulation (running the automaton on base-k expansions)
and through independent recursions or word-shape closed forms. The builtin
names used by the command line are:

    a        final charges of the 2-state equal-split automaton, base 2
    b        numerators of a (always odd)
    d        reduced final charges of the 4-state automaton, all states valued 1
    e        numerators of d
    t        binary digit-parity sequence (runs the 2-state plain automaton)
    tcal     0/1 recursion whose even branch switches on primality
    a131271  triangle of permutations of {1..2^n}, read row by row

Any discharging automaton over the digits "0", ..., "k-1" gives a charge
sequence in three forms (``CHARGE_FORMS``), read by ``charge_sequence`` and
listed by ``charge_b_file_text``: "charge", the final charge of the run on
the base-k word of n; "reduced", its value under a valuation of the states;
and "numerator", the numerator of the reduced value, or of the charge when
there is no valuation.

Every producer is exact: Fraction or int, never float. A sequence is its
term function ``n -> value``, which raises ``ValueError`` off its domain.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain, islice, repeat
from math import gcd, lcm
from typing import Callable, Iterator, Mapping

from .automata import Automaton, build_tm_dfao
from .discharge import build_fr_ddfao, build_tm_ddfa
from .documents import parse_rational
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

    def span(self, lo: int, hi: int) -> Iterator:
        """The values of lo <= n < hi in order, a level at a time, storing nothing.

        The indices >= k of [lo, hi) have their parents in
        [max(lo, k) // k, (hi - 1) // k + 1), and so on up to a range of
        one-digit words, whose parent is the empty word. Each level is one
        ``step`` per index from its parent's entry in the level above, which
        is the only level kept; the last level is stepped as it is read.
        """
        if lo < 0:
            raise ValueError(f"n must be nonnegative, got {lo}")
        k, root, step = self.k, self.root, self.step

        def level(parents: list, first: int, lo: int, hi: int) -> Iterator:
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
            values, first = list(level(values, first, lo, hi)), lo
        return level(values, first, *ranges[0])


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
    auto: Automaton, form: str, valuation: Mapping[str, Fraction] | None = None
) -> tuple[_DigitMemo, Callable[[tuple[int, ...]], tuple[int, int]]]:
    """A snapshot memo of the runs on the base-k words, and their value in ints.

    ``form`` is one of ``CHARGE_FORMS``: "charge" values the final charge
    and ignores the valuation, "reduced" needs one, and "numerator" values
    the reduced value with a valuation and the charge without; a numerator
    reader keeps the first int of ``value``.

    A snapshot (state index, word length L, charges...) of the run on the
    word of n equals ``delta_c(auto, auto.start, base_k_word(n, k))`` with
    the charges scaled by D**L, D the lcm of the weight denominators. Each
    index is one ``charge_step`` from its parent's snapshot. Snapshots are
    int tuples, so the store holds no Fraction and no cycle, and a racing
    write stores an equal tuple.

    ``value(snapshot)`` is (numerator, denominator) in lowest terms, one
    gcd: the final charge, or with a valuation the reduced value
    ``reduce_charge(valuation, state, charge)``, which is 0 for an unvalued
    final state with zero charge and a ``ValueError`` for one with any other.
    """
    if form not in CHARGE_FORMS:
        raise ValueError(f"unknown form {form!r}; expected charge, reduced or numerator")
    if form == "reduced" and valuation is None:
        raise ValueError("the reduced form needs a valuation")
    if form == "charge":
        valuation = None
    base = _digit_base(auto)
    states, alphabet, transition = auto.states, auto.alphabet, auto.transition
    weights = auto.rules.weights
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

    def value(snapshot: tuple[int, ...]) -> tuple[int, int]:
        state = snapshot[0]
        charge = snapshot[2 + state]
        if values[state] is None:
            if charge:
                raise ValueError(f"state {states[state]} has no assigned value")
            return 0, 1
        p, q = values[state]
        numerator, denominator = p * charge, q * scale ** snapshot[1]
        common = gcd(numerator, denominator)
        return numerator // common, denominator // common

    root = (index[auto.start], 0, *(int(q == auto.start) for q in states))
    return _DigitMemo(base, root, step), value


def charge_sequence(
    auto: Automaton, form: str = "charge", valuation: Mapping[str, Fraction] | None = None
) -> Sequence:
    """The ``form`` of the run on the base-k expansion of each n, k = |alphabet|.

    A Fraction for "charge" and "reduced", an int for "numerator". A final
    state the valuation leaves out gives 0 where its charge is 0 and a
    ``ValueError`` where it is not.
    """
    store, value = _charge_runs(auto, form, valuation)
    if form == "numerator":
        return lambda n: value(store[n])[0]
    return lambda n: Fraction(*value(store[n]))


def charge_b_file_text(
    auto: Automaton,
    form: str,
    count: int,
    offset: int = 0,
    valuation: Mapping[str, Fraction] | None = None,
) -> str:
    """The b-file of terms offset <= n < offset + count of a charge sequence.

    Equals ``b_file_text(charge_sequence(auto, form, valuation), count,
    offset)``, but the range is stepped a level at a time
    (``_DigitMemo.span``) and each term is formatted from its ints.
    """
    store, value = _charge_runs(auto, form, valuation)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    terms = zip(range(offset, offset + count), map(value, store.span(offset, offset + count)))
    if form == "numerator":
        lines = [f"{n} {p}" for n, (p, _) in terms]
    else:
        lines = [f"{n} {p}" if q == 1 else f"{n} {p}/{q}" for n, (p, q) in terms]
    return "\n".join(lines) + "\n"


_SCALED_CHARGE_BUILDERS: dict[str, Callable[[], Automaton]] = {
    "tm_ddfa": build_tm_ddfa,
    "fr_ddfao": build_fr_ddfao,
}
SCALED_CHARGE_NAMES = tuple(_SCALED_CHARGE_BUILDERS)


@cache
def scaled_charge_sequence(name: str) -> Sequence:
    """Numerators of the base-2 final charges of builtin automaton ``name``.

    One producer per name and process, so every reader shares its snapshots.
    """
    try:
        build = _SCALED_CHARGE_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scaled-charge automaton {name!r}; expected one of "
            f"{list(SCALED_CHARGE_NAMES)}"
        ) from None
    return charge_sequence(build(), "numerator")


# ---------------------------------------------------------------------------
# closed forms


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


# b(n), the numerator of a(n), on ints: a(n) = b(n) / 2^max(1, bitlen n) with
# b(n) odd, so b(2m) = b(m) and b(2m+1) = 2^bitlen(2m+1) - b(m); the empty
# word's 1 gives b(0) = b(1) = 1. ``a_recursion(n).numerator`` is the oracle.
_b_recursion = _DigitMemo(2, 1, lambda b, n: (1 << n.bit_length()) - b if n & 1 else b)


def modified_b_sequence(n: int) -> int:
    """(b(n) + 1) / 2 for n >= 1, where b(n) is the numerator of a(n).

    b(n) is always odd, so the result is an integer.
    """
    if n < 1:
        raise ValueError(f"defined for n >= 1, got {n}")
    return (_b_recursion[n] + 1) // 2


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


def _a131271_flat(i: int) -> int:
    """Entry i (0-based) of the row-by-row reading of the triangle.

    Reading the rows in order gives (b(i+1) + 1) / 2; ``a131271_triangle``
    is the oracle.
    """
    if i < 0:
        raise ValueError(f"index must be nonnegative, got {i}")
    return modified_b_sequence(i + 1)


def d_shape_closed_form(n: int) -> Fraction:
    """Closed form for the 4-state reduced charge, by binary word shape.

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


@cache
def e_sequence(n: int) -> int:
    """Integer scaling of d(n): its reduced numerator.

    The word shape of n fixes a power-of-two factor (2, 4, 2^(l+1) or
    2^(l+2)) that clears the denominator of d(n) exactly. That leaves 1 for
    n < 2 and for 1 0^l, 3 for words starting 11, and 2^(l+2) - 1 for
    1 0^l 1 followed by anything. The shape is read off bit lengths;
    ``d_shape_closed_form(n).numerator`` is the oracle.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n < 2:
        return 1
    top = n.bit_length() - 1
    rest = n - (1 << top)  # the word of n after its leading 1, top digits long
    if rest >> (top - 1):
        return 3
    if not rest:
        return 1
    return (1 << (top - rest.bit_length() + 2)) - 1


def _is_prime(n: int) -> bool:
    """Deterministic trial division; exact at desk scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# tcal, a 0/1 recursion whose even step flips exactly when the half-index is
# prime: tcal(0) = 0; tcal(2n) = 1 - tcal(n) if n is prime else tcal(n);
# tcal(2n+1) = 1 - tcal(n). The empty word's 0 gives tcal(0) = 0 and
# tcal(1) = 1 by the same step.
_tcal = _DigitMemo(2, 0, lambda v, n: 1 - v if n & 1 or _is_prime(n >> 1) else v)


_TM_DFAO: Automaton = build_tm_dfao()
_TM_OUTPUTS: dict[str, int] = {q: int(v) for q, v in _TM_DFAO.output.items()}
# n -> the parity automaton's state after the binary word of n
_tm_states = _DigitMemo(
    2, _TM_DFAO.start, lambda q, n: _TM_DFAO.transition[(q, "1" if n & 1 else "0")])


def thue_morse(n: int) -> int:
    """Digit-parity of n base 2, computed by running the 2-state automaton."""
    return _TM_OUTPUTS[_tm_states[n]]


# ---------------------------------------------------------------------------
# builtin registry and b-file format


_BUILTIN_TERMS: dict[str, Sequence] = {
    "a": a_recursion,
    "b": _b_recursion.__getitem__,
    "d": d_shape_closed_form,
    "e": e_sequence,
    "t": thue_morse,
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
        n = int(parts[0])
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
