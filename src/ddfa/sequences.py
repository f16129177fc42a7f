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

Every producer is exact: Fraction or int, never float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import Callable, Mapping

from .automata import Automaton, base_k_word, build_tm_dfao, dfao_output
from .discharge import build_fr_ddfao, build_tm_ddfa, delta_c, reduced_delta_c
from .documents import parse_rational


class Sequence:
    """Deterministic indexed producer ``n -> value``.

    A plain view: ``term(n)`` checks ``start`` and calls the term function.
    Memos live with the producers, one per term value: the recursions keep
    module-level caches, ``e_sequence`` has its own, charge sequences cache
    per instance, the two ``scaled_charge_sequence`` producers are built once
    per process and b-files read their table.
    """

    def __init__(self, term_fn: Callable[[int], object], start: int = 0, name: str = ""):
        self._fn = term_fn
        self.start = start
        self.name = name

    def term(self, n: int):
        if n < self.start:
            raise ValueError(f"sequence {self.name or '?'} starts at {self.start}, got {n}")
        return self._fn(n)

    __call__ = term

    def prefix(self, count: int, start: int | None = None) -> list:
        first = self.start if start is None else start
        return [self.term(n) for n in range(first, first + count)]


# ---------------------------------------------------------------------------
# charge sequences from automata


def _digit_base(auto: Automaton) -> int:
    """The base k whose digits "0", ..., "k-1" are exactly the alphabet."""
    base = len(auto.alphabet)
    digits = [str(i) for i in range(base)]
    if set(auto.alphabet) != set(digits):
        raise ValueError(f"alphabet {auto.alphabet} is not the base-{base} digits {digits}")
    return base


def final_charge_sequence(auto: Automaton) -> Sequence:
    """Final charge of the run on the base-k expansion of each n, k = |alphabet|."""
    base = _digit_base(auto)
    start = auto.start

    @cache
    def term(n: int) -> Fraction:
        return delta_c(auto, start, base_k_word(n, base)).final_charge

    return Sequence(term, name="final-charge")


def reduced_value_sequence(auto: Automaton, valuation: Mapping[str, Fraction]) -> Sequence:
    """Reduced value of the run on the base-k expansion of each n, k = |alphabet|.

    The valuation must cover every final state.
    """
    base = _digit_base(auto)
    start = auto.start

    @cache
    def term(n: int) -> Fraction:
        result = reduced_delta_c(auto, valuation, start, base_k_word(n, base))
        if not result.is_numeric:
            raise ValueError(f"state {result.state} has no assigned value")
        return result.value

    return Sequence(term, name="reduced-value")


def numerator_sequence(seq: Sequence) -> Sequence:
    """Numerators of an exact-rational sequence (already in lowest terms)."""
    return Sequence(lambda n: seq.term(n).numerator, start=seq.start,
                    name=f"numerators({seq.name})" if seq.name else "numerators")


_SCALED_CHARGE_BUILDERS: dict[str, Callable[[], Automaton]] = {
    "tm_ddfa": build_tm_ddfa,
    "fr_ddfao": build_fr_ddfao,
}
SCALED_CHARGE_NAMES = tuple(_SCALED_CHARGE_BUILDERS)


@cache
def scaled_charge_sequence(name: str) -> Sequence:
    """Numerators of the base-2 final charges of builtin automaton ``name``.

    One producer per name and process, so every reader shares its term cache.
    """
    try:
        build = _SCALED_CHARGE_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scaled-charge automaton {name!r}; expected one of "
            f"{list(SCALED_CHARGE_NAMES)}"
        ) from None
    return numerator_sequence(final_charge_sequence(build()))


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


def modified_b_sequence(n: int) -> int:
    """(b(n) + 1) / 2 for n >= 1, where b(n) is the numerator of a(n).

    b(n) is always odd, so the result is an integer.
    """
    if n < 1:
        raise ValueError(f"defined for n >= 1, got {n}")
    return (a_recursion(n).numerator + 1) // 2


@dataclass(frozen=True)
class TriangleA131271:
    """Triangle whose row n is a permutation of {1, ..., 2^n}."""

    rows: tuple[tuple[int, ...], ...]

    def flatten(self) -> list[int]:
        return [value for row in self.rows for value in row]


def a131271_triangle(depth: int) -> TriangleA131271:
    """Rows 0..depth of the doubling triangle.

    Row n interleaves row n-1 with its reflection: entry v contributes
    v followed by 2^n + 1 - v.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    rows: list[tuple[int, ...]] = [(1,)]
    for n in range(1, depth + 1):
        prev = rows[-1]
        row: list[int] = []
        for v in prev:
            row.append(v)
            row.append(2**n + 1 - v)
        rows.append(tuple(row))
    return TriangleA131271(tuple(rows))


@lru_cache(maxsize=None)
def _triangle_entry(n: int, j: int) -> int:
    """T(n, j), 1-indexed, without materializing rows."""
    if n == 0:
        return 1
    if j % 2:
        return _triangle_entry(n - 1, (j + 1) // 2)
    return 2**n + 1 - _triangle_entry(n - 1, j // 2)


def _a131271_flat(i: int) -> int:
    """Entry i (0-based) of the row-by-row reading of the triangle."""
    if i < 0:
        raise ValueError(f"index must be nonnegative, got {i}")
    n = (i + 1).bit_length() - 1
    return _triangle_entry(n, i + 2 - 2**n)


def _binary_shape(n: int) -> tuple[str, int]:
    """Classify the binary word of n >= 1 into one of three exhaustive shapes.

    Returns (tag, zeros) where tag is "double-one" for words starting 11,
    "one-zeros" for 1 followed only by zeros (possibly none), and
    "one-zeros-one" for 1, at least one 0, then a 1 and anything.
    """
    bits = format(n, "b")
    rest = bits[1:]
    if rest.startswith("1"):
        return "double-one", 0
    first_one = rest.find("1")
    if first_one == -1:
        return "one-zeros", len(rest)
    if first_one >= 1:
        return "one-zeros-one", first_one
    raise AssertionError(f"unclassifiable binary word {bits!r}")


def d_shape_closed_form(n: int) -> Fraction:
    """Closed form for the 4-state reduced charge, by binary word shape.

    d(0) = 1/2; words starting 11 give 3/4; 1 followed by l zeros gives
    2^-(l+1); 1, l >= 1 zeros, then a 1 gives 1 - 2^-(l+2).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return Fraction(1, 2)
    shape, zeros = _binary_shape(n)
    if shape == "double-one":
        return Fraction(3, 4)
    if shape == "one-zeros":
        return Fraction(1, 2 ** (zeros + 1))
    return 1 - Fraction(1, 2 ** (zeros + 2))


@cache
def e_sequence(n: int) -> int:
    """Integer scaling of d(n): its reduced numerator.

    The word shape of n fixes a power-of-two factor (2, 4, 2^(l+1) or
    2^(l+2)) that clears the denominator of d(n) exactly.
    """
    return d_shape_closed_form(n).numerator


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


@lru_cache(maxsize=None)
def t_sequence(n: int) -> int:
    """0/1 recursion whose even step flips exactly when the half-index is prime.

    tcal(0) = 0; tcal(2n) = 1 - tcal(n) if n is prime else tcal(n);
    tcal(2n+1) = 1 - tcal(n).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return 0
    half, bit = divmod(n, 2)
    if bit:
        return 1 - t_sequence(half)
    if _is_prime(half):
        return 1 - t_sequence(half)
    return t_sequence(half)


_TM_DFAO: Automaton = build_tm_dfao()


@lru_cache(maxsize=None)
def thue_morse(n: int) -> int:
    """Digit-parity of n base 2, computed by running the 2-state automaton."""
    return int(dfao_output(_TM_DFAO, base_k_word(n, 2)))


# ---------------------------------------------------------------------------
# builtin registry and b-file format


def builtin_sequence(name: str) -> Sequence:
    """Fresh producer for one of the builtin sequence names."""
    term_fns: dict[str, Callable[[int], object]] = {
        "a": a_recursion,
        "b": lambda n: a_recursion(n).numerator,
        "d": d_shape_closed_form,
        "e": e_sequence,
        "t": thue_morse,
        "tcal": t_sequence,
        "a131271": _a131271_flat,
    }
    try:
        fn = term_fns[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin sequence {name!r}; expected one of {sorted(term_fns)}"
        ) from None
    return Sequence(fn, name=name)


BUILTIN_SEQUENCE_NAMES = ("a", "b", "d", "e", "t", "tcal", "a131271")


def b_file_text(seq: Sequence, count: int, offset: int = 0) -> str:
    """Plain-text listing "n value" per line, newline-terminated, no blank line."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    lines = [f"{n} {seq.term(n)}" for n in range(offset, offset + count)]
    return "\n".join(lines) + "\n"


def read_b_file(text: str, name: str = "file") -> Sequence:
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

    return Sequence(term, start=min(table, default=0), name=name)
