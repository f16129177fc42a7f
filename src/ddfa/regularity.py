"""Menu-based relation structure of integer sequences at desk scale.

A relation menu for a subsequence s(k^e n + r) is a finite list of affine
combinations of shallower subsequences s(k^f n + b), f <= E; the sequence
satisfies the menu when every index n >= m is matched by at least one
option. The verifier checks all levels E < e <= E + depth, deriving menus
for levels above E+1 by composing the supplied base menus; the brute-force
searcher recovers menus from data.

Everything here is exact: integer evaluation, fraction-free elimination
for kernel ranks, no floats.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping

IntSequence = Callable[[int], int]

# Most term evaluations (or search candidates) one call may plan; checked
# before any work starts, so a huge exponent fails fast instead of running.
WORK_LIMIT = 2_000_000


class SpecError(ValueError):
    """A relation spec violates its structural preconditions."""


class MissingMenuError(SpecError):
    """A menu required for verification was neither supplied nor derivable."""


@dataclass(frozen=True)
class RelationTerm:
    """One summand coeff * s(k^f n + b)."""

    coeff: int
    f: int
    b: int


@dataclass(frozen=True)
class AffineCombination:
    """constant + sum of terms, evaluated against a sequence."""

    constant: int
    terms: tuple[RelationTerm, ...]


def eval_combination(seq: IntSequence, comb: AffineCombination, n: int, k: int) -> int:
    """Evaluate constant + sum coeff * seq(k^f n + b) at index n."""
    return comb.constant + sum(t.coeff * seq(k**t.f * n + t.b) for t in comb.terms)


def _read_columns(seq: IntSequence, k: int, ns: range, keys) -> list[list]:
    """Columns [s(k^f n + b) for n in ns], one per (f, b) in keys.

    Reads go index by index, all keys at n before any at n + 1, as a
    per-index check reads them, so a sequence that is missing some index (a
    short b-file) fails on the same index.
    """
    readers = [(k**f, b, []) for f, b in keys]
    for n in ns:
        for stride, b, column in readers:
            column.append(seq(stride * n + b))
    return [column for _, _, column in readers]


def _combination_column(comb: AffineCombination, columns, size: int) -> list:
    """constant + sum coeff * column, index by index, from read columns."""
    values = [comb.constant] * size
    for t in comb.terms:
        coeff = t.coeff
        values = [v + coeff * x for v, x in zip(values, columns[(t.f, t.b)])]
    return values


def _canonical(constant: int, terms) -> AffineCombination:
    """Merge like terms, drop zero coefficients, order by (f, b)."""
    merged: dict[tuple[int, int], int] = {}
    for t in terms:
        merged[(t.f, t.b)] = merged.get((t.f, t.b), 0) + t.coeff
    kept = tuple(
        RelationTerm(c, f, b) for (f, b), c in sorted(merged.items()) if c != 0
    )
    return AffineCombination(constant, kept)


def describe_combination(comb: AffineCombination, k: int) -> str:
    """Human-readable rendering, e.g. "2*s(2n+1) + 1"."""
    pieces: list[str] = []
    for t in comb.terms:
        stride = k**t.f
        if stride == 1:
            arg = "n" if t.b == 0 else f"n+{t.b}"
        else:
            arg = f"{stride}n" if t.b == 0 else f"{stride}n+{t.b}"
        factor = "" if t.coeff == 1 else ("-" if t.coeff == -1 else f"{t.coeff}*")
        pieces.append(f"{factor}s({arg})")
    if comb.constant or not pieces:
        pieces.append(str(comb.constant))
    text = " + ".join(pieces)
    return text.replace("+ -", "- ")


@dataclass(frozen=True)
class RelationMenu:
    """Options for one subsequence level (e, r)."""

    e: int
    r: int
    options: tuple[AffineCombination, ...]


@dataclass(frozen=True)
class QuasiRegularitySpec:
    """Base k, right-hand exponent bound E, start index m, and the menus.

    With m = 0 and one option per menu the spec is a flat relation list,
    one combination per level holding at every index: the k-regular case
    (Allouche & Shallit, "The ring of k-regular sequences", TCS 1992).
    """

    k: int
    E: int
    m: int
    menus: Mapping[tuple[int, int], RelationMenu]


def _below_power(x: int, k: int, e: int) -> bool:
    """Whether x < k**e for k >= 2, without forming a power above k*x.

    The exponent can come from a document, so k**e itself can be far too
    large to compute; the loop stops after at most x.bit_length() + 1 steps.
    """
    power = 1
    for _ in range(e):
        if power > x:
            return True
        power *= k
    return x < power


def _check_work(what: str, k: int, e: int, count: int) -> None:
    """Raise SpecError if k**e * count (count >= 1) exceeds WORK_LIMIT."""
    if _below_power(WORK_LIMIT // count, k, e):
        raise SpecError(
            f"{what} needs {k}^{e} * {count} evaluations, over the limit of {WORK_LIMIT}"
        )


def validate_spec(spec: QuasiRegularitySpec) -> None:
    """Raise SpecError on any structural violation (vacuous menus included)."""
    if spec.k < 2:
        raise SpecError(f"base k must be >= 2, got {spec.k}")
    if spec.E < 0:
        raise SpecError(f"exponent bound E must be >= 0, got {spec.E}")
    if spec.m < 0:
        raise SpecError(f"start index m must be >= 0, got {spec.m}")
    for (e, r), menu in spec.menus.items():
        if (menu.e, menu.r) != (e, r):
            raise SpecError(f"menu keyed ({e}, {r}) describes level ({menu.e}, {menu.r})")
        if e <= spec.E:
            raise SpecError(f"menu level e = {e} must exceed E = {spec.E}")
        if r < 0 or not _below_power(r, spec.k, e):
            raise SpecError(f"offset r = {r} out of range for level e = {e}")
        if not menu.options:
            raise SpecError(f"menu ({e}, {r}) has no options")
        for opt in menu.options:
            for t in opt.terms:
                if t.f > spec.E:
                    raise SpecError(
                        f"term exponent f = {t.f} exceeds E = {spec.E} in menu ({e}, {r})"
                    )
                if t.f < 0 or t.b < 0 or not _below_power(t.b, spec.k, t.f):
                    raise SpecError(
                        f"term offset b = {t.b} out of range for f = {t.f} in menu ({e}, {r})"
                    )


class _MenuResolver:
    """Resolve menus for arbitrary levels, composing upwards from the base.

    A level (e, r) with e > E+1 rewrites s(k^e n + r) = s(k^(e-1) M + r0)
    with M = k n + u, expands each option of the level-(e-1) menu at M, and
    substitutes base menus for any term whose exponent would exceed E.
    Substitution choices multiply out, so composed menus stay finite.
    """

    def __init__(self, spec: QuasiRegularitySpec):
        self.spec = spec
        self.cache: dict[tuple[int, int], RelationMenu] = dict(spec.menus)

    def resolve(self, e: int, r: int) -> RelationMenu:
        key = (e, r)
        if key in self.cache:
            return self.cache[key]
        spec = self.spec
        if e <= spec.E + 1:
            raise MissingMenuError(f"missing menu for level ({e}, {r})")
        k = spec.k
        u, r0 = divmod(r, k ** (e - 1))
        parent = self.resolve(e - 1, r0)
        options: list[AffineCombination] = []
        for opt in parent.options:
            partial: list[tuple[int, list[RelationTerm]]] = [(opt.constant, [])]
            for t in opt.terms:
                g = t.f + 1
                b_new = k**t.f * u + t.b
                if g <= spec.E:
                    partial = [
                        (c0, ts + [RelationTerm(t.coeff, g, b_new)]) for c0, ts in partial
                    ]
                    continue
                sub = self.resolve(spec.E + 1, b_new)
                expanded: list[tuple[int, list[RelationTerm]]] = []
                for c0, ts in partial:
                    for sub_opt in sub.options:
                        expanded.append(
                            (
                                c0 + t.coeff * sub_opt.constant,
                                ts
                                + [
                                    RelationTerm(t.coeff * st.coeff, st.f, st.b)
                                    for st in sub_opt.terms
                                ],
                            )
                        )
                partial = expanded
            options.extend(_canonical(c0, ts) for c0, ts in partial)
        deduped: list[AffineCombination] = []
        seen: set[AffineCombination] = set()
        for opt in options:
            if opt not in seen:
                seen.add(opt)
                deduped.append(opt)
        menu = RelationMenu(e, r, tuple(deduped))
        self.cache[key] = menu
        return menu


@dataclass
class LevelReport:
    """Check outcome for one level: hit counts per option, first failure."""

    e: int
    r: int
    checked: int
    option_hits: list[int]
    first_failure: int | None
    menu: RelationMenu

    @property
    def ok(self) -> bool:
        return self.first_failure is None


@dataclass
class VerificationReport:
    """Per-level results for all levels E < e <= E + depth."""

    verified: bool
    depth: int
    checked_to: int
    levels: dict[tuple[int, int], LevelReport] = field(default_factory=dict)


def verify_quasi_k_regular(
    seq: IntSequence, spec: QuasiRegularitySpec, limit: int, depth: int = 3
) -> VerificationReport:
    """Check every menu level against the sequence for m <= n <= limit.

    Base menus (level E+1) must all be supplied; deeper levels up to
    E + depth are derived by composition unless supplied explicitly. Each
    s(k^f n + b) is read once per call into a column over [m, limit], and
    each option's column is compared with the level's target column.
    """
    validate_spec(spec)
    if depth < 1:
        raise SpecError(f"depth must be >= 1, got {depth}")
    if limit < spec.m:
        raise SpecError(f"limit {limit} is below start index m = {spec.m}")
    _check_work("verify", spec.k, spec.E + depth, limit - spec.m + 1)
    resolver = _MenuResolver(spec)
    report = VerificationReport(verified=True, depth=depth, checked_to=limit)
    k, m = spec.k, spec.m
    ns = range(m, limit + 1)
    columns: dict[tuple[int, int], list] = {}
    for e in range(spec.E + 1, spec.E + depth + 1):
        for r in range(k**e):
            menu = resolver.resolve(e, r)
            new = list(dict.fromkeys(
                (t.f, t.b) for opt in menu.options for t in opt.terms
                if (t.f, t.b) not in columns
            ))
            target, *read = _read_columns(seq, k, ns, [(e, r), *new])
            columns.update(zip(new, read))
            hits = []
            unmatched = range(len(ns))
            for opt in menu.options:
                values = _combination_column(opt, columns, len(ns))
                hits.append(sum(map(operator.eq, values, target)))
                unmatched = [i for i in unmatched if values[i] != target[i]]
            first_failure = m + unmatched[0] if unmatched else None
            level = LevelReport(e, r, len(ns), hits, first_failure, menu)
            report.levels[(e, r)] = level
            if first_failure is not None:
                report.verified = False
    return report


@dataclass
class SearchResult:
    """Menus found per residue, plus any indices no candidate covered."""

    k: int
    E: int
    m: int
    level: int
    coeff_bound: int
    limit: int
    menus: dict[tuple[int, int], RelationMenu] = field(default_factory=dict)
    uncovered: dict[tuple[int, int], list[int]] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not any(self.uncovered.values())

    def to_spec(self) -> QuasiRegularitySpec:
        if not self.complete:
            missing = {key: v for key, v in self.uncovered.items() if v}
            raise SpecError(f"search left indices uncovered: {missing}")
        return QuasiRegularitySpec(self.k, self.E, self.m, dict(self.menus))


def search_relation_menus(
    seq: IntSequence,
    k: int,
    E: int,
    m: int,
    level: int,
    coeff_bound: int,
    limit: int,
) -> SearchResult:
    """Brute-force menu search over bounded-coefficient affine combinations.

    Candidates range over constant and coefficients in [-coeff_bound,
    coeff_bound] against the basis {s(k^f n + b) : f <= E}. Per residue,
    candidates matching nowhere are pruned and a greedy cover (descending
    count of newly covered indices) of [m, limit] is returned; ties prefer
    fewer terms, then a smaller constant. Residues left with uncovered
    indices are reported, not fatal.
    """
    if coeff_bound < 1:
        raise SpecError(f"coeff bound must be >= 1, got {coeff_bound}")
    if level <= E:
        raise SpecError(f"search level e = {level} must exceed E = {E}")
    if limit < m:
        raise SpecError(f"limit {limit} is below start index m = {m}")
    if k < 2:
        raise SpecError(f"base k must be >= 2, got {k}")
    span = 2 * coeff_bound + 1
    size = 1  # the constant plus each basis term s(k^f n + b), counted per f
    for f in range(E + 1):
        size += k**f
        if _below_power(WORK_LIMIT, span, size):
            raise SpecError(
                f"search space {span}^{size} or more too large; reduce coeff bound or E"
            )
    _check_work("search", k, level, limit - m + 1)
    basis = [(f, b) for f in range(E + 1) for b in range(k**f)]
    result = SearchResult(k, E, m, level, coeff_bound, limit)
    ns = range(m, limit + 1)
    columns = _read_columns(seq, k, ns, basis)
    coeff_range = range(-coeff_bound, coeff_bound + 1)
    for r in range(k**level):
        (target,) = _read_columns(seq, k, ns, [(level, r)])
        # (tie-break key, indices hit); the key orders by fewer terms, then
        # a smaller constant, then the (f, b, coeff) terms themselves.
        candidates: list[tuple[tuple, frozenset[int]]] = []
        for coeffs, residual in _residuals(target, columns, coeff_range):
            # Indices by residual; a non-integer one (rational terms) is
            # looked up by no constant.
            buckets: dict = {}
            for i, value in enumerate(residual):
                if -coeff_bound <= value <= coeff_bound:
                    buckets.setdefault(value, []).append(i)
            if not buckets:
                continue
            terms = tuple((f, b, c) for c, (f, b) in zip(coeffs, basis) if c)
            for constant in coeff_range:
                hit = buckets.get(constant)
                if hit:
                    order = (len(terms), abs(constant), constant, terms)
                    candidates.append((order, frozenset(hit)))
        candidates.sort(key=lambda candidate: candidate[0])
        chosen: list[AffineCombination] = []
        uncovered = set(range(len(ns)))
        while uncovered:
            # In key order, so the first candidate with the largest gain wins ties.
            best, best_gain = None, 0
            for candidate in candidates:
                gain = len(candidate[1] & uncovered)
                if gain > best_gain:
                    best, best_gain = candidate, gain
            if best is None:
                break
            (_, _, constant, terms), hit_set = best
            chosen.append(_canonical(constant, [RelationTerm(c, f, b) for f, b, c in terms]))
            uncovered -= hit_set
        result.menus[(level, r)] = RelationMenu(level, r, tuple(chosen))
        result.uncovered[(level, r)] = sorted(m + i for i in uncovered)
    return result


def _residuals(target: list, columns: list[list], coeff_range: range):
    """Yield (coeffs, target - sum coeffs[j] * columns[j]) in product order.

    A stack holds the residual of each coefficient prefix, so a vector costs
    one column update per position that changed since the previous one.
    """
    stack = [target]
    previous = None
    for coeffs in itertools.product(coeff_range, repeat=len(columns)):
        j = 0
        if previous is not None:
            while coeffs[j] == previous[j]:
                j += 1
            del stack[j + 1:]
        for c, column in zip(coeffs[j:], columns[j:]):
            top = stack[-1]
            stack.append([v - c * x for v, x in zip(top, column)] if c else top)
        previous = coeffs
        yield coeffs, stack[-1]


@dataclass
class KernelReport:
    """Distinct truncated kernel vectors and their exact rank, per depth.

    Index d of either list covers all subsequences s(k^e n + r) with
    e <= d, each truncated to the first ``window`` values, so both counts
    are nondecreasing in d by construction. ``saturated_at`` is the first
    depth whose rank equals the window (None if none does): from there on
    the rank measures the window, not the sequence.
    """

    k: int
    depth: int
    window: int
    distinct_counts: list[int] = field(default_factory=list)
    ranks: list[int] = field(default_factory=list)
    saturated_at: int | None = None


def _echelon_insert(basis: dict[int, list[int]], row: list[int]) -> None:
    """Reduce an int row against the basis; insert it if independent.

    The basis maps each pivot to its row from the pivot on, leading entry
    nonzero. Elimination is fraction-free: cross-multiply to clear the
    leading entry, then divide by the gcd of what is left.
    """
    pivot = 0
    while True:
        skip = next((i for i, x in enumerate(row) if x), None)
        if skip is None:
            return
        pivot += skip
        row = row[skip:]
        brow = basis.get(pivot)
        if brow is None:
            basis[pivot] = row
            return
        lead, factor = brow[0], row[0]
        row = [lead * a - factor * b for a, b in zip(row[1:], brow[1:])]
        pivot += 1
        g = math.gcd(*row)
        if g > 1:
            row = [x // g for x in row]


def k_kernel(seq: IntSequence, k: int, depth: int, window: int = 64) -> KernelReport:
    """Enumerate truncated kernel vectors up to ``depth`` and rank them.

    A sequence with finitely many kernel vectors (or a kernel of bounded
    rational rank) will show both counts stabilizing as depth grows;
    unbounded growth over the window is evidence against that structure,
    never proof. Each vector is scaled by the lcm of its denominators, which
    keeps the rank, and eliminated over the integers; once the rank reaches
    the window no vector can raise it, so only distinct vectors are counted.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if window < 16:
        raise ValueError(f"window must be >= 16, got {window}")
    if k < 2:
        raise ValueError(f"base k must be >= 2, got {k}")
    _check_work("kernel", k, depth, window)
    report = KernelReport(k, depth, window)
    seen: set[tuple[int, ...]] = set()
    basis: dict[int, list[int]] = {}
    for d in range(depth + 1):
        stride = k**d
        for r in range(stride):
            vec = tuple(seq(stride * n + r) for n in range(window))
            if vec not in seen:
                seen.add(vec)
                if len(basis) < window:
                    scale = math.lcm(*(x.denominator for x in vec))
                    if scale == 1:  # reuse the int objects rather than copy them
                        row = [x.numerator for x in vec]
                    else:
                        row = [x.numerator * (scale // x.denominator) for x in vec]
                    _echelon_insert(basis, row)
        report.distinct_counts.append(len(seen))
        report.ranks.append(len(basis))
        if report.saturated_at is None and len(basis) == window:
            report.saturated_at = d
    return report
