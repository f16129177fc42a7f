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

Sequence = Callable[[int], object]  # n -> term, raising ValueError off its domain

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


def _read_columns(seq: Sequence, k: int, ns: range, keys) -> list[list]:
    """Columns [s(k^f n + b) for n in ns], one per (f, b) in keys.

    One ``map`` reads the keys' strided ranges interleaved, all keys at n
    before any at n + 1, as a per-index check reads them, so a sequence that
    is missing some index (a short b-file) fails on the same index. Slicing
    the flat list gives one column per key.
    """
    strided = [range(k**f * ns.start + b, k**f * ns.stop + b, k**f) for f, b in keys]
    flat = list(map(seq, itertools.chain.from_iterable(zip(*strided))))
    return [flat[j::len(keys)] for j in range(len(keys))]


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


def _resolve_menu(
    spec: QuasiRegularitySpec, menus: dict[tuple[int, int], RelationMenu], e: int, r: int
) -> RelationMenu:
    """Menu for level (e, r), composed upwards from the base and memoised in ``menus``.

    A level (e, r) with e > E+1 rewrites s(k^e n + r) = s(k^(e-1) M + r0)
    with M = k n + u, expands each option of the level-(e-1) menu at M, and
    substitutes base menus for any term whose exponent would exceed E.
    Substitution choices multiply out, so composed menus stay finite.
    """
    if (e, r) in menus:
        return menus[(e, r)]
    k, E = spec.k, spec.E
    if e <= E + 1:
        raise MissingMenuError(f"missing menu for level ({e}, {r})")
    u, r0 = divmod(r, k ** (e - 1))
    options: dict[AffineCombination, None] = {}  # insertion-ordered set
    for opt in _resolve_menu(spec, menus, e - 1, r0).options:
        # per term, its (constant, terms) choices once M = k n + u is substituted
        choices = []
        for t in opt.terms:
            b = k**t.f * u + t.b
            if t.f < E:
                choices.append([(0, [RelationTerm(t.coeff, t.f + 1, b)])])
            else:
                choices.append([
                    (t.coeff * sub.constant,
                     [RelationTerm(t.coeff * st.coeff, st.f, st.b) for st in sub.terms])
                    for sub in _resolve_menu(spec, menus, E + 1, b).options
                ])
        for picked in itertools.product(*choices):
            constant = opt.constant + sum(c for c, _ in picked)
            options[_canonical(constant, [t for _, ts in picked for t in ts])] = None
    menu = menus[(e, r)] = RelationMenu(e, r, tuple(options))
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
    seq: Sequence, spec: QuasiRegularitySpec, limit: int, depth: int = 3
) -> VerificationReport:
    """Check every menu level against the sequence for m <= n <= limit.

    Base menus (level E+1) must all be supplied; deeper levels up to
    E + depth are derived by composition unless supplied explicitly. Each
    s(k^f n + b) is read once per call into a column over [m, limit], and
    each distinct option's column is built once per call (keeping at most
    about WORK_LIMIT values). A level's first option lists its misses in one
    pass; each later option counts its hits and rechecks only those misses.
    """
    validate_spec(spec)
    if depth < 1:
        raise SpecError(f"depth must be >= 1, got {depth}")
    if limit < spec.m:
        raise SpecError(f"limit {limit} is below start index m = {spec.m}")
    _check_work("verify", spec.k, spec.E + depth, limit - spec.m + 1)
    menus = dict(spec.menus)
    report = VerificationReport(verified=True, depth=depth, checked_to=limit)
    k, m = spec.k, spec.m
    ns = range(m, limit + 1)
    columns: dict[tuple[int, int], list] = {}
    option_columns: dict[AffineCombination, list] = {}
    for e in range(spec.E + 1, spec.E + depth + 1):
        for r in range(k**e):
            menu = _resolve_menu(spec, menus, e, r)
            new = list(dict.fromkeys(
                (t.f, t.b) for opt in menu.options for t in opt.terms
                if (t.f, t.b) not in columns
            ))
            target, *read = _read_columns(seq, k, ns, [(e, r), *new])
            columns.update(zip(new, read))
            hits = []
            unmatched = None
            for opt in menu.options:
                values = option_columns.get(opt)
                if values is None:
                    values = _combination_column(opt, columns, len(ns))
                    if len(option_columns) * len(ns) < WORK_LIMIT:
                        option_columns[opt] = values
                if unmatched is None:
                    unmatched = list(
                        itertools.compress(itertools.count(), map(operator.ne, values, target)))
                    hits.append(len(ns) - len(unmatched))
                else:
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
    seq: Sequence,
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

    Whether a candidate hits index n depends only on the row of values
    (s(k^level n + r) and the basis at n), so the work runs on distinct rows,
    each weighted by its number of indices. When some option hits every
    index, the greedy would take the least such option and nothing else;
    it is found directly, stopping each coefficient vector at the first row
    that disagrees, and the enumeration is skipped. The search space
    span^size (span = 2 * coeff_bound + 1, size = basis terms plus the
    constant) must stay within WORK_LIMIT.
    """
    validate_spec(QuasiRegularitySpec(k, E, m, {}))
    if coeff_bound < 1:
        raise SpecError(f"coeff bound must be >= 1, got {coeff_bound}")
    if level <= E:
        raise SpecError(f"search level e = {level} must exceed E = {E}")
    if limit < m:
        raise SpecError(f"limit {limit} is below start index m = {m}")
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
        classes: dict[tuple, list[int]] = {}  # row -> the indices with that row
        for i, row in enumerate(zip(target, *columns)):
            classes.setdefault(row, []).append(i)
        rows = list(classes)
        full = min(_full_covers(rows, basis, coeff_range), default=None)
        if full is not None:
            chosen, uncovered = [full], []
        else:
            weights = [len(indices) for indices in classes.values()]
            chosen, uncovered = _greedy_cover(rows, weights, basis, coeff_range)
        result.menus[(level, r)] = RelationMenu(level, r, tuple(
            _canonical(constant, [RelationTerm(c, f, b) for f, b, c in terms])
            for _, _, constant, terms in chosen
        ))
        result.uncovered[(level, r)] = sorted(
            m + i for row in uncovered for i in classes[rows[row]]
        )
    return result


def _terms(coeffs, basis) -> tuple:
    """The (f, b, coeff) terms of a coefficient vector, zeros left out."""
    return tuple((f, b, c) for c, (f, b) in zip(coeffs, basis) if c)


def _key(constant: int, terms: tuple) -> tuple:
    """Tie-break key: fewer terms, then a smaller constant, then the terms themselves."""
    return (len(terms), abs(constant), constant, terms)


def _full_covers(rows: list[tuple], basis, coeff_range: range):
    """Yield the key of each candidate that hits every row.

    A row is (target, basis values). The constant is the first row's
    residual and must equal an int in ``coeff_range``, which is what the
    key holds. The first two rows are scored for every coefficient vector at
    once, in product order; a vector agreeing on both is then checked row by
    row up to the first that disagrees.
    """
    ints = {c: c for c in coeff_range}
    scored = [_product_residuals(row, coeff_range) for row in rows[:2]]
    vectors = itertools.product(coeff_range, repeat=len(basis))
    for coeffs, value, other in zip(vectors, scored[0], scored[-1]):
        if value != other or value not in ints:
            continue
        constant = ints[value]
        if all(row[0] - sum(map(operator.mul, coeffs, row[1:])) == constant
               for row in rows[2:]):
            yield _key(constant, _terms(coeffs, basis))


def _product_residuals(row: tuple, coeff_range: range) -> list:
    """row[0] - sum c[j] * row[j + 1] for every coefficient vector c, in product order."""
    values = [row[0]]
    for x in row[1:]:
        steps = [c * x for c in coeff_range]
        values = [v - step for v in values for step in steps]
    return values


def _greedy_cover(rows: list[tuple], weights: list[int], basis, coeff_range: range):
    """(chosen keys, rows left uncovered) of the greedy cover of weighted rows.

    Each round takes the candidate with the largest summed weight of newly
    hit rows, the least key among equals.
    """
    target, *columns = map(list, zip(*rows))
    # Rows hit -> the least key hitting exactly those rows: the gain depends
    # on the rows alone, so no other candidate with the same rows can win.
    least: dict[tuple[int, ...], tuple] = {}
    for coeffs, residual in _residuals(target, columns, coeff_range):
        # Rows by residual; a non-integer one (rational terms) is looked up
        # by no constant.
        buckets: dict = {}
        for row, value in enumerate(residual):
            if coeff_range[0] <= value <= coeff_range[-1]:
                buckets.setdefault(value, []).append(row)
        if not buckets:
            continue
        terms = _terms(coeffs, basis)
        for constant in coeff_range:
            hit = buckets.get(constant)
            if hit:
                key, hit = _key(constant, terms), tuple(hit)
                if hit not in least or key < least[hit]:
                    least[hit] = key
    candidates = sorted(((key, frozenset(hit)) for hit, key in least.items()),
                        key=lambda candidate: candidate[0])
    chosen: list[tuple] = []
    uncovered = set(range(len(rows)))
    while uncovered:
        # In key order, so the first candidate with the largest gain wins ties.
        best, best_gain = None, 0
        for candidate in candidates:
            gain = sum(map(weights.__getitem__, candidate[1] & uncovered))
            if gain > best_gain:
                best, best_gain = candidate, gain
        if best is None:
            break
        chosen.append(best[0])
        uncovered -= best[1]
    return chosen, uncovered


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


def k_kernel(seq: Sequence, k: int, depth: int, window: int = 64) -> KernelReport:
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
            vec = tuple(map(seq, range(r, stride * window + r, stride)))
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
