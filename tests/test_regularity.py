import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ddfa import regularity
from ddfa.documents import corpus_path, parse_spec_document, serialize_spec_document
from ddfa.regularity import (
    AffineCombination,
    MissingMenuError,
    QuasiRegularitySpec,
    RelationMenu,
    RelationTerm,
    SpecError,
    _combination_column,
    _read_columns,
    describe_combination,
    k_kernel,
    search_relation_menus,
    validate_spec,
    verify_quasi_k_regular,
)
from ddfa.sequences import b_file_text, builtin_sequence, read_b_file


def comb(constant, *terms):
    return AffineCombination(constant, tuple(RelationTerm(*t) for t in terms))


S_N = comb(0, (1, 0, 0))  # s(n)
ONE_MINUS = comb(1, (-1, 0, 0))  # 1 - s(n)


def tcal_spec():
    return QuasiRegularitySpec(2, 0, 0, {
        (1, 0): RelationMenu(1, 0, (S_N, ONE_MINUS)),
        (1, 1): RelationMenu(1, 1, (ONE_MINUS,)),
    })


def e_spec():
    s_odd = comb(0, (1, 1, 1))  # s(2n+1)
    return QuasiRegularitySpec(2, 1, 1, {
        (2, 0): RelationMenu(2, 0, (S_N,)),
        (2, 1): RelationMenu(2, 1, (S_N, comb(1, (2, 1, 1)))),
        (2, 2): RelationMenu(2, 2, (s_odd,)),
        (2, 3): RelationMenu(2, 3, (S_N, s_odd)),
    })


def t_singleton_spec():
    return QuasiRegularitySpec(2, 0, 0, {
        (1, 0): RelationMenu(1, 0, (S_N,)),
        (1, 1): RelationMenu(1, 1, (ONE_MINUS,)),
    })


def combination_value(seq, comb, n, k):
    """constant + sum coeff * seq(k^f n + b) at n, through the verifier's column code."""
    keys = sorted({(t.f, t.b) for t in comb.terms})
    columns = dict(zip(keys, _read_columns(seq, k, range(n, n + 1), keys)))
    return _combination_column(comb, columns, 1)[0]


class TestEvalCombination:
    def test_complement_on_tcal(self):
        assert combination_value(builtin_sequence("tcal"), ONE_MINUS, 2, 2) == 0  # tcal(2) = 1

    def test_identity(self):
        e = builtin_sequence("e")
        for n in (0, 3, 17):
            assert combination_value(e, S_N, n, 2) == e(n)

    def test_doubled_shifted_on_e(self):
        c = comb(1, (2, 1, 1))  # 2 s(2n+1) + 1
        assert combination_value(builtin_sequence("e"), c, 1, 2) == 7  # 2 e(3) + 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-5, 5), st.lists(
        st.tuples(st.integers(-5, 5), st.integers(0, 1), st.integers(0, 1)),
        max_size=4))
    def test_doubling_coefficients_is_linear(self, constant, raw_terms):
        terms = [(c, f, min(b, 2**f - 1)) for c, f, b in raw_terms]
        single = comb(constant, *terms)
        double = comb(constant, *[(2 * c, f, b) for c, f, b in terms])
        for n in range(8):
            lhs = combination_value(builtin_sequence("tcal"), double, n, 2) - constant
            rhs = 2 * (combination_value(builtin_sequence("tcal"), single, n, 2) - constant)
            assert lhs == rhs

    def test_describe(self):
        assert describe_combination(comb(1, (2, 1, 1)), 2) == "2*s(2n+1) + 1"
        assert describe_combination(ONE_MINUS, 2) == "-s(n) + 1"
        assert describe_combination(comb(5), 2) == "5"


class TestValidateSpec:
    def test_good_specs_pass(self):
        for spec in (tcal_spec(), e_spec(), t_singleton_spec()):
            validate_spec(spec)

    @pytest.mark.parametrize("name, spec", [
        ("tcal_quasi_spec.json", tcal_spec), ("e_quasi_spec.json", e_spec),
        ("t_singleton_spec.json", t_singleton_spec)])
    def test_shipped_spec_parses_to_the_spec_here(self, name, spec):
        # each shipped spec document is its own source; this pins its content
        text = corpus_path(name).read_text(encoding="utf-8")
        assert parse_spec_document(text) == spec()

    def test_tautological_menu_rejected(self):
        # s(2n) = s(2n) uses a term with f = 1 > E = 0
        spec = QuasiRegularitySpec(2, 0, 0, {
            (1, 0): RelationMenu(1, 0, (comb(0, (1, 1, 0)),)),
        })
        with pytest.raises(SpecError, match="exceeds E"):
            validate_spec(spec)

    def test_level_must_exceed_e(self):
        spec = QuasiRegularitySpec(2, 1, 0, {
            (1, 0): RelationMenu(1, 0, (S_N,)),
        })
        with pytest.raises(SpecError, match="must exceed"):
            validate_spec(spec)

    def test_empty_options_rejected(self):
        spec = QuasiRegularitySpec(2, 0, 0, {(1, 0): RelationMenu(1, 0, ())})
        with pytest.raises(SpecError, match="no options"):
            validate_spec(spec)

    def test_offset_out_of_range(self):
        spec = QuasiRegularitySpec(2, 0, 0, {(1, 5): RelationMenu(1, 5, (S_N,))})
        with pytest.raises(SpecError, match="out of range"):
            validate_spec(spec)

    def test_key_mismatch(self):
        spec = QuasiRegularitySpec(2, 0, 0, {(1, 0): RelationMenu(1, 1, (S_N,))})
        with pytest.raises(SpecError, match="keyed"):
            validate_spec(spec)


class TestVerify:
    def test_tcal_verified_to_depth_three(self):
        report = verify_quasi_k_regular(builtin_sequence("tcal"), tcal_spec(), 4096, 3)
        assert report.verified
        assert len(report.levels) == 2 + 4 + 8
        assert all(level.ok for level in report.levels.values())

    def test_tcal_both_base_options_used(self):
        report = verify_quasi_k_regular(builtin_sequence("tcal"), tcal_spec(), 4096, 1)
        assert all(h > 0 for h in report.levels[(1, 0)].option_hits)

    def test_e_spec_verified_with_both_options_used(self):
        report = verify_quasi_k_regular(builtin_sequence("e"), e_spec(), 4096, 3)
        assert report.verified
        for key in ((2, 1), (2, 3)):
            assert all(h > 0 for h in report.levels[key].option_hits)

    def test_constant_sequence_with_singleton_menus(self):
        spec = QuasiRegularitySpec(2, 0, 0, {
            (1, 0): RelationMenu(1, 0, (S_N,)),
            (1, 1): RelationMenu(1, 1, (S_N,)),
        })
        report = verify_quasi_k_regular(lambda n: 0, spec, 512, 3)
        assert report.verified

    def test_missing_base_menu_raises(self):
        spec = QuasiRegularitySpec(2, 0, 0, {
            (1, 0): RelationMenu(1, 0, (S_N, ONE_MINUS)),
        })
        with pytest.raises(MissingMenuError, match=r"\(1, 1\)"):
            verify_quasi_k_regular(builtin_sequence("tcal"), spec, 256, 1)

    def test_failure_recorded_with_first_n(self):
        spec = QuasiRegularitySpec(2, 0, 0, {
            (1, 0): RelationMenu(1, 0, (S_N,)),  # wrong: tcal(2n) flips on primes
            (1, 1): RelationMenu(1, 1, (ONE_MINUS,)),
        })
        report = verify_quasi_k_regular(builtin_sequence("tcal"), spec, 256, 1)
        assert not report.verified
        level = report.levels[(1, 0)]
        assert level.first_failure == 2  # smallest prime
        assert level.option_hits[0] > 0

    def test_derived_menus_recorded(self):
        report = verify_quasi_k_regular(builtin_sequence("tcal"), tcal_spec(), 256, 2)
        menu = report.levels[(2, 3)].menu
        # tcal(4n+3) = 1 - tcal(2n+1) = tcal(n): composition collapses to s(n)
        assert menu.options == (S_N,)

    def test_limit_below_m_rejected(self):
        with pytest.raises(SpecError, match="below start"):
            verify_quasi_k_regular(builtin_sequence("e"), e_spec(), 0, 1)

    def test_work_over_limit_rejected(self):
        def unread(n):
            raise RuntimeError("work started")

        # 2 residues * 1_000_000 indices is exactly the limit, one more index is over
        with pytest.raises(RuntimeError, match="work started"):
            verify_quasi_k_regular(unread, t_singleton_spec(), 999_999, 1)
        with pytest.raises(SpecError, match=r"2\^1 \* 1000001 evaluations"):
            verify_quasi_k_regular(unread, t_singleton_spec(), 1_000_000, 1)


# Every menu verify derives above the base level for the shipped specs, as
# (constant, ((coeff, f, b), ...)) per option, in the order composition gives.
COMPOSED_MENUS = {
    "e": {
        (3, 0): [(0, ((1, 1, 0),))],
        (3, 1): [(0, ((1, 1, 0),)), (1, ((2, 0, 0),)), (3, ((4, 1, 1),))],
        (3, 2): [(0, ((1, 0, 0),)), (1, ((2, 1, 1),))],
        (3, 3): [(0, ((1, 1, 0),)), (0, ((1, 0, 0),)), (1, ((2, 1, 1),))],
        (3, 4): [(0, ((1, 1, 1),))],
        (3, 5): [(0, ((1, 1, 1),)), (1, ((2, 0, 0),)), (1, ((2, 1, 1),))],
        (3, 6): [(0, ((1, 0, 0),)), (0, ((1, 1, 1),))],
        (3, 7): [(0, ((1, 1, 1),)), (0, ((1, 0, 0),))],
        (4, 0): [(0, ((1, 0, 0),))],
        (4, 1): [(0, ((1, 0, 0),)), (1, ((2, 1, 0),)), (3, ((4, 0, 0),)),
                 (7, ((8, 1, 1),))],
        (4, 2): [(0, ((1, 1, 0),)), (1, ((2, 0, 0),)), (3, ((4, 1, 1),))],
        (4, 3): [(0, ((1, 0, 0),)), (0, ((1, 1, 0),)), (1, ((2, 0, 0),)),
                 (3, ((4, 1, 1),))],
        (4, 4): [(0, ((1, 0, 0),)), (1, ((2, 1, 1),))],
        (4, 5): [(0, ((1, 0, 0),)), (1, ((2, 1, 1),)), (1, ((2, 1, 0),)),
                 (1, ((2, 0, 0),)), (3, ((4, 1, 1),))],
        (4, 6): [(0, ((1, 1, 0),)), (0, ((1, 0, 0),)), (1, ((2, 1, 1),))],
        (4, 7): [(0, ((1, 0, 0),)), (1, ((2, 1, 1),)), (0, ((1, 1, 0),))],
        (4, 8): [(0, ((1, 1, 1),))],
        (4, 9): [(0, ((1, 1, 1),)), (1, ((2, 1, 1),)), (3, ((4, 0, 0),)),
                 (3, ((4, 1, 1),))],
        (4, 10): [(0, ((1, 1, 1),)), (1, ((2, 0, 0),)), (1, ((2, 1, 1),))],
        (4, 11): [(0, ((1, 1, 1),)), (1, ((2, 0, 0),)), (1, ((2, 1, 1),))],
        (4, 12): [(0, ((1, 0, 0),)), (0, ((1, 1, 1),))],
        (4, 13): [(0, ((1, 0, 0),)), (0, ((1, 1, 1),)), (1, ((2, 1, 1),)),
                  (1, ((2, 0, 0),))],
        (4, 14): [(0, ((1, 1, 1),)), (0, ((1, 0, 0),))],
        (4, 15): [(0, ((1, 0, 0),)), (0, ((1, 1, 1),))],
    },
    "tcal": {
        (2, 0): [(0, ((1, 0, 0),)), (1, ((-1, 0, 0),))],
        (2, 1): [(1, ((-1, 0, 0),)), (0, ((1, 0, 0),))],
        (2, 2): [(1, ((-1, 0, 0),)), (0, ((1, 0, 0),))],
        (2, 3): [(0, ((1, 0, 0),))],
        (3, 0): [(0, ((1, 0, 0),)), (1, ((-1, 0, 0),))],
        (3, 1): [(1, ((-1, 0, 0),)), (0, ((1, 0, 0),))],
        (3, 2): [(1, ((-1, 0, 0),)), (0, ((1, 0, 0),))],
        (3, 3): [(0, ((1, 0, 0),)), (1, ((-1, 0, 0),))],
        (3, 4): [(1, ((-1, 0, 0),)), (0, ((1, 0, 0),))],
        (3, 5): [(0, ((1, 0, 0),)), (1, ((-1, 0, 0),))],
        (3, 6): [(0, ((1, 0, 0),)), (1, ((-1, 0, 0),))],
        (3, 7): [(1, ((-1, 0, 0),))],
    },
}


class TestComposedMenus:
    @pytest.mark.parametrize("name", sorted(COMPOSED_MENUS))
    def test_options_and_order_pinned(self, name):
        spec = parse_spec_document(
            corpus_path(f"{name}_quasi_spec.json").read_text(encoding="utf-8"))
        report = verify_quasi_k_regular(builtin_sequence(name), spec, 64, 3)
        derived = {
            key: [(opt.constant, tuple((t.coeff, t.f, t.b) for t in opt.terms))
                  for opt in level.menu.options]
            for key, level in report.levels.items() if key[0] >= spec.E + 2
        }
        assert derived == COMPOSED_MENUS[name]


class TestKRegularSpecialCase:
    """m = 0 and one option per menu make a spec a flat relation list."""

    def test_thue_morse_spec_is_a_flat_relation_list(self):
        spec = t_singleton_spec()
        assert verify_quasi_k_regular(builtin_sequence("t"), spec, 4096, 3).verified
        assert spec.m == 0
        assert {key: menu.options for key, menu in spec.menus.items()} == {
            (1, 0): (S_N,), (1, 1): (ONE_MINUS,)}

    def test_multi_option_menu_is_not_flat(self):
        spec = tcal_spec()
        assert verify_quasi_k_regular(builtin_sequence("tcal"), spec, 1024, 1).verified
        assert spec.m == 0
        assert len(spec.menus[(1, 0)].options) == 2

    def test_nonzero_start_is_not_flat(self):
        spec = e_spec()
        assert verify_quasi_k_regular(builtin_sequence("e"), spec, 1024, 1).verified
        assert spec.m == 1


class TestSearch:
    def test_recovers_tcal_menus(self):
        found = search_relation_menus(builtin_sequence("tcal"), 2, 0, 0, 1, 1, 1024)
        assert found.complete
        assert found.menus[(1, 0)].options == (S_N, ONE_MINUS)
        assert found.menus[(1, 1)].options == (ONE_MINUS,)

    def test_recovers_thue_morse_singletons(self):
        found = search_relation_menus(builtin_sequence("t"), 2, 0, 0, 1, 1, 1024)
        assert found.complete
        assert found.menus[(1, 0)].options == (S_N,)
        assert found.menus[(1, 1)].options == (ONE_MINUS,)

    def test_constant_sequence_prefers_bare_constant(self):
        found = search_relation_menus(lambda n: 5, 2, 0, 0, 1, 5, 256)
        assert found.complete
        for menu in found.menus.values():
            assert menu.options == (comb(5),)

    def test_search_result_reverifies(self):
        found = search_relation_menus(builtin_sequence("tcal"), 2, 0, 0, 1, 1, 1024)
        report = verify_quasi_k_regular(builtin_sequence("tcal"), found.to_spec(), 1024, 1)
        assert report.verified

    def test_uncoverable_sequence_reported(self):
        found = search_relation_menus(lambda n: n, 2, 0, 0, 1, 1, 40)
        assert not found.complete
        assert found.uncovered[(1, 0)]  # identity sequence outgrows every option
        with pytest.raises(SpecError, match="uncovered"):
            found.to_spec()

    def test_bad_parameters_rejected(self):
        seq = builtin_sequence("t")
        with pytest.raises(SpecError):
            search_relation_menus(seq, 2, 0, 0, 1, 0, 64)
        with pytest.raises(SpecError):
            search_relation_menus(seq, 2, 1, 0, 1, 1, 64)
        with pytest.raises(SpecError, match="too large"):
            search_relation_menus(seq, 2, 3, 0, 4, 9, 64)
        with pytest.raises(SpecError, match="too large"):
            search_relation_menus(seq, 2, 30, 0, 31, 8, 64)
        with pytest.raises(SpecError, match="base k"):
            search_relation_menus(seq, 1, 0, 0, 1, 1, 64)
        with pytest.raises(SpecError, match=r"2\^1000000000 \* 5 evaluations"):
            search_relation_menus(seq, 2, 0, 0, 10**9, 1, 4)


class TestKernel:
    def test_thue_morse_two_vectors(self):
        report = k_kernel(builtin_sequence("t"), 2, 6, 64)
        assert report.distinct_counts == [1, 2, 2, 2, 2, 2, 2]
        assert report.ranks == [1, 2, 2, 2, 2, 2, 2]

    def test_thue_morse_oracle_agrees(self):
        # oracle: s(2^e n + r) has parity of n shifted by the parity of r,
        # so every kernel vector is the base sequence or its complement
        t = builtin_sequence("t")
        base = tuple(t(n) for n in range(64))
        complement = tuple(1 - x for x in base)
        vectors = set()
        for e in range(7):
            for r in range(2**e):
                vectors.add(tuple(t(2**e * n + r) for n in range(64)))
        assert vectors == {base, complement}

    def test_tcal_strictly_increasing(self):
        report = k_kernel(builtin_sequence("tcal"), 2, 6, 64)
        counts = report.distinct_counts
        assert all(counts[d] < counts[d + 1] for d in range(1, 6))

    def test_constant_sequence_single_vector(self):
        report = k_kernel(lambda n: 3, 2, 4, 32)
        assert report.distinct_counts == [1] * 5
        assert report.ranks == [1] * 5

    def test_rank_bounded_by_distinct_and_monotone(self):
        for name in ("t", "tcal", "e"):
            report = k_kernel(builtin_sequence(name), 2, 5, 32)
            for d in range(len(report.ranks)):
                assert report.ranks[d] <= report.distinct_counts[d]
            assert all(
                report.ranks[d] <= report.ranks[d + 1]
                for d in range(len(report.ranks) - 1)
            )
            assert all(
                report.distinct_counts[d] <= report.distinct_counts[d + 1]
                for d in range(len(report.ranks) - 1)
            )

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            k_kernel(builtin_sequence("t"), 2, 0, 64)
        with pytest.raises(ValueError):
            k_kernel(builtin_sequence("t"), 2, 3, 8)
        for k in (1, 0, -2):
            with pytest.raises(ValueError, match="base k"):
                k_kernel(builtin_sequence("t"), k, 3, 64)
        with pytest.raises(ValueError, match=r"2\^40 \* 64 evaluations, over the limit"):
            k_kernel(builtin_sequence("t"), 2, 40, 64)


# Plain references: the per-index verify loop, the search that re-scans the
# data for every constant, and rational Gaussian elimination.


def reference_levels(seq, report, k, m, limit):
    """(option_hits, first_failure) per level, each option evaluated index by index."""
    levels = {}
    for key, level in report.levels.items():
        stride = k**level.e
        hits = [0] * len(level.menu.options)
        first_failure = None
        for n in range(m, limit + 1):
            value = seq(stride * n + level.r)
            matched = False
            for i, opt in enumerate(level.menu.options):
                if opt.constant + sum(
                        t.coeff * seq(k**t.f * n + t.b) for t in opt.terms) == value:
                    hits[i] += 1
                    matched = True
            if not matched and first_failure is None:
                first_failure = n
        levels[key] = (hits, first_failure)
    return levels


def reference_search(seq, k, E, m, level, coeff_bound, limit):
    """(menus, uncovered) from scanning every candidate and constant separately."""
    basis = [(f, b) for f in range(E + 1) for b in range(k**f)]
    ns = range(m, limit + 1)
    rows = [[seq(k**f * n + b) for f, b in basis] for n in ns]
    coeff_range = range(-coeff_bound, coeff_bound + 1)
    menus, uncovered_by_level = {}, {}
    for r in range(k**level):
        targets = [seq(k**level * n + r) for n in ns]
        candidates = []
        for coeffs in itertools.product(coeff_range, repeat=len(basis)):
            for constant in coeff_range:
                hit_set = {
                    i for i, row in enumerate(rows)
                    if constant + sum(c * x for c, x in zip(coeffs, row)) == targets[i]
                }
                if hit_set:
                    terms = [RelationTerm(c, f, b) for c, (f, b) in zip(coeffs, basis) if c]
                    candidates.append((AffineCombination(constant, tuple(terms)), hit_set))
        chosen, uncovered = [], set(range(len(rows)))
        while True:
            scored = [
                (-len(hit_set & uncovered), len(opt.terms), abs(opt.constant), opt.constant,
                 tuple((t.f, t.b, t.coeff) for t in opt.terms), opt, hit_set)
                for opt, hit_set in candidates if hit_set & uncovered
            ]
            if not uncovered or not scored:
                break
            best = min(scored, key=lambda item: item[:5])
            chosen.append(best[5])
            uncovered -= best[6]
        menus[(level, r)] = RelationMenu(level, r, tuple(chosen))
        uncovered_by_level[(level, r)] = sorted(m + i for i in uncovered)
    return menus, uncovered_by_level


def fraction_echelon_insert(basis, vec):
    """Reduce vec over Fraction rows against the echelon basis; insert if independent."""
    row = [Fraction(x) for x in vec]
    for pivot, brow in basis:
        factor = row[pivot]
        if factor:
            row = [a - factor * b for a, b in zip(row, brow)]
    for pivot, value in enumerate(row):
        if value:
            basis.append((pivot, [a / value for a in row]))
            basis.sort(key=lambda item: item[0])
            return


def reference_kernel(seq, k, depth, window):
    """(distinct counts, ranks) per depth, every distinct vector eliminated."""
    seen, basis = set(), []
    counts, ranks = [], []
    for d in range(depth + 1):
        for r in range(k**d):
            vec = tuple(seq(k**d * n + r) for n in range(window))
            if vec not in seen:
                seen.add(vec)
                fraction_echelon_insert(basis, vec)
        counts.append(len(seen))
        ranks.append(len(basis))
    return counts, ranks


class TestVerifyMatchesPerIndexReference:
    @pytest.mark.parametrize("name,spec,limit,depth", [
        ("e", e_spec(), 300, 3),
        ("e", e_spec(), 1, 2),
        ("tcal", tcal_spec(), 257, 3),
        ("tcal", t_singleton_spec(), 200, 2),  # fails
        ("e", tcal_spec(), 100, 2),
        ("a", e_spec(), 60, 2),
        ("t", QuasiRegularitySpec(2, 0, 3, t_singleton_spec().menus), 90, 3),
    ])
    def test_hits_and_first_failure_equal(self, name, spec, limit, depth):
        seq = builtin_sequence(name)
        report = verify_quasi_k_regular(seq, spec, limit, depth)
        expected = reference_levels(seq, report, spec.k, spec.m, limit)
        got = {key: (level.option_hits, level.first_failure)
               for key, level in report.levels.items()}
        assert got == expected
        assert report.verified == all(f is None for _, f in expected.values())

    # A work limit of 1000 leaves room for 9 cached option columns of 101
    # values, fewer than the levels list, so later options are rebuilt.
    @pytest.mark.parametrize("work_limit", [regularity.WORK_LIMIT, 1000])
    def test_failing_three_option_menus_with_overlapping_misses(self, work_limit, monkeypatch):
        monkeypatch.setattr(regularity, "WORK_LIMIT", work_limit)
        seq = builtin_sequence("tcal")
        spec = QuasiRegularitySpec(2, 0, 0, {
            (1, 0): RelationMenu(1, 0, (comb(0), comb(2, (-1, 0, 0)), comb(-1, (1, 0, 0)))),
            (1, 1): RelationMenu(1, 1, (comb(0), comb(1), S_N)),
        })
        report = verify_quasi_k_regular(seq, spec, 100, 3)
        expected = reference_levels(seq, report, 2, 0, 100)
        assert {key: (level.option_hits, level.first_failure)
                for key, level in report.levels.items()} == expected
        assert not report.verified
        assert any(level.first_failure is None for level in report.levels.values())
        partial = False
        for level in report.levels.values():
            misses = [{n for n in range(101)
                       if opt.constant + sum(t.coeff * seq(2**t.f * n + t.b) for t in opt.terms)
                       != seq(2**level.e * n + level.r)}
                      for opt in level.menu.options]
            partial |= any(a & b and a != b for a, b in itertools.combinations(misses, 2))
        assert partial
        listed = [opt for level in report.levels.values() for opt in level.menu.options]
        assert max(map(listed.count, listed)) >= 3
        assert len(set(listed)) > 9

    def test_singleton_spec_fails_on_tcal(self):
        report = verify_quasi_k_regular(builtin_sequence("tcal"), t_singleton_spec(), 200, 2)
        assert not report.verified
        assert report.levels[(1, 0)].first_failure is not None

    def test_b_file_with_gaps_fails_on_the_per_index_first_missing(self):
        full = builtin_sequence("e")
        gaps = {7, 200}  # s(n) misses 7 at n = 7 before s(4n) misses 200 at n = 50
        text = "".join(f"{n} {full(n)}\n" for n in range(301) if n not in gaps)
        missing = []

        def recording(n):
            if n in gaps and not missing:
                missing.append(n)
            return full(n)

        reference_levels(recording, verify_quasi_k_regular(full, e_spec(), 60, 2), 2, 1, 60)
        assert missing == [7]
        with pytest.raises(ValueError, match="index 7 not present"):
            verify_quasi_k_regular(read_b_file(text), e_spec(), 60, 2)


class TestReadOrder:
    @staticmethod
    def recording(reads):
        def seq(n):
            reads.append(n)
            return n % 3
        return seq

    def test_read_columns_reads_every_key_at_n_before_n_plus_one(self):
        reads = []
        keys = [(2, 3), (0, 0), (1, 1), (3, 5)]
        columns = _read_columns(self.recording(reads), 2, range(4, 9), keys)
        assert reads == [2**f * n + b for n in range(4, 9) for f, b in keys]
        assert columns == [[(2**f * n + b) % 3 for n in range(4, 9)] for f, b in keys]

    def test_k_kernel_reads_by_depth_then_residue_then_index(self):
        reads = []
        k_kernel(self.recording(reads), 3, 2, 16)
        assert reads == [3**d * n + r for d in range(3) for r in range(3**d) for n in range(16)]


def seeded_b_file(seed, draw):
    rng = random.Random(seed)
    return read_b_file("".join(f"{n} {draw(rng)}\n" for n in range(512)))


# Rational terms, and b-files with few rows (high multiplicity) or one per index.
FEW_ROWS_OR_RATIONAL = {
    "half": lambda n: Fraction(1, 2),
    "three_halves_plus_parity": lambda n: Fraction(3, 2) + n % 2,
    "a": builtin_sequence("a"),
    "d": builtin_sequence("d"),
    "b_file_few_values": seeded_b_file(17, lambda rng: rng.choice((0, 1, 1, 1))),
    "b_file_distinct_values": seeded_b_file(18, lambda rng: rng.randrange(10**9)),
}


class TestSearchMatchesReference:
    @pytest.mark.parametrize("name", ["t", "tcal", "b", "e"])
    @pytest.mark.parametrize("coeff_bound,m,limit", [(1, 0, 64), (2, 0, 64), (2, 3, 40)])
    def test_menus_uncovered_and_document_equal(self, name, coeff_bound, m, limit):
        seq = builtin_sequence(name)
        found = search_relation_menus(seq, 2, 1, m, 2, coeff_bound, limit)
        menus, uncovered = reference_search(seq, 2, 1, m, 2, coeff_bound, limit)
        assert found.menus == menus
        assert found.uncovered == uncovered
        assert serialize_spec_document(QuasiRegularitySpec(2, 1, m, found.menus)) == \
            serialize_spec_document(QuasiRegularitySpec(2, 1, m, menus))

    def test_rational_sequence_matches_reference(self):
        seq = builtin_sequence("a")
        found = search_relation_menus(seq, 2, 1, 0, 2, 1, 40)
        assert (found.menus, found.uncovered) == reference_search(seq, 2, 1, 0, 2, 1, 40)

    @pytest.mark.parametrize("name", sorted(FEW_ROWS_OR_RATIONAL))
    @pytest.mark.parametrize("E", [0, 1])
    @pytest.mark.parametrize("coeff_bound", [1, 2])
    @pytest.mark.parametrize("m", [0, 3])
    def test_rational_and_b_file_sequences(self, name, E, coeff_bound, m):
        self.check(FEW_ROWS_OR_RATIONAL[name], E, m, E + 1, coeff_bound, 20)

    def test_few_values_b_file_at_e2(self):
        self.check(FEW_ROWS_OR_RATIONAL["b_file_few_values"], 2, 0, 3, 1, 8)

    @staticmethod
    def check(seq, E, m, level, coeff_bound, limit):
        found = search_relation_menus(seq, 2, E, m, level, coeff_bound, limit)
        assert (found.menus, found.uncovered) == \
            reference_search(seq, 2, E, m, level, coeff_bound, limit)
        for menu in found.menus.values():
            assert all(type(opt.constant) is int for opt in menu.options)

    def test_half_constant_is_no_integer_constant(self):
        # Every index is hit by s(n) and by the rational 1/2, which no
        # integer constant in the range equals: the cover is s(n).
        found = search_relation_menus(lambda n: Fraction(1, 2), 2, 1, 0, 2, 1, 40)
        assert found.complete
        for menu in found.menus.values():
            assert menu.options == (S_N,)


def distinct_rows(seq, E, m, level, r, limit):
    """The set of rows (s(2^level n + r), basis values at n) over [m, limit]."""
    basis = [(f, b) for f in range(E + 1) for b in range(2**f)]
    return {(seq(2**level * n + r), *(seq(2**f * n + b) for f, b in basis))
            for n in range(m, limit + 1)}


class TestSearchWork:
    @pytest.fixture
    def residual_calls(self, monkeypatch):
        """Per _residuals call, (len(target), the largest residual's length)."""
        calls = []
        original = regularity._residuals

        def counting(target, columns, coeff_range):
            calls.append([len(target), 0])
            for coeffs, residual in original(target, columns, coeff_range):
                calls[-1][1] = max(calls[-1][1], len(residual))
                yield coeffs, residual

        monkeypatch.setattr(regularity, "_residuals", counting)
        return calls

    def test_full_cover_everywhere_enumerates_nothing(self, residual_calls):
        found = search_relation_menus(builtin_sequence("t"), 2, 1, 0, 2, 2, 128)
        assert found.complete
        assert all(len(menu.options) == 1 for menu in found.menus.values())
        assert residual_calls == []

    def test_enumerates_only_multi_option_residues_on_distinct_rows(self, residual_calls):
        seq = builtin_sequence("tcal")
        found = search_relation_menus(seq, 2, 1, 0, 2, 2, 128)
        multi = [r for (_, r), menu in sorted(found.menus.items()) if len(menu.options) > 1]
        assert multi == [0, 2]
        assert len(residual_calls) == 2
        for r, (targets, longest) in zip(multi, residual_calls):
            rows = len(distinct_rows(seq, 1, 0, 2, r, 128))
            assert targets == rows < 129
            assert longest <= rows


class TestKernelMatchesFractionReference:
    @pytest.mark.parametrize("name,depth,window", [
        ("t", 8, 16), ("t", 8, 64),
        ("tcal", 8, 16), ("tcal", 7, 64),  # both saturate
        ("tcal", 3, 16), ("tcal", 5, 64),  # fewer vectors than the window
        ("b", 8, 16), ("b", 6, 64),
        ("e", 8, 16), ("e", 6, 64),
        ("a", 6, 16), ("d", 6, 64),  # rational terms
    ])
    def test_builtin(self, name, depth, window):
        self.check(builtin_sequence(name), depth, window)

    def test_rational_b_file(self):
        self.check(read_b_file(b_file_text(builtin_sequence("a"), 1024)), 6, 16)

    def test_mixed_denominator_b_file(self):
        text = "".join(f"{n} {Fraction(n * n + 1, n % 7 + 1)}\n" for n in range(1024))
        self.check(read_b_file(text), 6, 16)

    @staticmethod
    def check(seq, depth, window):
        report = k_kernel(seq, 2, depth, window)
        counts, ranks = reference_kernel(seq, 2, depth, window)
        assert report.distinct_counts == counts
        assert report.ranks == ranks
        saturated = [d for d, rank in enumerate(ranks) if rank == window]
        assert report.saturated_at == (saturated[0] if saturated else None)

