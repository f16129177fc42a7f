import pytest
from hypothesis import given, settings, strategies as st

from ddfa.regularity import (
    AffineCombination,
    KRegularityCertificate,
    MissingMenuError,
    QuasiRegularitySpec,
    RelationMenu,
    RelationTerm,
    SingletonRefusal,
    SpecError,
    certificate_as_spec,
    describe_combination,
    eval_combination,
    k_kernel,
    search_relation_menus,
    singleton_reduction,
    validate_spec,
    verify_quasi_k_regular,
)
from ddfa.sequences import builtin_sequence, e_sequence, t_sequence, thue_morse


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


class TestEvalCombination:
    def test_complement_on_tcal(self):
        assert eval_combination(t_sequence, ONE_MINUS, 2, 2) == 0  # tcal(2) = 1

    def test_identity(self):
        for n in (0, 3, 17):
            assert eval_combination(e_sequence, S_N, n, 2) == e_sequence(n)

    def test_doubled_shifted_on_e(self):
        c = comb(1, (2, 1, 1))  # 2 s(2n+1) + 1
        assert eval_combination(e_sequence, c, 1, 2) == 7  # 2 e(3) + 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-5, 5), st.lists(
        st.tuples(st.integers(-5, 5), st.integers(0, 1), st.integers(0, 1)),
        max_size=4))
    def test_doubling_coefficients_is_linear(self, constant, raw_terms):
        terms = [(c, f, min(b, 2**f - 1)) for c, f, b in raw_terms]
        single = comb(constant, *terms)
        double = comb(constant, *[(2 * c, f, b) for c, f, b in terms])
        for n in range(8):
            lhs = eval_combination(t_sequence, double, n, 2) - constant
            rhs = 2 * (eval_combination(t_sequence, single, n, 2) - constant)
            assert lhs == rhs

    def test_describe(self):
        assert describe_combination(comb(1, (2, 1, 1)), 2) == "2*s(2n+1) + 1"
        assert describe_combination(ONE_MINUS, 2) == "-s(n) + 1"
        assert describe_combination(comb(5), 2) == "5"


class TestValidateSpec:
    def test_good_specs_pass(self):
        for spec in (tcal_spec(), e_spec(), t_singleton_spec()):
            validate_spec(spec)

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


class TestSingletonReduction:
    def test_thue_morse_certificate_and_replay(self):
        spec = t_singleton_spec()
        report = verify_quasi_k_regular(builtin_sequence("t"), spec, 4096, 3)
        assert report.verified
        cert = singleton_reduction(spec, report)
        assert isinstance(cert, KRegularityCertificate)
        assert cert.relations == ((1, 0, S_N), (1, 1, ONE_MINUS))
        replay = verify_quasi_k_regular(
            builtin_sequence("t"), certificate_as_spec(cert), 4096, 3
        )
        assert replay.verified

    def test_multi_option_menu_refused(self):
        spec = tcal_spec()
        report = verify_quasi_k_regular(builtin_sequence("tcal"), spec, 1024, 1)
        refusal = singleton_reduction(spec, report)
        assert isinstance(refusal, SingletonRefusal)
        assert "2 options" in refusal.reason

    def test_nonzero_start_refused(self):
        spec = e_spec()
        report = verify_quasi_k_regular(builtin_sequence("e"), spec, 1024, 1)
        refusal = singleton_reduction(spec, report)
        assert isinstance(refusal, SingletonRefusal)
        assert "m = 1" in refusal.reason

    def test_unverified_report_rejected(self):
        spec = t_singleton_spec()
        report = verify_quasi_k_regular(builtin_sequence("t"), spec, 64, 1)
        report.verified = False
        with pytest.raises(ValueError, match="verified"):
            singleton_reduction(spec, report)


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
        base = tuple(thue_morse(n) for n in range(64))
        complement = tuple(1 - x for x in base)
        vectors = set()
        for e in range(7):
            for r in range(2**e):
                vectors.add(tuple(thue_morse(2**e * n + r) for n in range(64)))
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
