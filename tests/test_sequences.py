import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ddfa.automata import build_tm_dfa
from ddfa.discharge import build_fr_ddfao, build_tm_ddfa
from ddfa.documents import corpus_path, parse_spec_document
from ddfa.regularity import verify_quasi_k_regular
from ddfa.sequences import (
    Sequence,
    a131271_triangle,
    a_recursion,
    b_file_text,
    builtin_sequence,
    d_shape_closed_form,
    e_sequence,
    final_charge_sequence,
    modified_b_sequence,
    numerator_sequence,
    read_b_file,
    reduced_value_sequence,
    scaled_charge_sequence,
    t_sequence,
    thue_morse,
)

F = Fraction

# frozen reference prefixes (exact values, cross-checked against both routes)
A_PREFIX = [F(p, q) for p, q in [
    (1, 2), (1, 2), (1, 4), (3, 4), (1, 8), (7, 8), (3, 8), (5, 8),
    (1, 16), (15, 16), (7, 16), (9, 16), (3, 16), (13, 16), (5, 16),
]]
B_PREFIX = [1, 1, 1, 3, 1, 7, 3, 5, 1, 15, 7, 9, 3, 13, 5, 11, 1, 31, 15, 17, 7, 25, 9, 23, 3]
MODIFIED_B_PREFIX = [1, 1, 2, 1, 4, 2, 3, 1, 8, 4, 5, 2, 7, 3, 6, 1, 16, 8, 9]
D_PREFIX = [F(p, q) for p, q in [
    (1, 2), (1, 2), (1, 4), (3, 4), (1, 8), (7, 8), (3, 4), (3, 4),
    (1, 16), (15, 16), (7, 8), (7, 8), (3, 4), (3, 4), (3, 4), (3, 4), (1, 32),
]]
E_PREFIX = [1, 1, 1, 3, 1, 7, 3, 3, 1, 15, 7, 7, 3, 3, 3, 3, 1, 31, 15]
TCAL_PREFIX = [0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0]
T_PREFIX = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1]


class TestARecursion:
    def test_prefix(self):
        assert [a_recursion(n) for n in range(15)] == A_PREFIX

    @pytest.mark.parametrize("n,expected", [(2, F(1, 4)), (3, F(3, 4)), (10, F(7, 16))])
    def test_known_values(self, n, expected):
        assert a_recursion(n) == expected

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            a_recursion(-1)

    def test_matches_simulation_below_2_10(self):
        sim = final_charge_sequence(build_tm_ddfa())
        for n in range(2**10):
            assert sim(n) == a_recursion(n)


class TestNumerators:
    def test_b_prefix(self):
        sim = final_charge_sequence(build_tm_ddfa())
        assert numerator_sequence(sim).prefix(25) == B_PREFIX

    def test_e_prefix_from_automaton(self):
        sim = final_charge_sequence(build_fr_ddfao())
        assert numerator_sequence(sim).prefix(19) == E_PREFIX

    def test_numerator_of_integer_one(self):
        seq = Sequence(lambda n: F(1))
        assert numerator_sequence(seq)(7) == 1

    def test_every_b_odd_below_2_16(self):
        for n in range(2**16):
            assert a_recursion(n).numerator % 2 == 1


class TestModifiedB:
    def test_prefix(self):
        assert [modified_b_sequence(n) for n in range(1, 20)] == MODIFIED_B_PREFIX

    @pytest.mark.parametrize("n,expected", [(1, 1), (5, 4)])
    def test_known_values(self, n, expected):
        assert modified_b_sequence(n) == expected

    def test_zero_not_in_domain(self):
        with pytest.raises(ValueError):
            modified_b_sequence(0)

    def test_halves_an_odd_numerator_below_2_12(self):
        # (b + 1) // 2 is exact only because every b(n) is odd
        for n in range(1, 2**12):
            assert 2 * modified_b_sequence(n) - 1 == a_recursion(n).numerator


class TestTriangle:
    def test_row_zero(self):
        assert a131271_triangle(0).rows == ((1,),)

    def test_row_two(self):
        assert a131271_triangle(2).rows[2] == (1, 4, 2, 3)

    def test_row_three(self):
        # oracle: two manual passes of the interleave-and-reflect step
        # from row 2 = (1, 4, 2, 3) with 2^3 + 1 = 9 as the reflector
        assert a131271_triangle(3).rows[3] == (1, 8, 4, 5, 2, 7, 3, 6)

    def test_rows_are_permutations(self):
        triangle = a131271_triangle(8)
        for n, row in enumerate(triangle.rows):
            assert sorted(row) == list(range(1, 2**n + 1))

    def test_first_column_is_one(self):
        for row in a131271_triangle(8).rows:
            assert row[0] == 1

    def test_flatten_matches_shifted_modified_b(self):
        flat = a131271_triangle(6).flatten()
        assert flat == [modified_b_sequence(i + 1) for i in range(len(flat))]

    def test_flat_producer_matches_rows(self):
        seq = builtin_sequence("a131271")
        assert seq.prefix(127) == a131271_triangle(6).flatten()

    def test_negative_depth_raises(self):
        with pytest.raises(ValueError):
            a131271_triangle(-1)


class TestDShape:
    def test_prefix(self):
        assert [d_shape_closed_form(n) for n in range(17)] == D_PREFIX

    @pytest.mark.parametrize(
        "n,expected",
        [(3, F(3, 4)), (4, F(1, 8)), (9, F(15, 16)), (0, F(1, 2)), (1, F(1, 2))],
    )
    def test_known_values(self, n, expected):
        assert d_shape_closed_form(n) == expected

    def test_matches_simulation_below_2_10(self):
        sim = final_charge_sequence(build_fr_ddfao())
        for n in range(2**10):
            assert sim(n) == d_shape_closed_form(n)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            d_shape_closed_form(-3)


class TestESequence:
    def test_prefix(self):
        assert [e_sequence(n) for n in range(19)] == E_PREFIX

    def test_e_five(self):
        # the 101 shape scales by 2^3: 8 * 7/8 = 7
        assert e_sequence(5) == 7

    def test_powers_of_two_give_one(self):
        sim = numerator_sequence(final_charge_sequence(build_fr_ddfao()))
        for m in range(13):
            assert e_sequence(2**m) == 1
            assert sim(2**m) == 1

    def test_equals_reduced_numerator_below_2_12(self):
        sim = numerator_sequence(final_charge_sequence(build_fr_ddfao()))
        for n in range(2**12):
            assert e_sequence(n) == sim(n)

    def test_word_shape_factor_clears_denominator_below_2_12(self):
        def shape_factor(n: int) -> int:
            # oracle: 2 for n = 0, 4 for 11..., 2^(l+1) for 1 0^l, 2^(l+2) for 1 0^l 1...
            if n == 0:
                return 2
            rest = format(n, "b")[1:]
            if rest.startswith("1"):
                return 4
            zeros = len(rest) - len(rest.lstrip("0"))
            return 2 ** (zeros + 1) if zeros == len(rest) else 2 ** (zeros + 2)

        for n in range(2**12):
            assert shape_factor(n) * d_shape_closed_form(n) == e_sequence(n)


class TestERelationCheck:
    def test_membership_examples(self):
        assert e_sequence(5) == 2 * e_sequence(3) + 1 == 7
        assert e_sequence(1) == e_sequence(0) == 1
        assert e_sequence(7) == e_sequence(3) == 3

    def test_report_below_2_10(self):
        spec = parse_spec_document(corpus_path("e_quasi_spec.json").read_text())
        report = verify_quasi_k_regular(builtin_sequence("e"), spec, 2**10, depth=1)
        assert report.verified
        assert [len(report.levels[(2, r)].option_hits) for r in (1, 3)] == [2, 2]
        assert all(hits >= 5 for level in report.levels.values()
                   for hits in level.option_hits)

    def test_doubling_identity_holds(self):
        for n in range(65):
            assert e_sequence(2 * n) == e_sequence(n)


class TestTcal:
    def test_prefix(self):
        assert [t_sequence(n) for n in range(23)] == TCAL_PREFIX

    def test_even_step_flips_on_prime_half(self):
        assert t_sequence(4) == 1 - t_sequence(2)  # 2 is prime
        assert t_sequence(8) == t_sequence(4)  # 4 is not

    def test_odd_identity_below_2_16(self):
        for n in range(2**16):
            assert t_sequence(2 * n + 1) == 1 - t_sequence(n)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            t_sequence(-2)


class TestThueMorse:
    def test_prefix(self):
        assert [thue_morse(n) for n in range(22)] == T_PREFIX

    def test_t_zero(self):
        assert thue_morse(0) == 0

    def test_doubling_identity_below_2_12(self):
        # oracle: appending a 0 digit never changes the digit parity
        for n in range(2**12):
            assert thue_morse(2 * n) == thue_morse(n)
            assert thue_morse(n) == bin(n).count("1") % 2


class TestChargeSequences:
    def test_tm_prefix(self):
        assert final_charge_sequence(build_tm_ddfa()).prefix(15) == A_PREFIX

    def test_fr_prefix(self):
        assert final_charge_sequence(build_fr_ddfao()).prefix(17) == D_PREFIX

    def test_degenerate_is_constant_one(self):
        from ddfa.discharge import degenerate_ddfa

        seq = final_charge_sequence(degenerate_ddfa(build_tm_dfa()))
        assert seq.prefix(64) == [F(1)] * 64

    def test_base_mismatch_rejected(self):
        skipped_digit = replace(build_tm_ddfa(), alphabet=("0", "2"))
        with pytest.raises(ValueError, match=re.escape("alphabet ('0', '2') is not the base-2")):
            final_charge_sequence(skipped_digit)

    def test_reduced_value_sequence_with_unit_valuation(self):
        valuation = {q: F(1) for q in ("q0", "q1", "q2", "q3")}
        seq = reduced_value_sequence(build_fr_ddfao(), valuation)
        assert seq.prefix(17) == D_PREFIX

    @staticmethod
    def _count_delta_c(monkeypatch):
        import ddfa.discharge
        import ddfa.sequences

        calls = []
        original = ddfa.discharge.delta_c

        def counting(auto, q, word):
            calls.append(tuple(word))
            return original(auto, q, word)

        for module in (ddfa.discharge, ddfa.sequences):
            monkeypatch.setattr(module, "delta_c", counting)
        return calls

    def test_final_charge_runs_once_per_index(self, monkeypatch):
        calls = self._count_delta_c(monkeypatch)
        seq = final_charge_sequence(build_tm_ddfa())
        assert seq.prefix(15) == A_PREFIX
        assert seq.prefix(15) == A_PREFIX
        assert seq(7) == A_PREFIX[7]
        assert len(calls) == 15

    def test_reduced_value_runs_once_per_index(self, monkeypatch):
        calls = self._count_delta_c(monkeypatch)
        valuation = {q: F(1) for q in ("q0", "q1", "q2", "q3")}
        seq = reduced_value_sequence(build_fr_ddfao(), valuation)
        assert seq.prefix(17) == D_PREFIX
        assert seq.prefix(17) == D_PREFIX
        assert len(calls) == 17

    @pytest.mark.parametrize("name,build", [("tm_ddfa", build_tm_ddfa),
                                            ("fr_ddfao", build_fr_ddfao)])
    def test_scaled_charge_sequence_is_shared(self, name, build):
        shared = scaled_charge_sequence(name)
        assert scaled_charge_sequence(name) is shared
        fresh = numerator_sequence(final_charge_sequence(build()))
        assert shared.prefix(2**12) == fresh.prefix(2**12)

    def test_scaled_charge_terms_run_once_per_process(self, monkeypatch):
        scaled_charge_sequence.cache_clear()
        calls = self._count_delta_c(monkeypatch)
        assert scaled_charge_sequence("tm_ddfa").prefix(25) == B_PREFIX
        assert scaled_charge_sequence("tm_ddfa").prefix(25) == B_PREFIX
        assert len(calls) == 25

    def test_scaled_charge_sequence_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scaled-charge automaton 'tm_dfa'"):
            scaled_charge_sequence("tm_dfa")

    def test_reduced_value_sequence_missing_state(self):
        seq = reduced_value_sequence(build_fr_ddfao(), {"q0": F(1)})
        with pytest.raises(ValueError, match="no assigned value"):
            seq(2)


class TestSequenceWrapper:
    def test_builtin_e_instances_share_one_cache(self):
        first, second = builtin_sequence("e"), builtin_sequence("e")
        value = first(777)
        hits = e_sequence.cache_info().hits
        assert second(777) == value
        assert e_sequence.cache_info().hits == hits + 1

    def test_start_enforced(self):
        seq = Sequence(lambda n: n, start=1)
        with pytest.raises(ValueError):
            seq(0)

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_sequence("fibonacci")

    @given(st.sampled_from(["a", "b", "d", "e", "t", "tcal", "a131271"]),
           st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_builtins_are_deterministic(self, name, n):
        assert builtin_sequence(name)(n) == builtin_sequence(name)(n)


class TestBFile:
    def test_text_format(self):
        seq = builtin_sequence("e")
        text = b_file_text(seq, 5)
        assert text == "0 1\n1 1\n2 1\n3 3\n4 1\n"

    def test_no_trailing_blank_line(self):
        text = b_file_text(builtin_sequence("b"), 3)
        assert not text.endswith("\n\n")
        assert text.endswith("\n")

    def test_offset(self):
        text = b_file_text(builtin_sequence("e"), 2, offset=5)
        assert text == "5 7\n6 3\n"

    def test_rational_terms(self):
        text = b_file_text(builtin_sequence("a"), 3)
        assert text == "0 1/2\n1 1/2\n2 1/4\n"

    def test_round_trip_through_reader(self):
        seq = builtin_sequence("e")
        text = b_file_text(seq, 10)
        loaded = read_b_file(text)
        for n in range(10):
            assert loaded(n) == seq(n)

    def test_reader_rejects_garbage(self):
        with pytest.raises(ValueError, match="expected"):
            read_b_file("0 1 2\n")
        for value in ("1e1000000", "1.5"):  # Fraction() would take both, the first slowly
            with pytest.raises(ValueError, match=f"line 2: '{value}' is not a rational"):
                read_b_file(f"# values\n0 {value}\n")
        for index in ("1_0", "+3", "-3", "\u0663\u0663", "\u00b3"):  # int() takes the first four
            with pytest.raises(ValueError, match=re.escape(f"line 2: index {index!r} is not")):
                read_b_file(f"0 1\n{index} 5\n")
        with pytest.raises(ValueError, match="line 3: duplicate index 1"):
            read_b_file("0 1\n1 1\n1 7\n")

    def test_reader_rejects_non_ascii_values(self):
        with pytest.raises(ValueError, match="line 1: '\u0663' is not a rational"):
            read_b_file("0 \u0663\n1 \uff15\n")
        with pytest.raises(ValueError, match="line 2: '\uff15' is not a rational"):
            read_b_file("0 3\n1 \uff15\n")

    def test_reader_out_of_range(self):
        loaded = read_b_file("0 1\n1 2\n")
        with pytest.raises(ValueError, match="not present"):
            loaded(5)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            b_file_text(builtin_sequence("e"), 0)
