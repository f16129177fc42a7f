import random
import re
from dataclasses import replace
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import ddfa.sequences
from ddfa.automata import base_k_word, build_tm_dfa, build_tm_dfao, dfao_output
from ddfa.discharge import (
    DischargeRuleSet,
    build_fr_ddfao,
    build_tm_ddfa,
    delta_c,
    reduce_charge,
)
from ddfa.documents import corpus_path, parse_spec_document
from ddfa.regularity import verify_quasi_k_regular
from ddfa.sequences import (
    BUILTIN_SEQUENCE_NAMES,
    CHARGE_FORMS,
    a131271_triangle,
    a_recursion,
    b_file_text,
    builtin_sequence,
    charge_b_file_text,
    charge_sequence,
    d_shape_closed_form,
    e_sequence,
    modified_b_sequence,
    read_b_file,
    scaled_charge_sequence,
    thue_morse,
)

from conftest import random_ddfa, random_valuation

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
tcal = builtin_sequence("tcal")
# the module-level digit-walk memos behind b, tcal and t
BUILTIN_MEMOS = (ddfa.sequences._b_recursion, ddfa.sequences._tcal, ddfa.sequences._tm_states)


class MemoSteps(list):
    """Indices stepped, in order; ``memos`` lists every memo built meanwhile."""

    def __init__(self):
        super().__init__()
        self.memos = []


@pytest.fixture
def memo_steps(monkeypatch):
    """Indices stepped by the builtin memos and by every memo built from now on."""
    stepped = MemoSteps()

    def counted(step):
        def counting(value, n):
            stepped.append(n)
            return step(value, n)
        return counting

    for memo in BUILTIN_MEMOS:
        monkeypatch.setattr(memo, "step", counted(memo.step))
    build = ddfa.sequences._DigitMemo.__init__

    def build_counted(memo, k, root, step):
        build(memo, k, root, counted(step))
        stepped.memos.append(memo)

    monkeypatch.setattr(ddfa.sequences._DigitMemo, "__init__", build_counted)
    return stepped


def clear_builtin_memos():
    for memo in BUILTIN_MEMOS:
        memo.clear()


def tcal_reference(n: int) -> int:
    """tcal by its definition, recursing on n // 2."""
    if n == 0:
        return 0
    half = n // 2
    half_is_prime = half > 1 and all(half % d for d in range(2, isqrt(half) + 1))
    if n % 2 or half_is_prime:
        return 1 - tcal_reference(half)
    return tcal_reference(half)


def random_base_k_ddfa(rng: random.Random, base: int):
    """A random discharging automaton whose alphabet is the base-k digits."""
    auto = random_ddfa(rng, max_symbols=base)
    while len(auto.alphabet) != base:
        auto = random_ddfa(rng, max_symbols=base)
    return auto


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
        sim = charge_sequence(build_tm_ddfa())
        for n in range(2**10):
            assert sim(n) == a_recursion(n)


class TestNumerators:
    def test_b_prefix(self):
        b = charge_sequence(build_tm_ddfa(), "numerator")
        assert [b(n) for n in range(25)] == B_PREFIX
        assert all(type(b(n)) is int for n in range(25))  # no Fraction in search residuals

    def test_e_prefix_from_automaton(self):
        e = charge_sequence(build_fr_ddfao(), "numerator")
        assert [e(n) for n in range(19)] == E_PREFIX

    def test_numerator_of_integer_one(self):
        from ddfa.discharge import degenerate_ddfa

        assert charge_sequence(degenerate_ddfa(build_tm_dfa()), "numerator")(7) == 1

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
        assert a131271_triangle(0) == ((1,),)

    def test_row_two(self):
        assert a131271_triangle(2)[2] == (1, 4, 2, 3)

    def test_row_three(self):
        # oracle: two manual passes of the interleave-and-reflect step
        # from row 2 = (1, 4, 2, 3) with 2^3 + 1 = 9 as the reflector
        assert a131271_triangle(3)[3] == (1, 8, 4, 5, 2, 7, 3, 6)

    def test_rows_are_permutations(self):
        for n, row in enumerate(a131271_triangle(8)):
            assert sorted(row) == list(range(1, 2**n + 1))

    def test_first_column_is_one(self):
        for row in a131271_triangle(8):
            assert row[0] == 1

    def test_flatten_matches_shifted_modified_b(self):
        flat = [v for row in a131271_triangle(6) for v in row]
        assert flat == [modified_b_sequence(i + 1) for i in range(len(flat))]

    def test_flat_producer_matches_rows(self):
        seq = builtin_sequence("a131271")
        assert [seq(n) for n in range(127)] == [v for row in a131271_triangle(6) for v in row]

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
        sim = charge_sequence(build_fr_ddfao())
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
        sim = charge_sequence(build_fr_ddfao(), "numerator")
        for m in range(13):
            assert e_sequence(2**m) == 1
            assert sim(2**m) == 1

    def test_equals_reduced_numerator_below_2_12(self):
        sim = charge_sequence(build_fr_ddfao(), "numerator")
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
        assert [tcal(n) for n in range(23)] == TCAL_PREFIX

    def test_even_step_flips_on_prime_half(self):
        assert tcal(4) == 1 - tcal(2)  # 2 is prime
        assert tcal(8) == tcal(4)  # 4 is not

    def test_odd_identity_below_2_16(self):
        for n in range(2**16):
            assert tcal(2 * n + 1) == 1 - tcal(n)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            tcal(-2)


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


class TestBuiltinsOnInts:
    """t, e and b on plain ints against the word run and Fraction forms they replace."""

    HUGE = 2**1200 + 1  # a parent chain far deeper than the recursion limit

    def test_e_equals_closed_form_numerator_below_2_16(self):
        for n in range(2**16):
            assert e_sequence(n) == d_shape_closed_form(n).numerator

    def test_b_equals_a_recursion_numerator_below_2_16(self):
        b = builtin_sequence("b")
        for n in range(2**16):
            assert b(n) == a_recursion(n).numerator
        for n in range(1, 2**16):
            assert modified_b_sequence(n) == (a_recursion(n).numerator + 1) // 2

    def test_t_equals_word_run_in_shuffled_order(self):
        clear_builtin_memos()
        dfao = build_tm_dfao()
        rng = random.Random(0x7A1E)
        indices = list(range(2**16)) + [rng.randrange(2**40, 2**48) for _ in range(64)]
        rng.shuffle(indices)
        for n in indices:
            assert thue_morse(n) == int(dfao_output(dfao, base_k_word(n, 2)))

    def test_t_cold_parents_past_2_40(self):
        clear_builtin_memos()
        for n in (2**40, 2**40 + 1, 3 * 2**41 + 7, 2**47 - 1):
            assert thue_morse(n) == bin(n).count("1") % 2
            assert n // 2 in ddfa.sequences._tm_states  # a cold read stores its ancestors

    def test_huge_cold_indices(self):
        clear_builtin_memos()
        e_sequence.cache_clear()
        assert builtin_sequence("b")(self.HUGE) == 2**1201 - 1
        assert thue_morse(self.HUGE) == 0
        # tcal(2^j) = 0 for j >= 2, since 2 is the only prime half-index on the way
        assert builtin_sequence("tcal")(self.HUGE) == 1
        assert builtin_sequence("a131271")(self.HUGE) == 2**1199  # T(1200, 3)
        assert e_sequence(self.HUGE) == d_shape_closed_form(self.HUGE).numerator
        word = base_k_word(self.HUGE, 2)
        for build in (build_tm_ddfa, build_fr_ddfao):
            auto = build()
            expected = delta_c(auto, auto.start, word).final_charge
            assert charge_sequence(auto)(self.HUGE) == expected

    def test_in_order_t_steps_once_per_index(self, memo_steps):
        # every n read after n // 2 is one transition from its stored state
        clear_builtin_memos()
        assert [thue_morse(n) for n in range(2**12)] == [
            bin(n).count("1") % 2 for n in range(2**12)]
        assert memo_steps == list(range(2**12))

    def test_e_and_b_never_call_their_oracles(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"oracle called at {n}")

        expected_e = [d_shape_closed_form(n).numerator for n in range(2**12)]
        expected_b = [a_recursion(n).numerator for n in range(2**12)]
        e_sequence.cache_clear()
        ddfa.sequences._b_recursion.clear()
        monkeypatch.setattr(ddfa.sequences, "d_shape_closed_form", refuse)
        monkeypatch.setattr(ddfa.sequences, "a_recursion", refuse)
        assert [e_sequence(n) for n in range(2**12)] == expected_e
        assert [builtin_sequence("b")(n) for n in range(2**12)] == expected_b


class TestDigitMemo:
    """One walk for b, tcal, t and the charge runs, against independent oracles."""

    @staticmethod
    def _read_and_oracle(name):
        if name == "b":
            return builtin_sequence("b"), lambda n: a_recursion(n).numerator
        if name == "tcal":
            return builtin_sequence("tcal"), tcal_reference
        if name == "t":
            dfao = build_tm_dfao()
            return thue_morse, lambda n: int(dfao_output(dfao, base_k_word(n, 2)))
        auto = {"tm_ddfa": build_tm_ddfa, "fr_ddfao": build_fr_ddfao}[name]()
        return (charge_sequence(auto),
                lambda n: delta_c(auto, auto.start, base_k_word(n, 2)).final_charge)

    @pytest.mark.parametrize("name", ["b", "tcal", "t", "tm_ddfa", "fr_ddfao"])
    def test_one_step_per_index_in_shuffled_order(self, name, memo_steps):
        clear_builtin_memos()
        read, oracle = self._read_and_oracle(name)
        indices = list(range(2**12))
        random.Random(0xD161).shuffle(indices)
        assert [read(n) for n in indices] == [oracle(n) for n in indices]
        assert len(memo_steps) == 2**12

    @pytest.mark.parametrize("name", ["b", "tcal", "t"])
    def test_span_equals_oracle_and_stores_nothing(self, name):
        clear_builtin_memos()
        memo = {"b": ddfa.sequences._b_recursion, "tcal": ddfa.sequences._tcal,
                "t": ddfa.sequences._tm_states}[name]
        read, oracle = self._read_and_oracle(name)
        windows = [range(0, 300), range(1, 2), range(5, 6), range(4096, 4096 + 513)]
        huge = range(2**1200, 2**1200 + 9)  # past the depth the recursive oracles reach
        value = ddfa.sequences._TM_OUTPUTS.get if name == "t" else int  # t's memo holds states
        spans = [list(map(value, memo.span(w.start, w.stop))) for w in [*windows, huge]]
        assert not memo
        assert spans == [[oracle(n) for n in w] for w in windows] + [[read(n) for n in huge]]

    def test_span_refuses_negative_start(self):
        with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
            ddfa.sequences._tcal.span(-1, 3)


class TestChargeSequences:
    def test_tm_prefix(self):
        seq = charge_sequence(build_tm_ddfa())
        assert [seq(n) for n in range(15)] == A_PREFIX

    def test_fr_prefix(self):
        seq = charge_sequence(build_fr_ddfao())
        assert [seq(n) for n in range(17)] == D_PREFIX

    def test_degenerate_is_constant_one(self):
        from ddfa.discharge import degenerate_ddfa

        seq = charge_sequence(degenerate_ddfa(build_tm_dfa()))
        assert [seq(n) for n in range(64)] == [F(1)] * 64

    def test_base_mismatch_rejected(self):
        skipped_digit = replace(build_tm_ddfa(), alphabet=("0", "2"))
        with pytest.raises(ValueError, match=re.escape("alphabet ('0', '2') is not the base-2")):
            charge_sequence(skipped_digit)

    def test_reduced_value_sequence_with_unit_valuation(self):
        valuation = {q: F(1) for q in ("q0", "q1", "q2", "q3")}
        seq = charge_sequence(build_fr_ddfao(), "reduced", valuation)
        assert [seq(n) for n in range(17)] == D_PREFIX

    def test_one_symbol_alphabet_rejected(self):
        one_digit = replace(
            build_tm_ddfa(),
            alphabet=("0",),
            transition={("q0", "0"): "q0", ("q1", "0"): "q1"},
            rules=DischargeRuleSet({(q, "0", "0"): F(1) for q in ("q0", "q1")}),
        )
        for make in (charge_sequence,
                     lambda auto: charge_sequence(auto, "reduced", {"q0": F(1), "q1": F(1)})):
            with pytest.raises(ValueError, match=re.escape("alphabet ('0',) has 1 symbol(s)")):
                make(one_digit)

    def test_final_charge_runs_once_per_index(self, memo_steps):
        seq = charge_sequence(build_tm_ddfa())
        assert [seq(n) for n in range(15)] == A_PREFIX
        assert [seq(n) for n in range(15)] == A_PREFIX
        assert seq(7) == A_PREFIX[7]
        assert len(memo_steps) == 15

    def test_reduced_value_runs_once_per_index(self, memo_steps):
        valuation = {q: F(1) for q in ("q0", "q1", "q2", "q3")}
        seq = charge_sequence(build_fr_ddfao(), "reduced", valuation)
        assert [seq(n) for n in range(17)] == D_PREFIX
        assert [seq(n) for n in range(17)] == D_PREFIX
        assert len(memo_steps) == 17

    def test_terms_equal_delta_c_in_any_order(self):
        # the integer engine against the definition, on random automata and
        # random valuations (some partial), indices read in shuffled order
        rng = random.Random(0xC4A6)
        checked = 0
        while checked < 100:
            auto = random_ddfa(rng)
            base = len(auto.alphabet)
            if base < 2:
                continue
            checked += 1
            valuation = {q: F(rng.randint(1, 3), rng.randint(1, 2))
                         for q in auto.states if rng.random() < 0.8}
            charges = charge_sequence(auto)
            reduced = charge_sequence(auto, "reduced", valuation)
            indices = list(range(base**4)) + [rng.randrange(base**9) for _ in range(40)]
            rng.shuffle(indices)
            for n in indices:
                word = base_k_word(n, base)
                assert charges(n) == delta_c(auto, auto.start, word).final_charge
                expected = reduce_charge(valuation, *delta_c(auto, auto.start, word))
                if expected.is_numeric:
                    assert reduced(n) == expected.value
                else:
                    with pytest.raises(ValueError, match="no assigned value"):
                        reduced(n)

    @pytest.mark.parametrize("build", [build_tm_ddfa, build_fr_ddfao], ids=["tm", "fr"])
    def test_cold_window_equals_delta_c(self, build):
        # a window read first, far from index 0, builds its ancestors itself
        auto = build()
        seq = charge_sequence(auto)
        window = range(28672, 28672 + 2048)
        assert [seq(n) for n in window] == [
            delta_c(auto, auto.start, base_k_word(n, 2)).final_charge for n in window]

    @pytest.mark.parametrize("name,build", [("tm_ddfa", build_tm_ddfa),
                                            ("fr_ddfao", build_fr_ddfao)])
    def test_scaled_charge_sequence_is_shared(self, name, build):
        shared = scaled_charge_sequence(name)
        assert scaled_charge_sequence(name) is shared
        fresh = charge_sequence(build(), "numerator")
        assert [shared(n) for n in range(2**12)] == [fresh(n) for n in range(2**12)]

    def test_scaled_charge_terms_run_once_per_process(self, memo_steps):
        scaled_charge_sequence.cache_clear()
        try:
            for _ in range(2):
                seq = scaled_charge_sequence("tm_ddfa")
                assert [seq(n) for n in range(25)] == B_PREFIX
            assert len(memo_steps) == 25
        finally:
            scaled_charge_sequence.cache_clear()  # drop the memo with the counting step

    def test_scaled_charge_sequence_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scaled-charge automaton 'tm_dfa'"):
            scaled_charge_sequence("tm_dfa")

    def test_reduced_value_sequence_missing_state(self):
        seq = charge_sequence(build_fr_ddfao(), "reduced", {"q0": F(1)})
        with pytest.raises(ValueError, match="no assigned value"):
            seq(2)


class TestChargeListing:
    """``charge_b_file_text`` against ``b_file_text`` over ``charge_sequence``."""

    @staticmethod
    def outcome(make_text):
        try:
            return make_text()
        except ValueError as exc:
            return f"ValueError: {exc}"

    @pytest.mark.parametrize("base", [2, 3, 4])
    def test_equals_b_file_text_on_random_automata(self, base):
        rng = random.Random(0x11570 + base)
        for _ in range(15):
            auto = random_base_k_ddfa(rng, base)
            valuation = random_valuation(rng, auto) if rng.random() < 0.8 else None
            windows = [(0, base**3 + 5), (rng.randrange(base), 3),
                       (rng.randrange(base**9, base**10), 40), (2**1200, 4)]
            for form in CHARGE_FORMS:  # "reduced" without a valuation: both refuse
                for offset, count in windows:
                    assert self.outcome(
                        lambda: charge_b_file_text(auto, form, count, offset, valuation)
                    ) == self.outcome(lambda: b_file_text(
                        charge_sequence(auto, form, valuation), count, offset))

    def test_unvalued_final_state_lists_zero_charge_and_refuses_the_rest(self):
        rng = random.Random(0x2E60)
        seen = set()
        for _ in range(60):
            base = rng.randint(2, 4)
            auto = random_base_k_ddfa(rng, base)
            valuation = random_valuation(rng, auto)
            for n in range(base**3):
                state, charge = delta_c(auto, auto.start, base_k_word(n, base))
                if state in valuation:
                    case, value = "valued", valuation[state] * charge
                elif charge == 0:
                    case, value = "zero", F(0)
                else:
                    case, value = "refused", None
                seen.add(case)
                for form in ("reduced", "numerator"):
                    expected = (f"ValueError: state {state} has no assigned value" if value is None
                                else f"{n} {value if form == 'reduced' else value.numerator}\n")
                    assert self.outcome(
                        lambda: charge_b_file_text(auto, form, 1, n, valuation)) == expected
        assert seen == {"valued", "zero", "refused"}

    @pytest.mark.parametrize("base,offset,count", [
        (2, 0, 40), (2, 28672, 2048), (3, 2, 50), (4, 70, 7), (2, 2**70 + 5, 9)])
    def test_steps_each_range_once_and_stores_nothing(self, base, offset, count, memo_steps):
        auto = build_tm_ddfa() if base == 2 else random_base_k_ddfa(random.Random(base), base)
        charge_b_file_text(auto, "charge", count, offset)
        expected, level = [], set(range(offset, offset + count))
        while level:  # the range, then the parents of its indices >= base, and so on up
            expected[:0] = sorted(level)
            level = {n // base for n in level if n >= base}
        assert memo_steps == expected
        assert memo_steps.memos and not any(memo_steps.memos)

    @pytest.mark.parametrize("make", [charge_b_file_text, charge_sequence],
                             ids=["charge_b_file_text", "charge_sequence"])
    def test_refuses_bad_arguments(self, make):
        # a term function refuses a bad form when it is built, before any read
        tm = build_tm_ddfa()
        cases = [(("reduced",), "the reduced form needs a valuation"),
                 (("value",), "unknown form 'value'")]
        if make is charge_b_file_text:
            cases = [((form, 3), message) for (form,), message in cases] + [
                (("charge", 0), "count must be >= 1, got 0"),
                (("charge", 3, -1), "n must be nonnegative, got -1")]
        for args, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                make(tm, *args)


class TestSequenceWrapper:
    def test_builtin_e_instances_share_one_cache(self):
        first, second = builtin_sequence("e"), builtin_sequence("e")
        value = first(777)
        hits = e_sequence.cache_info().hits
        assert second(777) == value
        assert e_sequence.cache_info().hits == hits + 1

    @pytest.mark.parametrize("make", [
        *[lambda name=name: builtin_sequence(name) for name in BUILTIN_SEQUENCE_NAMES],
        lambda: charge_sequence(build_tm_ddfa()),
        lambda: charge_sequence(build_fr_ddfao(), "reduced",
                                {q: F(1) for q in ("q0", "q1", "q2", "q3")}),
        lambda: charge_sequence(build_fr_ddfao(), "numerator"),
        lambda: read_b_file("0 1\n1 2\n"),
    ], ids=[*BUILTIN_SEQUENCE_NAMES, "final-charge", "reduced-value", "numerators", "b-file"])
    def test_negative_index_refused(self, make):
        # a sequence is its term function; each producer refuses n < 0 itself
        with pytest.raises(ValueError):
            make()(-1)

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
