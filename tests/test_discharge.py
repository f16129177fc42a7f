from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ddfa.automata import (
    Automaton,
    build_tm_dfa,
    build_tm_dfao,
    delta_star,
)
from ddfa.discharge import (
    ReducedResult,
    build_fr_ddfao,
    build_tm_ddfa,
    charge_step,
    charge_trajectory,
    delta_c,
    reduce_charge,
    validate_rules,
)

from conftest import random_ddfa, random_dfa, random_word
from oracles import base_k_word, degenerate_ddfa, dfao_output

F = Fraction


@st.composite
def ddfa_and_word(draw):
    n_states = draw(st.integers(1, 6))
    n_symbols = draw(st.integers(1, 4))
    states = tuple(f"q{i}" for i in range(n_states))
    alphabet = tuple(str(i) for i in range(n_symbols))
    transition = {
        (q, s): states[draw(st.integers(0, n_states - 1))]
        for q in states
        for s in alphabet
    }
    dfa = Automaton(states, alphabet, transition, states[draw(st.integers(0, n_states - 1))])
    weights = {}
    for q in states:
        for s in alphabet:
            raw = [draw(st.integers(0, 5)) for _ in alphabet]
            if sum(raw) == 0:
                raw[0] = 1
            total = sum(raw)
            edges = [s] + [t for t in alphabet if t != s]  # raw[0] on the edge taken
            for weight, t in zip(raw, edges):
                weights[(q, s, t)] = F(weight, total)
    word = tuple(
        alphabet[draw(st.integers(0, n_symbols - 1))]
        for _ in range(draw(st.integers(0, 24)))
    )
    return replace(dfa, rules=weights), word


class TestValidateRules:
    def test_equal_split_tm_valid(self):
        assert validate_rules(build_tm_ddfa()).ok

    def test_bad_sum_reported(self):
        tm = build_tm_ddfa()
        weights = dict(tm.rules)
        weights[("q0", "0", "0")] = F(3, 4)
        weights[("q0", "0", "1")] = F(3, 4)
        report = validate_rules(replace(tm, rules=weights))
        assert not report.ok
        assert any("sum" in p for p in report.problems)

    def test_negative_weight_reported(self):
        tm = build_tm_ddfa()
        weights = dict(tm.rules)
        weights[("q0", "0", "0")] = F(3, 2)
        weights[("q0", "0", "1")] = F(-1, 2)
        report = validate_rules(replace(tm, rules=weights))
        assert not report.ok
        assert any("negative" in p for p in report.problems)

    def test_missing_weight_reported(self):
        tm = build_tm_ddfa()
        weights = dict(tm.rules)
        del weights[("q1", "1", "1")]
        report = validate_rules(replace(tm, rules=weights))
        assert not report.ok


class TestChargeStep:
    def test_first_symbol_splits_unit_charge(self):
        tm = build_tm_ddfa()
        state, vector = charge_step(tm, "q0", {"q0": F(1), "q1": F(0)}, "1")
        assert state == "q1"
        assert vector == {"q0": F(1, 2), "q1": F(1, 2)}

    def test_self_loop_keeps_half(self):
        tm = build_tm_ddfa()
        state, vector = charge_step(tm, "q1", {"q0": F(1, 2), "q1": F(1, 2)}, "0")
        assert state == "q1"
        assert vector == {"q0": F(3, 4), "q1": F(1, 4)}

    def test_degenerate_rules_move_everything(self, rng):
        for _ in range(25):
            auto = degenerate_ddfa(random_dfa(rng))
            q = auto.start
            vector = {p: F(p == q) for p in auto.states}
            for s in random_word(rng, auto.alphabet, 16):
                q, vector = charge_step(auto, q, vector, s)
                assert vector[q] == 1
                assert sum(vector.values()) == 1


class TestDeltaC:
    def test_tm_1010(self):
        assert delta_c(build_tm_ddfa(), "q0", "1010") == ("q0", F(7, 16))

    def test_fr_1010(self):
        assert delta_c(build_fr_ddfao(), "q0", "1010") == ("q2", F(7, 8))

    def test_fr_11(self):
        assert delta_c(build_fr_ddfao(), "q0", "11") == ("q2", F(3, 4))

    def test_empty_word(self):
        fr = build_fr_ddfao()
        for q in fr.states:
            assert delta_c(fr, q, "") == (q, 1)

    def test_tm_single_one(self):
        assert delta_c(build_tm_ddfa(), "q0", "1") == ("q1", F(1, 2))

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown state"):
            delta_c(build_tm_ddfa(), "nope", "")

    def test_automaton_without_rules_rejected(self):
        with pytest.raises(ValueError, match="needs a discharging automaton"):
            delta_c(build_tm_dfa(), "q0", "1")

    def test_keeps_no_trajectory(self, monkeypatch):
        import ddfa.discharge

        def refuse(*args):
            raise AssertionError("delta_c built a trajectory")

        monkeypatch.setattr(ddfa.discharge, "charge_trajectory", refuse)
        assert delta_c(build_tm_ddfa(), "q0", "1010") == ("q0", F(7, 16))
        assert delta_c(build_fr_ddfao(), "q0", "1010") == ("q2", F(7, 8))


class TestChargeTrajectory:
    def test_tm_1010_charges_at_q0(self):
        snapshots = charge_trajectory(build_tm_ddfa(), "q0", "1010")
        q0_charges = [vector["q0"] for _, vector in snapshots]
        assert q0_charges == [1, F(1, 2), F(3, 4), F(7, 8), F(7, 16)]

    def test_fr_10_final_vector(self):
        snapshots = charge_trajectory(build_fr_ddfao(), "q0", "10")
        state, vector = snapshots[-1]
        assert state == "q3"
        assert vector == {"q0": 0, "q1": 0, "q2": F(3, 4), "q3": F(1, 4)}

    def test_empty_word_single_snapshot(self):
        tm = build_tm_ddfa()
        snapshots = charge_trajectory(tm, "q1", "")
        assert snapshots == [("q1", {"q0": 0, "q1": 1})]

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown state"):
            charge_trajectory(build_tm_ddfa(), "nope", "1")

    def test_automaton_without_rules_rejected(self):
        with pytest.raises(ValueError, match="needs a discharging automaton"):
            charge_trajectory(build_tm_dfa(), "q0", "1")

    def test_last_snapshot_matches_delta_c(self, rng):
        for _ in range(25):
            auto = random_ddfa(rng)
            word = random_word(rng, auto.alphabet, 32)
            state, vector = charge_trajectory(auto, auto.start, word)[-1]
            assert delta_c(auto, auto.start, word) == (state, vector[state])


class TestReducedForms:
    def test_formal_pair_without_valuation(self):
        result = reduce_charge(None, *delta_c(build_fr_ddfao(), "q0", "1010"))
        assert result.state is not None
        assert (result.state, result.value) == ("q2", F(7, 8))
        assert str(result) == "7/8*q2"

    def test_all_ones_valuation_gives_numeric(self):
        valuation = {q: F(1) for q in ("q0", "q1", "q2", "q3")}
        result = reduce_charge(valuation, *delta_c(build_fr_ddfao(), "q0", "1010"))
        assert result.state is None
        assert result.value == F(7, 8)

    def test_zero_valued_final_state(self):
        result = reduce_charge({"q2": F(0)}, *delta_c(build_fr_ddfao(), "q0", "1010"))
        assert result.state is None
        assert result.value == 0

    def test_zero_charge_collapses_to_zero(self):
        # all of A's charge on symbol 0 flows along the self edge labeled 1
        dfa = Automaton(("A", "B"), ("0", "1"),
                        {("A", "0"): "B", ("A", "1"): "A", ("B", "0"): "B", ("B", "1"): "B"},
                        "A")
        rules = {
            ("A", "0", "0"): F(0), ("A", "0", "1"): F(1),
            ("A", "1", "1"): F(1, 2), ("A", "1", "0"): F(1, 2),
            ("B", "0", "0"): F(1, 2), ("B", "0", "1"): F(1, 2),
            ("B", "1", "1"): F(1, 2), ("B", "1", "0"): F(1, 2),
        }
        auto = replace(dfa, rules=rules)
        assert validate_rules(auto).ok
        assert delta_c(auto, "A", "0") == ("B", 0)
        result = reduce_charge(None, *delta_c(auto, "A", "0"))
        assert result.state is None and result.value == 0

    def test_reduced_output_uses_output_map(self):
        fr = build_fr_ddfao()
        # ends on q3, output 1
        assert reduce_charge(fr.output, *delta_c(fr, "q0", "10")) == ReducedResult(None, F(1, 4))
        # ends on q2, output 0
        assert reduce_charge(fr.output, *delta_c(fr, "q0", "1010")) == ReducedResult(None, 0)

    def test_reduced_output_with_all_ones_output(self):
        fr = build_fr_ddfao()
        ones = replace(fr, output={q: F(1) for q in fr.states})
        result = reduce_charge(ones.output, *delta_c(ones, "q0", "1010"))
        assert result == ReducedResult(None, F(7, 8))

    def test_reduced_output_degenerate_equals_plain_output(self, rng):
        auto = degenerate_ddfa(build_tm_dfao())
        for _ in range(50):
            word = random_word(rng, ("0", "1"), 20)
            result = reduce_charge(auto.output, *delta_c(auto, "q0", word))
            assert result == ReducedResult(None, dfao_output(build_tm_dfao(), word))


class TestDegenerate:
    def test_charge_always_one_on_tm(self, rng):
        auto = degenerate_ddfa(build_tm_dfa())
        for _ in range(50):
            word = random_word(rng, ("0", "1"), 40)
            assert delta_c(auto, "q0", word).final_charge == 1

    def test_reduced_matches_delta_star_on_200_random_words(self, rng):
        for _ in range(200):
            dfa = random_dfa(rng)
            auto = degenerate_ddfa(dfa)
            word = random_word(rng, dfa.alphabet)
            result = reduce_charge(None, *delta_c(auto, dfa.start, word))
            assert result.state == delta_star(dfa, dfa.start, word)
            assert result.value == 1

    def test_empty_word(self):
        auto = degenerate_ddfa(build_tm_dfa())
        assert delta_c(auto, "q0", "") == ("q0", 1)

    def test_degenerate_rules_satisfy_sum_axiom(self, rng):
        for _ in range(10):
            assert validate_rules(degenerate_ddfa(random_dfa(rng))).ok


class TestBuilders:
    def test_tm_rules_valid(self):
        assert validate_rules(build_tm_ddfa()).ok

    def test_fr_transitions(self):
        fr = build_fr_ddfao()
        expected = {
            ("q0", "1"): "q1", ("q1", "0"): "q3", ("q3", "1"): "q2",
            ("q2", "0"): "q2", ("q2", "1"): "q2", ("q3", "0"): "q3",
            ("q0", "0"): "q2", ("q1", "1"): "q2",
        }
        assert dict(fr.transition) == expected

    def test_fr_rules_valid(self):
        assert validate_rules(build_fr_ddfao()).ok

    def test_builtin_denominators_are_powers_of_two(self):
        for auto in (build_tm_ddfa(), build_fr_ddfao()):
            start = auto.start
            for n in range(512):
                den = delta_c(auto, start, base_k_word(n, 2)).final_charge.denominator
                assert den & (den - 1) == 0


class TestInvariants:
    @settings(max_examples=150, deadline=None)
    @given(ddfa_and_word())
    def test_conservation_and_range(self, pair):
        auto, word = pair
        state = auto.start
        vector = {p: F(p == auto.start) for p in auto.states}
        for s in word:
            state, vector = charge_step(auto, state, vector, s)
            assert sum(vector.values()) == 1
            assert all(0 <= c <= 1 for c in vector.values())

    @settings(max_examples=150, deadline=None)
    @given(ddfa_and_word())
    def test_final_state_matches_delta_star(self, pair):
        auto, word = pair
        assert delta_c(auto, auto.start, word).final_state == delta_star(
            auto, auto.start, word
        )

    @settings(max_examples=75, deadline=None)
    @given(ddfa_and_word())
    def test_prefix_recursion(self, pair):
        auto, word = pair
        snapshots = charge_trajectory(auto, auto.start, word)
        for i in range(len(word) + 1):
            assert snapshots[i] == charge_trajectory(auto, auto.start, word[:i])[-1]
