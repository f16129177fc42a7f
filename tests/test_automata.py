from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from ddfa.automata import (
    Automaton,
    build_tm_dfa,
    build_tm_dfao,
    delta_star,
    parse_word,
    to_dot,
    validate_dfa,
)
from ddfa.discharge import build_fr_ddfao

from conftest import random_dfa, random_word
from oracles import base_k_word, dfao_output


def popcount_parity(n: int) -> int:
    """Independent oracle for the digit-parity automaton."""
    return bin(n).count("1") % 2


class TestValidation:
    def test_tm_dfa_is_valid(self):
        assert validate_dfa(build_tm_dfa()).ok

    def test_missing_transition_reported(self):
        dfa = build_tm_dfa()
        transition = dict(dfa.transition)
        del transition[("q1", "0")]
        broken = replace(dfa, transition=transition)
        report = validate_dfa(broken)
        assert not report.ok
        assert any("missing transition" in p for p in report.problems)

    def test_single_state_self_loops_valid(self):
        dfa = Automaton(("q0",), ("0", "1"), {("q0", "0"): "q0", ("q0", "1"): "q0"},
                        "q0", frozenset({"q0"}))
        assert validate_dfa(dfa).ok

    def test_tm_dfao_is_valid(self):
        assert validate_dfa(build_tm_dfao()).ok


class TestDeltaStar:
    def test_even_parity_word(self):
        assert delta_star(build_tm_dfa(), "q0", "1010") == "q0"

    def test_empty_word_is_identity(self):
        dfa = build_tm_dfa()
        for q in dfa.states:
            assert delta_star(dfa, q, "") == q

    def test_three_ones(self):
        # oracle: 7 = 0b111 has odd digit parity, so the run ends on q1
        assert popcount_parity(7) == 1
        assert delta_star(build_tm_dfa(), "q0", "111") == "q1"

    def test_unknown_symbol_raises(self):
        with pytest.raises(ValueError, match="not in alphabet"):
            delta_star(build_tm_dfa(), "q0", "102")

    def test_unknown_state_raises(self):
        with pytest.raises(ValueError, match="unknown state"):
            delta_star(build_tm_dfa(), "q7", "0")

    def test_monoid_action_on_random_automata(self, rng):
        for _ in range(50):
            dfa = random_dfa(rng)
            u = random_word(rng, dfa.alphabet, 16)
            v = random_word(rng, dfa.alphabet, 16)
            assert delta_star(dfa, dfa.start, u + v) == delta_star(
                dfa, delta_star(dfa, dfa.start, u), v
            )


class TestDfaoOutput:
    def test_word_six(self):
        assert dfao_output(build_tm_dfao(), "110") == 0

    def test_word_one(self):
        assert dfao_output(build_tm_dfao(), "1") == 1

    def test_empty_word_gives_start_output(self):
        dfao = build_tm_dfao()
        assert dfao_output(dfao, "") == dfao.output[dfao.start]

    def test_matches_parity_oracle_below_2_16(self):
        dfao = build_tm_dfao()
        for n in range(2**16):
            assert dfao_output(dfao, base_k_word(n, 2)) == popcount_parity(n)


class TestBaseKWord:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(10, 2, ("1", "0", "1", "0")), (0, 2, ("0",)), (5, 2, ("1", "0", "1"))],
    )
    def test_known_expansions(self, n, k, expected):
        assert base_k_word(n, k) == expected

    def test_bad_base_raises(self):
        with pytest.raises(ValueError):
            base_k_word(3, 1)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            base_k_word(-1, 2)

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_round_trip_below_2_16(self, k):
        for n in range(2**16):
            word = base_k_word(n, k)
            value = 0
            for token in word:
                value = value * k + int(token)
            assert value == n
            assert word[0] != "0" or n == 0

    @given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=2, max_value=16))
    def test_round_trip_large(self, n, k):
        value = 0
        for token in base_k_word(n, k):
            value = value * k + int(token)
        assert value == n


class TestParseWord:
    def test_single_char_alphabet_splits_characters(self):
        assert parse_word(("0", "1"), "1010") == ("1", "0", "1", "0")

    def test_empty_text_is_empty_word(self):
        assert parse_word(("0", "1"), "") == ()

    def test_multi_char_symbols_need_separators(self):
        assert parse_word(("10", "11"), "10,11 10") == ("10", "11", "10")


class TestToDot:
    @staticmethod
    def node_and_edge_counts(dot: str) -> tuple[int, int]:
        lines = [line.strip() for line in dot.splitlines()]
        nodes = [l for l in lines if l.startswith('"') and "->" not in l]
        edges = [l for l in lines if "->" in l and not l.startswith("__start")]
        return len(nodes), len(edges)

    def test_tm_dfa_counts(self):
        nodes, edges = self.node_and_edge_counts(to_dot(build_tm_dfa()))
        assert (nodes, edges) == (2, 4)

    def test_fr_ddfao_counts(self):
        nodes, edges = self.node_and_edge_counts(to_dot(build_fr_ddfao()))
        assert (nodes, edges) == (4, 8)

    def test_single_state_loop(self):
        dfa = Automaton(("q0",), ("0",), {("q0", "0"): "q0"}, "q0")
        nodes, edges = self.node_and_edge_counts(to_dot(dfa))
        assert (nodes, edges) == (1, 1)

    def test_accepting_state_double_circled(self):
        dot = to_dot(build_tm_dfa())
        assert '"q0" [shape=doublecircle];' in dot
        assert '"q1" [shape=circle];' in dot

    def test_discharge_weights_annotated(self):
        dot = to_dot(build_fr_ddfao())
        assert '[label="0: 1/2"]' in dot

    def test_backslash_and_quote_escaped_in_output_labels(self):
        name = 'a\\"b'  # a, backslash, double quote, b
        dot = to_dot(Automaton((name,), ("0",), {(name, "0"): name}, name, output={name: 1}))
        assert '  "a\\\\\\"b" [shape=circle, label="a\\\\\\"b/1"];\n' in dot
        assert '  __start -> "a\\\\\\"b";\n' in dot

    def test_deterministic(self):
        assert to_dot(build_tm_dfa()) == to_dot(build_tm_dfa())
