"""Shared generators for randomized automaton tests."""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from ddfa.automata import Automaton

# the tests run the golden commands of scripts/regen_corpus.py
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

LONG = "1" * 4301  # one digit past CPython's default int <- str limit


def with_raw_json(obj, path, raw: str) -> str:
    """The JSON text of ``obj`` with the value at ``path`` (keys and list
    indices; () is the root) replaced by the JSON text ``raw``."""
    if not path:
        return raw
    obj = json.loads(json.dumps(obj))
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = "RAW"
    return json.dumps(obj).replace('"RAW"', raw)


def random_dfa(rng: random.Random, max_states: int = 6, max_symbols: int = 4) -> Automaton:
    n_states = rng.randint(1, max_states)
    n_symbols = rng.randint(1, max_symbols)
    states = tuple(f"q{i}" for i in range(n_states))
    alphabet = tuple(str(i) for i in range(n_symbols))
    transition = {
        (q, s): states[rng.randrange(n_states)] for q in states for s in alphabet
    }
    accepting = frozenset(q for q in states if rng.random() < 0.3)
    return Automaton(states, alphabet, transition, states[rng.randrange(n_states)], accepting)


def random_rules(rng: random.Random, dfa: Automaton) -> dict[tuple[str, str, str], Fraction]:
    """Random nonnegative rational weights, exact unit sum per (state, symbol)."""
    weights: dict[tuple[str, str, str], Fraction] = {}
    for q in dfa.states:
        for s in dfa.alphabet:
            raw = [rng.randint(0, 8) for _ in dfa.alphabet]
            if sum(raw) == 0:
                raw[rng.randrange(len(raw))] = 1
            total = sum(raw)
            edges = [s] + [t for t in dfa.alphabet if t != s]  # raw[0] on the edge taken
            for weight, t in zip(raw, edges):
                weights[(q, s, t)] = Fraction(weight, total)
    return weights


def random_ddfa(rng: random.Random, **limits) -> Automaton:
    dfa = random_dfa(rng, **limits)
    return replace(dfa, rules=random_rules(rng, dfa))


def random_valuation(rng: random.Random, auto: Automaton) -> dict[str, Fraction]:
    """Values for some of the states (maybe all, maybe none), some of them 0."""
    return {q: Fraction(rng.randint(-2, 3), rng.randint(1, 3))
            for q in auto.states if rng.random() < 0.6}


def random_word(rng: random.Random, alphabet, max_len: int = 64) -> tuple[str, ...]:
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xDDFA)
