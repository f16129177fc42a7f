"""Charge propagation on automata: rule sets, charge-extended runs, reduced forms.

A discharging automaton carries, for every (state, symbol) pair, a weight
for the edge actually taken ("current") and one weight per remaining
out-edge ("not current"); each such family sums to exactly 1. Reading a
symbol moves the whole charge sitting on the current state along its
out-edges according to those weights, while every other state keeps its
charge and only receives. All arithmetic is exact rational; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .automata import Automaton, ValidationReport, build_tm_dfa

ZERO = Fraction(0)
ONE = Fraction(1)

ChargeVector = dict[str, Fraction]


@dataclass(frozen=True)
class DischargeRuleSet:
    """Edge weights of a discharging automaton.

    ``current[(q, s)]`` weights the edge taken when symbol ``s`` is read in
    state ``q``. ``not_current[(q, s, t)]`` weights the edge labeled
    ``t != s`` in the same situation; the second key component records the
    symbol being read, since the not-current weights are scoped per
    (state, read symbol) family.
    """

    current: Mapping[tuple[str, str], Fraction]
    not_current: Mapping[tuple[str, str, str], Fraction]


class ChargeResult(NamedTuple):
    final_state: str
    final_charge: Fraction


@dataclass(frozen=True)
class ReducedResult:
    """Reduced form of a charge run: a number, or a formal state multiple.

    ``state`` is None once the product collapsed to a plain rational
    (valued final state, or coefficient 0); otherwise ``value`` is the
    formal coefficient attached to ``state``.
    """

    state: str | None
    value: Fraction

    @property
    def is_numeric(self) -> bool:
        return self.state is None

    def __str__(self) -> str:
        if self.state is None:
            return str(self.value)
        if self.value == 1:
            return self.state
        return f"{self.value}*{self.state}"


def validate_rules(auto: Automaton) -> ValidationReport:
    """Check the discharge rule set: exact coverage, nonnegativity, unit sums."""
    rules = auto.rules
    report = ValidationReport("discharge rules")
    expected_current = {(q, s) for q in auto.states for s in auto.alphabet}
    expected_not = {
        (q, s, t)
        for q in auto.states
        for s in auto.alphabet
        for t in auto.alphabet
        if t != s
    }
    for key in expected_current - set(rules.current):
        report.add(f"missing current weight for {key}")
    for key in set(rules.current) - expected_current:
        report.add(f"unexpected current weight key {key}")
    for key in expected_not - set(rules.not_current):
        report.add(f"missing not-current weight for {key}")
    for key in set(rules.not_current) - expected_not:
        report.add(f"unexpected not-current weight key {key}")
    for key, w in list(rules.current.items()) + list(rules.not_current.items()):
        if w < 0:
            report.add(f"negative weight {w} at {key}")
    if report.ok:
        for q in auto.states:
            for s in auto.alphabet:
                total = rules.current[(q, s)] + sum(
                    (rules.not_current[(q, s, t)] for t in auto.alphabet if t != s),
                    ZERO,
                )
                if total != 1:
                    report.add(
                        f"weights for ({q}, {s}) sum to {total}, must sum to exactly 1"
                    )
    return report


def unit_charge(auto: Automaton, q: str) -> ChargeVector:
    """Charge vector with all mass on ``q``, dense over the state list."""
    if q not in auto.states:
        raise ValueError(f"unknown state {q!r}")
    return {p: (ONE if p == q else ZERO) for p in auto.states}


def charge_step(
    auto: Automaton, current: str, vector: ChargeVector, symbol: str
) -> tuple[str, ChargeVector]:
    """Read one symbol: move the current state's charge along its out-edges.

    The charge on ``current`` is split between the edge taken (current
    weight) and the remaining out-edges (not-current weights); self-loops
    send charge back to ``current``. Every other entry changes only by
    receiving. Returns the new current state and a fresh vector.
    """
    if symbol not in auto.alphabet:
        raise ValueError(f"symbol {symbol!r} not in alphabet")
    moving = vector[current]
    new = dict(vector)
    new[current] = ZERO
    nxt = auto.transition[(current, symbol)]
    new[nxt] += moving * auto.rules.current[(current, symbol)]
    for t in auto.alphabet:
        if t == symbol:
            continue
        new[auto.transition[(current, t)]] += moving * auto.rules.not_current[
            (current, symbol, t)
        ]
    return nxt, new


def charge_trajectory(
    auto: Automaton, q: str, word: Iterable[str]
) -> list[tuple[str, ChargeVector]]:
    """All (current state, charge vector) snapshots of a run, initial one included."""
    state = q
    vector = unit_charge(auto, q)
    snapshots = [(state, vector)]
    for s in word:
        state, vector = charge_step(auto, state, vector, s)
        snapshots.append((state, vector))
    return snapshots


def delta_c(auto: Automaton, q: str, word: Iterable[str]) -> ChargeResult:
    """Final state and the charge it holds after running ``word`` from ``q``.

    The empty word yields (q, 1).
    """
    state = q
    vector = unit_charge(auto, q)
    for s in word:
        state, vector = charge_step(auto, state, vector, s)
    return ChargeResult(state, vector[state])


def reduced_delta_c(
    auto: Automaton,
    valuation: Mapping[str, Fraction] | None,
    q: str,
    word: Iterable[str],
) -> ReducedResult:
    """Collapse a charge run against a partial state valuation.

    A valued final state yields the numeric product value * charge; an
    unvalued one stays a formal (state, charge) pair, except that a zero
    charge always collapses to the number 0.
    """
    return _reduce(valuation, *delta_c(auto, q, word))


def _reduce(
    valuation: Mapping[str, Fraction] | None, state: str, charge: Fraction
) -> ReducedResult:
    if valuation is not None and state in valuation:
        return ReducedResult(None, valuation[state] * charge)
    if charge == 0:
        return ReducedResult(None, ZERO)
    return ReducedResult(state, charge)


def reduced_output(auto: Automaton, q: str, word: Iterable[str]) -> Fraction:
    """Output value of the final state times the final charge."""
    state, charge = delta_c(auto, q, word)
    return auto.output[state] * charge


@dataclass
class RunRecord:
    """One charge run: the word, every snapshot, and the final values."""

    word: tuple[str, ...]
    snapshots: list[tuple[str, ChargeVector]]
    final_state: str
    final_charge: Fraction
    reduced: ReducedResult | None = None


def run_record(auto: Automaton, start: str, word, valuation=None) -> RunRecord:
    """Assemble the full record of running ``word`` from ``start``."""
    word = tuple(word)
    snapshots = charge_trajectory(auto, start, word)
    state, vector = snapshots[-1]
    charge = vector[state]
    reduced = None if valuation is None else _reduce(valuation, state, charge)
    return RunRecord(word, snapshots, state, charge, reduced)


def equal_split_rules(base: Automaton) -> DischargeRuleSet:
    """Every (state, symbol) family splits evenly over the |alphabet| out-edges."""
    share = Fraction(1, len(base.alphabet))
    current = {(q, s): share for q in base.states for s in base.alphabet}
    not_current = {
        (q, s, t): share
        for q in base.states
        for s in base.alphabet
        for t in base.alphabet
        if t != s
    }
    return DischargeRuleSet(current, not_current)


def degenerate_rules(base: Automaton) -> DischargeRuleSet:
    """Current weight 1, not-current 0: charge follows the run undivided."""
    current = {(q, s): ONE for q in base.states for s in base.alphabet}
    not_current = {
        (q, s, t): ZERO
        for q in base.states
        for s in base.alphabet
        for t in base.alphabet
        if t != s
    }
    return DischargeRuleSet(current, not_current)


def degenerate_ddfa(base: Automaton) -> Automaton:
    """Give an automaton the degenerate rule set.

    The resulting runs keep the full unit charge on the current state, so
    they reproduce plain transition behavior exactly.
    """
    return replace(base, rules=degenerate_rules(base))


def build_tm_ddfa() -> Automaton:
    """The 2-state binary parity automaton with all weights 1/2."""
    base = build_tm_dfa()
    return replace(base, rules=equal_split_rules(base))


def build_fr_ddfao() -> Automaton:
    """The 4-state binary automaton (power-of-two detector) with all weights 1/2.

    Output is the characteristic function of the state reached exactly by
    expansions of 2^j with j >= 1.
    """
    base = Automaton(
        states=("q0", "q1", "q2", "q3"),
        alphabet=("0", "1"),
        transition={
            ("q0", "0"): "q2",
            ("q0", "1"): "q1",
            ("q1", "0"): "q3",
            ("q1", "1"): "q2",
            ("q2", "0"): "q2",
            ("q2", "1"): "q2",
            ("q3", "0"): "q3",
            ("q3", "1"): "q2",
        },
        start="q0",
        output={
            "q0": Fraction(0),
            "q1": Fraction(0),
            "q2": Fraction(0),
            "q3": Fraction(1),
        },
    )
    return replace(base, rules=equal_split_rules(base))
