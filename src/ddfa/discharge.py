"""Charge propagation on automata: rule sets, charge-extended runs, reduced forms.

A discharging automaton carries, for every state and symbol read, one
weight per out-edge of that state; each such family sums to exactly 1.
Reading a symbol moves the whole charge sitting on the current state along
its out-edges according to those weights, while every other state keeps its
charge and only receives. All arithmetic is exact rational; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, NamedTuple

from .automata import Automaton, ValidationReport, build_tm_dfa

ZERO = Fraction(0)
ONE = Fraction(1)

ChargeVector = dict[str, Fraction]


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

    def __str__(self) -> str:
        if self.state is None:
            return str(self.value)
        if self.value == 1:
            return self.state
        return f"{self.value}*{self.state}"


def validate_rules(auto: Automaton) -> ValidationReport:
    """Check the discharge rule set: exact coverage, nonnegativity, unit sums."""
    report = ValidationReport("discharge rules")
    # Ordered, not a set, so the problems do not come out in hash-seed order.
    expected = dict.fromkeys(product(auto.states, auto.alphabet, auto.alphabet))
    for key in expected:
        if key not in auto.rules:
            report.add(f"missing weight for {key}")
    for key in auto.rules:
        if key not in expected:
            report.add(f"unexpected weight key {key}")
    for key, w in auto.rules.items():
        if w < 0:
            report.add(f"negative weight {w} at {key}")
    if report.ok:
        for q, s in product(auto.states, auto.alphabet):
            total = sum((auto.rules[(q, s, t)] for t in auto.alphabet), ZERO)
            if total != 1:
                report.add(f"weights for ({q}, {s}) sum to {total}, must sum to exactly 1")
    return report


def charge_step(
    auto: Automaton, current: str, vector: ChargeVector, symbol: str
) -> tuple[str, ChargeVector]:
    """Read one symbol: move the current state's charge along its out-edges.

    The charge on ``current`` is split over the out-edges by the weights
    for the symbol read; self-loops send charge back to ``current``. Every
    other entry changes only by receiving. Returns the new current state
    and a fresh vector.
    """
    if symbol not in auto.alphabet:
        raise ValueError(f"symbol {symbol!r} not in alphabet")
    moving = vector[current]
    new = dict(vector)
    new[current] = ZERO
    transition, weights = auto.transition, auto.rules
    for t in auto.alphabet:
        new[transition[(current, t)]] += moving * weights[(current, symbol, t)]
    return transition[(current, symbol)], new


def _unit_charge(auto: Automaton, q: str) -> ChargeVector:
    """The start of a charge run: charge 1 on ``q``, 0 elsewhere."""
    if auto.rules is None:
        raise ValueError("a charge run needs a discharging automaton (ddfa/ddfao)")
    if q not in auto.states:
        raise ValueError(f"unknown state {q!r}")
    return {p: (ONE if p == q else ZERO) for p in auto.states}


def charge_trajectory(
    auto: Automaton, q: str, word: Iterable[str]
) -> list[tuple[str, ChargeVector]]:
    """All (current state, charge vector) snapshots of a run from unit charge on ``q``."""
    state, vector = q, _unit_charge(auto, q)
    snapshots = [(state, vector)]
    for s in word:
        state, vector = charge_step(auto, state, vector, s)
        snapshots.append((state, vector))
    return snapshots


def delta_c(auto: Automaton, q: str, word: Iterable[str]) -> ChargeResult:
    """Final state and the charge it holds after running ``word`` from ``q``.

    The empty word yields (q, 1). Keeps one snapshot at a time.
    """
    state, vector = q, _unit_charge(auto, q)
    for s in word:
        state, vector = charge_step(auto, state, vector, s)
    return ChargeResult(state, vector[state])


def reduce_charge(
    valuation: Mapping[str, Fraction] | None, state: str, charge: Fraction
) -> ReducedResult:
    """Collapse a final (state, charge) pair against a partial state valuation.

    A valued state yields the numeric product value * charge; an unvalued
    one stays a formal (state, charge) pair, except that a zero charge
    always collapses to the number 0.
    """
    if valuation is not None and state in valuation:
        return ReducedResult(None, valuation[state] * charge)
    if charge == 0:
        return ReducedResult(None, ZERO)
    return ReducedResult(state, charge)


def equal_split_rules(base: Automaton) -> dict[tuple[str, str, str], Fraction]:
    """Every (state, symbol) family splits evenly over the |alphabet| out-edges."""
    keys = product(base.states, base.alphabet, base.alphabet)
    return dict.fromkeys(keys, Fraction(1, len(base.alphabet)))


def build_tm_ddfa() -> Automaton:
    """The 2-state binary parity automaton with all weights 1/2."""
    base = build_tm_dfa()
    return replace(base, rules=equal_split_rules(base))


def build_fr_ddfao() -> Automaton:
    """The 4-state binary automaton (power-of-two detector) with all weights 1/2.

    Output is the characteristic function of the state reached exactly by
    expansions of 2^j with j >= 1; every state is valued 1.
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
        valuation=dict.fromkeys(("q0", "q1", "q2", "q3"), ONE),
    )
    return replace(base, rules=equal_split_rules(base))
