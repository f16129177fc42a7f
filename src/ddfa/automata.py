"""Finite automata, plain or with outputs and discharge rules: representation,
validation, runs, DOT export.

States are referred to by name; the position of a name in ``states`` fixes
its index, and that ordering is authoritative everywhere (charge vectors,
DOT output, serialized documents). Alphabet symbols are short text tokens,
so bases above 10 stay representable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping

Word = tuple[str, ...]


@dataclass
class ValidationReport:
    """Outcome of a structural check; ``problems`` lists every violation."""

    subject: str
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, message: str) -> None:
        self.problems.append(message)

    def __str__(self) -> str:
        if self.ok:
            return f"{self.subject}: valid"
        lines = [f"{self.subject}: INVALID ({len(self.problems)} problem(s))"]
        lines += [f"  - {p}" for p in self.problems]
        return "\n".join(lines)


@dataclass(frozen=True)
class Automaton:
    """Finite automaton (states, alphabet, transition, start, accepting).

    An ``output`` map from states to rationals makes it a DFAO, which has
    no accepting set; discharge ``rules`` make it a discharging automaton.
    ``rules[(q, s, t)]`` is the share of the charge on state ``q`` that
    moves along the out-edge labeled ``t`` when symbol ``s`` is read in
    ``q``; ``t == s`` is the edge taken. There is one key per state and
    pair of symbols. A ``valuation`` gives some or all states a rational
    value, against which a final charge reduces (``reduce_charge``).
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transition: Mapping[tuple[str, str], str]
    start: str
    accepting: frozenset[str] = frozenset()
    output: Mapping[str, Fraction] | None = None
    rules: Mapping[tuple[str, str, str], Fraction] | None = None
    valuation: Mapping[str, Fraction] | None = None

    @property
    def kind(self) -> str:
        """One of "dfa", "dfao", "ddfa", "ddfao"."""
        kind = "dfa" if self.rules is None else "ddfa"
        return kind if self.output is None else kind + "o"


def validate_dfa(auto: Automaton) -> ValidationReport:
    """Check structural invariants; every violation is reported, nothing raises.

    Discharge rules are checked separately by ``discharge.validate_rules``.
    """
    report = ValidationReport("dfa" if auto.output is None else "dfao")
    if not auto.states:
        report.add("no states")
    if len(set(auto.states)) != len(auto.states):
        report.add("duplicate state names")
    if not auto.alphabet:
        report.add("empty alphabet")
    if len(set(auto.alphabet)) != len(auto.alphabet):
        report.add("duplicate alphabet symbols")
    for sym in auto.alphabet:
        if not sym:
            report.add("empty alphabet symbol")
    states = set(auto.states)
    if auto.start not in states:
        report.add(f"start state {auto.start!r} not in state list")
    for q in auto.states:
        for s in auto.alphabet:
            if (q, s) not in auto.transition:
                report.add(f"missing transition delta({q}, {s})")
    for (q, s), target in auto.transition.items():
        if q not in states:
            report.add(f"transition from unknown state {q!r}")
        elif s not in auto.alphabet:
            report.add(f"transition on unknown symbol {s!r} from {q}")
        if target not in states:
            report.add(f"transition delta({q}, {s}) targets unknown state {target!r}")
    if auto.output is not None:
        for q in auto.states:
            if q not in auto.output:
                report.add(f"missing output value for state {q}")
        for q in auto.output:
            if q not in states:
                report.add(f"output value for unknown state {q!r}")
    for q in auto.accepting:
        if q not in states:
            report.add(f"accepting state {q!r} not in state list")
    return report


def delta_star(auto: Automaton, q: str, word: Iterable[str]) -> str:
    """Fold the transition function over ``word`` starting from ``q``.

    The empty word returns ``q`` unchanged. Symbols are consumed left to
    right (most significant digit first for numeric encodings).
    """
    if q not in auto.states:
        raise ValueError(f"unknown state {q!r}")
    for s in word:
        if s not in auto.alphabet:
            raise ValueError(f"symbol {s!r} not in alphabet")
        q = auto.transition[(q, s)]
    return q


def parse_word(alphabet: tuple[str, ...], text: str) -> Word:
    """Split user-supplied text into alphabet symbols.

    If every alphabet symbol is a single character the text is read
    character by character; otherwise symbols must be separated by
    whitespace or commas. Empty text is the empty word.
    """
    if not text:
        return ()
    if all(len(s) == 1 for s in alphabet) and "," not in text and " " not in text:
        return tuple(text)
    return tuple(tok for tok in text.replace(",", " ").split() if tok)


def to_dot(auto: Automaton) -> str:
    """Render any automaton kind as a Graphviz digraph.

    Accepting states are double-circled, the start state gets an arrow from
    an invisible point node, and discharging variants annotate each edge
    with its weight when its own symbol is read, as "s: p/q". Node and edge
    order follow (state index, symbol index), so output is byte-stable.
    Backslashes and double quotes in names are escaped.
    """
    def quoted(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph automaton {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for q in auto.states:
        shape = "doublecircle" if q in auto.accepting else "circle"
        if auto.output is not None:
            label = quoted(f"{q}/{auto.output[q]}")
            lines.append(f"  {quoted(q)} [shape={shape}, label={label}];")
        else:
            lines.append(f"  {quoted(q)} [shape={shape}];")
    lines.append(f"  __start -> {quoted(auto.start)};")
    for q in auto.states:
        for s in auto.alphabet:
            label = s if auto.rules is None else f"{s}: {auto.rules[(q, s, s)]}"
            lines.append(
                f"  {quoted(q)} -> {quoted(auto.transition[(q, s)])} [label={quoted(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def build_tm_dfa() -> Automaton:
    """Two-state binary parity automaton: tracks the parity of 1-digits read."""
    return Automaton(
        states=("q0", "q1"),
        alphabet=("0", "1"),
        transition={
            ("q0", "0"): "q0",
            ("q0", "1"): "q1",
            ("q1", "0"): "q1",
            ("q1", "1"): "q0",
        },
        start="q0",
        accepting=frozenset({"q0"}),
    )


def build_tm_dfao() -> Automaton:
    """Parity automaton with outputs 0/1 equal to the state labels."""
    return replace(
        build_tm_dfa(),
        accepting=frozenset(),
        output={"q0": Fraction(0), "q1": Fraction(1)},
    )
