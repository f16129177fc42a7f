"""JSON document format for automata, discharge rules, and relation specs.

One document per automaton. Rationals travel as strings "p/q" (or integer
literals); native floats are rejected to keep everything exact. Parsing is
strict: unknown fields, duplicate entries, and rule-sum violations are
errors with a message naming the offending field. Serialization is
canonical (fixed key order, transitions sorted by state then symbol), so
parse and serialize are mutually inverse on valid documents.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from .automata import Automaton, validate_dfa
from .discharge import validate_rules
from .regularity import (
    AffineCombination,
    QuasiRegularitySpec,
    RelationMenu,
    RelationTerm,
    SpecError,
    validate_spec,
)


class DocumentError(ValueError):
    """Malformed document: syntax, structure, or a violated invariant."""


CORPUS_DIR = Path(__file__).resolve().parent / "corpus"


def corpus_path(name: str) -> Path:
    """Path of a shipped corpus file (automaton or spec document)."""
    path = CORPUS_DIR / name
    if not path.exists():
        raise DocumentError(f"no corpus file named {name!r}")
    return path


AUTOMATON_KINDS = ("dfa", "dfao", "ddfa", "ddfao")

_RATIONAL_RE = re.compile(r"^(-?[0-9]+)(?:/(-?[0-9]+))?$")  # not \d: it takes any Unicode digit


def decimal_literal(text: str, where: str) -> int:
    """``int`` of a checked digit string; past CPython's digit limit, a DocumentError."""
    try:
        return int(text)
    except ValueError:
        raise DocumentError(f"{where}: a literal of {len(text.lstrip('-'))} digits is over "
                            f"the limit of {sys.get_int_max_str_digits()} digits") from None


@dataclass(frozen=True, repr=False)
class _LongLiteral:
    """A JSON integer literal past the digit limit; the field that reads it refuses it."""

    text: str

    def __repr__(self) -> str:  # for messages that echo a field's value
        return f"an integer of {len(self.text.lstrip('-'))} digits"


def parse_rational(value, where: str) -> Fraction:
    """Exact rational from an int or a "p/q" string; floats are rejected."""
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, _LongLiteral):
        value = value.text
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DocumentError(
            f"{where}: floating-point literals are not accepted, write \"p/q\""
        )
    if isinstance(value, str):
        match = _RATIONAL_RE.match(value.strip())
        if not match:
            raise DocumentError(f"{where}: {value!r} is not a rational literal")
        numerator = decimal_literal(match.group(1), where)
        if match.group(2) is None:
            return Fraction(numerator)
        denominator = decimal_literal(match.group(2), where)
        if denominator == 0:
            raise DocumentError(f"{where}: zero denominator in {value!r}")
        if denominator < 0:
            raise DocumentError(f"{where}: negative denominator in {value!r}")
        return Fraction(numerator, denominator)
    raise DocumentError(f"{where}: expected a rational, got {type(value).__name__}")


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise DocumentError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise DocumentError(f"{where}: missing field(s) {sorted(missing)}")


def _shaped(value, kind: type, where: str):
    """``value`` if it is a ``kind`` (``dict`` or ``list``), else a DocumentError."""
    if not isinstance(value, kind):
        raise DocumentError(f"{where}: expected {'an object' if kind is dict else 'a list'}")
    return value


def _object(value, where: str, fields: set[str]) -> None:
    """Refuse ``value`` unless it is a dict holding exactly ``fields``."""
    _check_keys(_shaped(value, dict, where), fields, fields, where)


def _name_list(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise DocumentError(f"{where}: expected a list of strings")
    return tuple(value)


def _name(value, where: str) -> str:
    if not isinstance(value, str):
        got = "int" if isinstance(value, _LongLiteral) else type(value).__name__
        raise DocumentError(f"{where}: expected a string, got {got}")
    return value


def _integer(value, where: str) -> int:
    if isinstance(value, _LongLiteral):
        return decimal_literal(value.text, where)
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(f"{where}: expected an integer")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DocumentError(f"repeated key {key!r} in an object")
        obj[key] = value
    return obj


def _json_int(text: str):
    try:
        return int(text)
    except ValueError:
        return _LongLiteral(text)


def _load_json(text: str) -> dict:
    """The root object of a JSON document."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise DocumentError("document nests too deeply") from None
    if not isinstance(obj, dict):
        raise DocumentError("document root must be an object")
    return obj


def parse_document(text: str, check: bool = True) -> Automaton:
    """Parse one automaton document, its optional valuation included.

    With ``check`` (the default), automaton and rule invariants are
    enforced and violations raise DocumentError; ``check=False`` still
    rejects malformed syntax and fields but returns structurally broken
    automata, so the validate command can report their problems.
    """
    obj = _load_json(text)
    kind = obj.get("kind")
    if kind not in AUTOMATON_KINDS:
        raise DocumentError(f"kind must be one of {AUTOMATON_KINDS}, got {kind!r}")
    with_output = kind in ("dfao", "ddfao")
    with_rules = kind in ("ddfa", "ddfao")
    required = {"kind", "states", "alphabet", "start", "transitions"}
    required.add("output" if with_output else "accepting")
    if with_rules:
        required.add("discharge")
    _check_keys(obj, required | {"valuation"}, required, "document")

    states = _name_list(obj["states"], "states")
    alphabet = _name_list(obj["alphabet"], "alphabet")
    start = _name(obj["start"], "start")

    transition: dict[tuple[str, str], str] = {}
    for i, entry in enumerate(_shaped(obj["transitions"], list, "transitions")):
        where = f"transitions[{i}]"
        _object(entry, where, {"from", "symbol", "to"})
        key = (_name(entry["from"], f"{where}.from"),
               _name(entry["symbol"], f"{where}.symbol"))
        if key in transition:
            raise DocumentError(f"{where}: duplicate transition for {key}")
        transition[key] = _name(entry["to"], f"{where}.to")

    rules: dict[tuple[str, str, str], Fraction] | None = None
    if with_rules:
        rules = {}
        seen_states: set[str] = set()
        for i, entry in enumerate(_shaped(obj["discharge"], list, "discharge")):
            where = f"discharge[{i}]"
            _object(entry, where, {"state", "current", "notCurrent"})
            q = _name(entry["state"], f"{where}.state")
            if q not in states:
                raise DocumentError(f"{where}: unknown state {q!r}")
            if q in seen_states:
                raise DocumentError(f"{where}: duplicate discharge entry for state {q}")
            seen_states.add(q)
            for s, w in _shaped(entry["current"], dict, f"{where}.current").items():
                rules[(q, s, s)] = parse_rational(w, f"{where}.current[{s}]")
            for s, inner in _shaped(entry["notCurrent"], dict, f"{where}.notCurrent").items():
                for t, w in _shaped(inner, dict, f"{where}.notCurrent[{s}]").items():
                    if t == s:
                        raise DocumentError(
                            f"{where}.notCurrent[{s}]: names the read symbol {s!r}, "
                            "whose weight belongs in current"
                        )
                    rules[(q, s, t)] = parse_rational(w, f"{where}.notCurrent[{s}][{t}]")

    if with_output:
        output = {q: parse_rational(v, f"output[{q}]")
                  for q, v in _shaped(obj["output"], dict, "output").items()}
        accepting = frozenset()
    else:
        output = None
        accepting = frozenset(_name_list(obj["accepting"], "accepting"))
    automaton = Automaton(states, alphabet, transition, start, accepting, output, rules)

    if check:
        report = validate_dfa(automaton)
        if not report.ok:
            raise DocumentError("invalid automaton: " + "; ".join(report.problems))
        if rules is not None:
            rule_report = validate_rules(automaton)
            if not rule_report.ok:
                raise DocumentError(
                    "invalid discharge rules: " + "; ".join(rule_report.problems)
                )

    if "valuation" not in obj:
        return automaton
    valuation = {}
    for q, v in _shaped(obj["valuation"], dict, "valuation").items():
        if q not in states:
            raise DocumentError(f"valuation: unknown state {q!r}")
        valuation[q] = parse_rational(v, f"valuation[{q}]")
    return replace(automaton, valuation=valuation)


def serialize_document(auto: Automaton) -> str:
    """Canonical text for an automaton document (stable bytes)."""
    obj: dict = {
        "kind": auto.kind,
        "states": list(auto.states),
        "alphabet": list(auto.alphabet),
        "start": auto.start,
    }
    if auto.output is not None:
        obj["output"] = {q: str(auto.output[q]) for q in auto.states}
    else:
        obj["accepting"] = [q for q in auto.states if q in auto.accepting]
    obj["transitions"] = [
        {"from": q, "symbol": s, "to": auto.transition[(q, s)]}
        for q in auto.states
        for s in auto.alphabet
    ]
    if auto.rules is not None:
        obj["discharge"] = [
            {
                "state": q,
                "current": {s: str(auto.rules[(q, s, s)]) for s in auto.alphabet},
                "notCurrent": {
                    s: {t: str(auto.rules[(q, s, t)]) for t in auto.alphabet if t != s}
                    for s in auto.alphabet
                },
            }
            for q in auto.states
        ]
    if auto.valuation is not None:
        obj["valuation"] = {q: str(auto.valuation[q]) for q in auto.states if q in auto.valuation}
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# relation-spec documents

SPEC_KIND = "quasi-spec"


def parse_spec_document(text: str) -> QuasiRegularitySpec:
    """Parse and validate one relation-spec document."""
    obj = _load_json(text)
    if obj.get("kind") != SPEC_KIND:
        raise DocumentError(f"kind must be {SPEC_KIND!r}, got {obj.get('kind')!r}")
    _object(obj, "document", {"kind", "k", "E", "m", "menus"})
    k, E, m = (_integer(obj[name], name) for name in ("k", "E", "m"))
    menus: dict[tuple[int, int], RelationMenu] = {}
    for i, entry in enumerate(_shaped(obj["menus"], list, "menus")):
        where = f"menus[{i}]"
        _object(entry, where, {"e", "r", "options"})
        e, r = _integer(entry["e"], f"{where}.e"), _integer(entry["r"], f"{where}.r")
        if (e, r) in menus:
            raise DocumentError(f"{where}: duplicate menu for level ({e}, {r})")
        options = []
        for j, opt in enumerate(_shaped(entry["options"], list, f"{where}.options")):
            owhere = f"{where}.options[{j}]"
            _object(opt, owhere, {"constant", "terms"})
            constant = _integer(opt["constant"], f"{owhere}.constant")
            terms = []
            for t, term in enumerate(_shaped(opt["terms"], list, f"{owhere}.terms")):
                twhere = f"{owhere}.terms[{t}]"
                _object(term, twhere, {"coeff", "f", "b"})
                terms.append(RelationTerm(
                    *(_integer(term[name], f"{twhere}.{name}") for name in ("coeff", "f", "b"))
                ))
            options.append(AffineCombination(constant, tuple(terms)))
        menus[(e, r)] = RelationMenu(e, r, tuple(options))
    spec = QuasiRegularitySpec(k, E, m, menus)
    try:
        validate_spec(spec)
    except SpecError as exc:
        raise DocumentError(f"invalid spec: {exc}") from None
    return spec


def serialize_spec_document(spec: QuasiRegularitySpec) -> str:
    """Canonical text for a relation-spec document."""
    obj = {
        "kind": SPEC_KIND,
        "k": spec.k,
        "E": spec.E,
        "m": spec.m,
        "menus": [
            {
                "e": e,
                "r": r,
                "options": [
                    {
                        "constant": opt.constant,
                        "terms": [
                            {"coeff": t.coeff, "f": t.f, "b": t.b} for t in opt.terms
                        ],
                    }
                    for opt in spec.menus[(e, r)].options
                ],
            }
            for (e, r) in sorted(spec.menus)
        ],
    }
    return json.dumps(obj, indent=2) + "\n"
