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
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .automata import Automaton, validate_dfa
from .discharge import DischargeRuleSet, validate_rules
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


def parse_rational(value, where: str) -> Fraction:
    """Exact rational from an int or a "p/q" string; floats are rejected."""
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a rational, got a boolean")
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
        numerator = int(match.group(1))
        if match.group(2) is None:
            return Fraction(numerator)
        denominator = int(match.group(2))
        if denominator == 0:
            raise DocumentError(f"{where}: zero denominator in {value!r}")
        if denominator < 0:
            raise DocumentError(f"{where}: negative denominator in {value!r}")
        return Fraction(numerator, denominator)
    raise DocumentError(f"{where}: expected a rational, got {type(value).__name__}")


@dataclass(frozen=True)
class AutomatonDocument:
    """A parsed, fully validated automaton file."""

    automaton: Automaton
    valuation: dict[str, Fraction] | None = None


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise DocumentError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise DocumentError(f"{where}: missing field(s) {sorted(missing)}")


def _object(value, where: str, fields: set[str]) -> None:
    """Refuse ``value`` unless it is a dict holding exactly ``fields``."""
    if not isinstance(value, dict):
        raise DocumentError(f"{where}: expected an object")
    _check_keys(value, fields, fields, where)


def _name_list(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise DocumentError(f"{where}: expected a list of strings")
    return tuple(value)


def _name(value, where: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{where}: expected a string, got {type(value).__name__}")
    return value


def _integer(value, where: str) -> int:
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


def _load_json(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise DocumentError("document nests too deeply") from None


def parse_document(text: str, check: bool = True) -> AutomatonDocument:
    """Parse one automaton document.

    With ``check`` (the default), automaton and rule invariants are
    enforced and violations raise DocumentError; ``check=False`` still
    rejects malformed syntax and fields but returns structurally broken
    automata, so the validate command can report their problems.
    """
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise DocumentError("document root must be an object")
    kind = obj.get("kind")
    if kind not in AUTOMATON_KINDS:
        raise DocumentError(f"kind must be one of {AUTOMATON_KINDS}, got {kind!r}")
    with_output = kind in ("dfao", "ddfao")
    with_rules = kind in ("ddfa", "ddfao")
    allowed = {"kind", "states", "alphabet", "start", "transitions", "valuation"}
    required = {"kind", "states", "alphabet", "start", "transitions"}
    allowed |= {"output"} if with_output else {"accepting"}
    required |= {"output"} if with_output else {"accepting"}
    if with_rules:
        allowed.add("discharge")
        required.add("discharge")
    _check_keys(obj, allowed, required, "document")

    states = _name_list(obj["states"], "states")
    alphabet = _name_list(obj["alphabet"], "alphabet")
    start = _name(obj["start"], "start")

    if not isinstance(obj["transitions"], list):
        raise DocumentError("transitions: expected a list")
    transition: dict[tuple[str, str], str] = {}
    for i, entry in enumerate(obj["transitions"]):
        where = f"transitions[{i}]"
        _object(entry, where, {"from", "symbol", "to"})
        key = (_name(entry["from"], f"{where}.from"),
               _name(entry["symbol"], f"{where}.symbol"))
        if key in transition:
            raise DocumentError(f"{where}: duplicate transition for {key}")
        transition[key] = _name(entry["to"], f"{where}.to")

    rules = None
    if with_rules:
        if not isinstance(obj["discharge"], list):
            raise DocumentError("discharge: expected a list")
        weights: dict[tuple[str, str, str], Fraction] = {}
        seen_states: set[str] = set()
        for i, entry in enumerate(obj["discharge"]):
            where = f"discharge[{i}]"
            _object(entry, where, {"state", "current", "notCurrent"})
            q = _name(entry["state"], f"{where}.state")
            if q not in states:
                raise DocumentError(f"{where}: unknown state {q!r}")
            if q in seen_states:
                raise DocumentError(f"{where}: duplicate discharge entry for state {q}")
            seen_states.add(q)
            if not isinstance(entry["current"], dict):
                raise DocumentError(f"{where}.current: expected an object")
            for s, w in entry["current"].items():
                weights[(q, s, s)] = parse_rational(w, f"{where}.current[{s}]")
            if not isinstance(entry["notCurrent"], dict):
                raise DocumentError(f"{where}.notCurrent: expected an object")
            for s, inner in entry["notCurrent"].items():
                if not isinstance(inner, dict):
                    raise DocumentError(f"{where}.notCurrent[{s}]: expected an object")
                for t, w in inner.items():
                    if t == s:
                        raise DocumentError(
                            f"{where}.notCurrent[{s}]: names the read symbol {s!r}, "
                            "whose weight belongs in current"
                        )
                    weights[(q, s, t)] = parse_rational(w, f"{where}.notCurrent[{s}][{t}]")
        rules = DischargeRuleSet(weights)

    if with_output:
        if not isinstance(obj["output"], dict):
            raise DocumentError("output: expected an object mapping state to rational")
        output = {
            q: parse_rational(v, f"output[{q}]") for q, v in obj["output"].items()
        }
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

    valuation = None
    if "valuation" in obj:
        if not isinstance(obj["valuation"], dict):
            raise DocumentError("valuation: expected an object mapping state to rational")
        valuation = {}
        for q, v in obj["valuation"].items():
            if q not in states:
                raise DocumentError(f"valuation: unknown state {q!r}")
            valuation[q] = parse_rational(v, f"valuation[{q}]")

    return AutomatonDocument(automaton, valuation)


def serialize_document(doc: AutomatonDocument) -> str:
    """Canonical text for an automaton document (stable bytes)."""
    auto = doc.automaton
    rules = auto.rules
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
    if rules is not None:
        obj["discharge"] = [
            {
                "state": q,
                "current": {s: str(rules.weights[(q, s, s)]) for s in auto.alphabet},
                "notCurrent": {
                    s: {t: str(rules.weights[(q, s, t)]) for t in auto.alphabet if t != s}
                    for s in auto.alphabet
                },
            }
            for q in auto.states
        ]
    if doc.valuation is not None:
        obj["valuation"] = {
            q: str(doc.valuation[q]) for q in auto.states if q in doc.valuation
        }
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# relation-spec documents

SPEC_KIND = "quasi-spec"


def parse_spec_document(text: str) -> QuasiRegularitySpec:
    """Parse and validate one relation-spec document."""
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise DocumentError("document root must be an object")
    if obj.get("kind") != SPEC_KIND:
        raise DocumentError(f"kind must be {SPEC_KIND!r}, got {obj.get('kind')!r}")
    _check_keys(obj, {"kind", "k", "E", "m", "menus"}, {"kind", "k", "E", "m", "menus"},
                "document")
    k, E, m = (_integer(obj[name], name) for name in ("k", "E", "m"))
    if not isinstance(obj["menus"], list):
        raise DocumentError("menus: expected a list")
    menus: dict[tuple[int, int], RelationMenu] = {}
    for i, entry in enumerate(obj["menus"]):
        where = f"menus[{i}]"
        _object(entry, where, {"e", "r", "options"})
        e, r = _integer(entry["e"], f"{where}.e"), _integer(entry["r"], f"{where}.r")
        if (e, r) in menus:
            raise DocumentError(f"{where}: duplicate menu for level ({e}, {r})")
        if not isinstance(entry["options"], list):
            raise DocumentError(f"{where}.options: expected a list")
        options = []
        for j, opt in enumerate(entry["options"]):
            owhere = f"{where}.options[{j}]"
            _object(opt, owhere, {"constant", "terms"})
            constant = _integer(opt["constant"], f"{owhere}.constant")
            if not isinstance(opt["terms"], list):
                raise DocumentError(f"{owhere}.terms: expected a list")
            terms = []
            for t, term in enumerate(opt["terms"]):
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
