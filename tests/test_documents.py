import json
import sys
from dataclasses import replace
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from ddfa.automata import build_tm_dfao, to_dot
from ddfa.cli import main
from ddfa.discharge import (
    build_fr_ddfao,
    build_tm_ddfa,
    delta_c,
    equal_split_rules,
    validate_rules,
)
from ddfa.documents import (
    CORPUS_DIR,
    DocumentError,
    corpus_path,
    parse_document,
    parse_rational,
    parse_spec_document,
    serialize_document,
    serialize_spec_document,
)
from ddfa.regularity import verify_quasi_k_regular
from ddfa.sequences import builtin_sequence, charge_sequence, read_b_file

from conftest import LONG, random_ddfa, random_valuation, with_raw_json

F = Fraction


def corpus_text(name: str) -> str:
    return corpus_path(name).read_text(encoding="utf-8")


class TestRationals:
    @pytest.mark.parametrize(
        "raw,expected",
        [("1/2", F(1, 2)), ("-3/4", F(-3, 4)), ("7", F(7)), (3, F(3)), ("0", F(0))],
    )
    def test_accepted(self, raw, expected):
        assert parse_rational(raw, "x") == expected

    def test_zero_denominator(self):
        with pytest.raises(DocumentError, match="zero denominator"):
            parse_rational("3/0", "x")

    def test_float_rejected(self):
        with pytest.raises(DocumentError, match="floating-point"):
            parse_rational(0.5, "x")

    def test_garbage_rejected(self):
        with pytest.raises(DocumentError, match="not a rational"):
            parse_rational("one half", "x")

    @pytest.mark.parametrize("raw", ["\u0663/\u0664", "\uff15", "-\u0663", "1/\u0664"])
    def test_non_ascii_digits_rejected(self, raw):
        # int() reads Arabic-Indic and fullwidth digits; the grammar takes ASCII only
        with pytest.raises(DocumentError, match="not a rational"):
            parse_rational(raw, "x")


class TestParseDocument:
    def test_shipped_tm_ddfa_matches_builder(self):
        auto = parse_document(corpus_text("tm_ddfa.json"))
        assert auto.kind == "ddfa"
        assert auto == build_tm_ddfa()

    def test_shipped_fr_ddfao_matches_builder(self):
        auto = parse_document(corpus_text("fr_ddfao.json"))
        assert auto == build_fr_ddfao()
        assert auto.valuation == {q: F(1) for q in ("q0", "q1", "q2", "q3")}

    def test_shipped_tm_dfao_matches_builder(self):
        auto = parse_document(corpus_text("tm_dfao.json"))
        assert auto.kind == "dfao"
        assert auto == build_tm_dfao()

    def test_zero_denominator_weight(self):
        text = corpus_text("tm_ddfa.json").replace('"1/2"', '"3/0"', 1)
        with pytest.raises(DocumentError, match="zero denominator"):
            parse_document(text)

    def test_rule_sum_violation_cites_axiom(self):
        text = corpus_text("tm_ddfa.json").replace('"1/2"', '"3/4"', 1)
        with pytest.raises(DocumentError, match="sum"):
            parse_document(text)

    def test_unknown_field_rejected(self):
        obj = json.loads(corpus_text("tm_ddfa.json"))
        obj["color"] = "blue"
        with pytest.raises(DocumentError, match="unknown field"):
            parse_document(json.dumps(obj))

    def test_syntax_error_carries_position(self):
        with pytest.raises(DocumentError, match="line 1"):
            parse_document("{nope")

    @pytest.mark.parametrize("old,new", [
        ('"start": "q0",', '"start": "q0", "start": "q1",'),
        ('"to": "q0"', '"to": "q0", "to": "q1"'),
    ], ids=["start", "transition-to"])
    def test_repeated_key_rejected(self, old, new):
        text = corpus_text("tm_ddfa.json").replace(old, new, 1)
        key = old.split('"')[1]
        with pytest.raises(DocumentError, match=f"repeated key '{key}'"):
            parse_document(text)

    def test_duplicate_transition_rejected(self):
        obj = json.loads(corpus_text("tm_ddfa.json"))
        obj["transitions"].append(dict(obj["transitions"][0]))
        with pytest.raises(DocumentError, match="duplicate transition"):
            parse_document(json.dumps(obj))

    def test_missing_transition_rejected_when_checked(self):
        obj = json.loads(corpus_text("tm_ddfa.json"))
        obj["transitions"] = obj["transitions"][:-1]
        with pytest.raises(DocumentError, match="missing transition"):
            parse_document(json.dumps(obj))
        assert parse_document(json.dumps(obj), check=False).kind == "ddfa"

    def test_bad_kind_rejected(self):
        with pytest.raises(DocumentError, match="kind"):
            parse_document('{"kind": "nfa"}')

    def test_valuation_unknown_state(self):
        obj = json.loads(corpus_text("tm_ddfa.json"))
        obj["valuation"] = {"q9": "1"}
        with pytest.raises(DocumentError, match="unknown state"):
            parse_document(json.dumps(obj))


KINDS = "('dfa', 'dfao', 'ddfa', 'ddfao')"
LONG_NAME_FIELDS = {  # field -> (corpus document, path to it, message)
    "start": ("tm_ddfa.json", ["start"], "start: expected a string, got int"),
    **{f"transitions[1].{key}": ("tm_ddfa.json", ["transitions", 1, key],
                                 f"transitions[1].{key}: expected a string, got int")
       for key in ("from", "symbol", "to")},
    "automaton kind": ("fr_ddfao.json", ["kind"],
                       f"kind must be one of {KINDS}, got an integer of 4301 digits"),
    "spec kind": ("e_quasi_spec.json", ["kind"],
                  "kind must be 'quasi-spec', got an integer of 4301 digits"),
}


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4301,
                    reason="no int <- str digit limit below 4301 digits")
@pytest.mark.parametrize("field", LONG_NAME_FIELDS)
def test_long_integer_where_a_name_is_expected_is_called_an_integer(
        capsys, tmp_path, monkeypatch, field):
    # a bare JSON integer past the digit limit, where a string is read
    name, path, message = LONG_NAME_FIELDS[field]
    text = with_raw_json(json.loads(corpus_text(name)), path, LONG)
    parse = parse_spec_document if name.endswith("_spec.json") else parse_document
    with pytest.raises(ValueError) as refused:
        parse(text)
    assert str(refused.value) == message
    (tmp_path / "input").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--seq", "e", "--spec", "input"] if parse is parse_spec_document else [
        "validate", "input"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


CONTAINER_FIELDS = {  # where -> (corpus document, path, the container it must be)
    "transitions": ("fr_ddfao.json", ["transitions"], "a list"),
    "discharge": ("fr_ddfao.json", ["discharge"], "a list"),
    "discharge[0].current": ("fr_ddfao.json", ["discharge", 0, "current"], "an object"),
    "discharge[0].notCurrent": ("fr_ddfao.json", ["discharge", 0, "notCurrent"], "an object"),
    "discharge[0].notCurrent[0]": ("fr_ddfao.json", ["discharge", 0, "notCurrent", "0"],
                                   "an object"),
    "output": ("fr_ddfao.json", ["output"], "an object"),
    "valuation": ("fr_ddfao.json", ["valuation"], "an object"),
    "menus": ("tcal_quasi_spec.json", ["menus"], "a list"),
    "menus[0].options": ("tcal_quasi_spec.json", ["menus", 0, "options"], "a list"),
    "menus[0].options[1].terms": ("tcal_quasi_spec.json",
                                  ["menus", 0, "options", 1, "terms"], "a list"),
}


@pytest.mark.parametrize("raw", ["null", "0", '"x"', "the other container"])
@pytest.mark.parametrize("where", CONTAINER_FIELDS)
def test_wrong_container_type_names_its_field(where, raw):
    name, path, container = CONTAINER_FIELDS[where]
    if raw == "the other container":
        raw = "{}" if container == "a list" else "[]"
    parse = parse_spec_document if name.endswith("_spec.json") else parse_document
    with pytest.raises(DocumentError) as refused:
        parse(with_raw_json(json.loads(corpus_text(name)), path, raw))
    assert str(refused.value) == f"{where}: expected {container}"


@pytest.mark.parametrize("raw", ["null", "0", '"x"', "[]"])
@pytest.mark.parametrize("parse", [parse_document, parse_spec_document])
def test_document_root_must_be_an_object(parse, raw):
    with pytest.raises(DocumentError) as refused:
        parse(raw)
    assert str(refused.value) == "document root must be an object"


class TestRulesMapping:
    """``Automaton.rules`` is the weight mapping itself, read through ``[(q, s, t)]``."""

    @pytest.mark.parametrize("name", ["tm_ddfa.json", "fr_ddfao.json"])
    def test_parsed_rules_are_a_plain_dict(self, name):
        auto = parse_document(corpus_text(name))
        assert type(auto.rules) is dict
        assert auto.rules == equal_split_rules(replace(auto, rules=None))

    @pytest.mark.parametrize("name", ["tm_ddfa.json", "fr_ddfao.json"])
    def test_any_read_only_mapping_runs_the_same(self, name):
        auto = parse_document(corpus_text(name))
        proxied = replace(auto, rules=MappingProxyType(dict(auto.rules)))
        assert type(proxied.rules) is MappingProxyType
        for word in ("", "1", "1010", "110100111"):
            assert delta_c(proxied, auto.start, word) == delta_c(auto, auto.start, word)
        for form in ("charge", "numerator") + (("reduced",) if auto.valuation else ()):
            expected = charge_sequence(auto, form)
            got = charge_sequence(proxied, form)
            assert [got(n) for n in range(200)] == [expected(n) for n in range(200)]
        assert validate_rules(proxied).ok
        assert to_dot(proxied) == to_dot(auto)
        assert serialize_document(proxied) == serialize_document(auto) == corpus_text(name)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["tm_ddfa.json", "fr_ddfao.json", "tm_dfao.json"]
    )
    def test_corpus_files_are_canonical(self, name):
        text = corpus_text(name)
        assert serialize_document(parse_document(text)) == text

    def test_document_round_trip(self):
        auto = replace(build_fr_ddfao(), valuation={"q0": F(1, 3), "q2": F(2)})
        assert parse_document(serialize_document(auto)) == auto

    def test_random_automata_round_trip(self, rng):
        # about half carry a valuation, some of them partial or empty
        valued = partial = 0
        for _ in range(200):
            auto = random_ddfa(rng)
            if rng.random() < 0.5:
                auto = replace(auto, valuation=random_valuation(rng, auto))
                valued += 1
                partial += len(auto.valuation) < len(auto.states)
            text = serialize_document(auto)
            parsed = parse_document(text)
            assert parsed == auto
            assert serialize_document(parsed) == text
        assert 80 < valued < 120 and partial > 20

    def test_parsed_document_runs(self):
        auto = parse_document(corpus_text("fr_ddfao.json"))
        assert delta_c(auto, "q0", "1010") == ("q2", F(7, 8))

    @pytest.mark.parametrize("name", sorted(p.name for p in CORPUS_DIR.glob("*_spec.json")))
    def test_spec_corpus_files_are_canonical(self, name):
        text = corpus_text(name)
        assert serialize_spec_document(parse_spec_document(text)) == text


class TestSpecDocuments:
    def test_shipped_tcal_spec_verifies(self):
        spec = parse_spec_document(corpus_text("tcal_quasi_spec.json"))
        report = verify_quasi_k_regular(builtin_sequence("tcal"), spec, 512, 2)
        assert report.verified

    def test_invalid_term_exponent_rejected(self):
        obj = json.loads(corpus_text("tcal_quasi_spec.json"))
        obj["menus"][0]["options"][0]["terms"][0]["f"] = 3
        with pytest.raises(DocumentError, match="invalid spec"):
            parse_spec_document(json.dumps(obj))

    def test_unknown_menu_field_rejected(self):
        obj = json.loads(corpus_text("tcal_quasi_spec.json"))
        obj["menus"][0]["label"] = "even"
        with pytest.raises(DocumentError, match="unknown field"):
            parse_spec_document(json.dumps(obj))

    def test_duplicate_level_rejected(self):
        obj = json.loads(corpus_text("tcal_quasi_spec.json"))
        obj["menus"].append(obj["menus"][0])
        with pytest.raises(DocumentError, match="duplicate menu"):
            parse_spec_document(json.dumps(obj))

    def test_wrong_kind_rejected(self):
        with pytest.raises(DocumentError, match="kind"):
            parse_spec_document(corpus_text("tm_ddfa.json"))

    def test_repeated_key_rejected(self):
        text = corpus_text("tcal_quasi_spec.json").replace('"E": 0,', '"E": 0, "E": 1,', 1)
        with pytest.raises(DocumentError, match="repeated key 'E'"):
            parse_spec_document(text)

    @pytest.mark.parametrize("field", ["e", "r"])
    def test_boolean_level_rejected(self, field):
        obj = json.loads(corpus_text("tcal_quasi_spec.json"))
        obj["menus"][0][field] = field == "e"  # JSON true/false; bool subclasses int
        with pytest.raises(DocumentError, match=rf"menus\[0\]\.{field}: expected an integer"):
            parse_spec_document(json.dumps(obj))

    def test_missing_corpus_file(self):
        with pytest.raises(DocumentError, match="no corpus file"):
            corpus_path("nonexistent.json")


CORPUS_DOCUMENTS = [
    "tm_ddfa.json", "fr_ddfao.json", "tm_dfao.json",
    "tcal_quasi_spec.json", "e_quasi_spec.json", "t_singleton_spec.json",
]

# leaves include names and rationals the corpus uses, so mutants get past
# the structural checks into the semantic ones
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=6) | st.sampled_from(["0", "1", "q0", "q1", "1/2", "1/0", "-1/2"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["e", "r", "f", "b", "kind", "states"]) | st.text(max_size=4),
        inner, max_size=4),
    max_leaves=8,
)

# "n value" lines with number-like tokens, which arbitrary text rarely forms
B_FILE_TOKENS = (
    st.integers(-3, 9).map(str)
    | st.tuples(st.integers(-3, 9), st.integers(-2, 3)).map(lambda pq: "%d/%d" % pq)
    | st.text("0123456789/-.e", min_size=1, max_size=5)
)
B_FILE_LINES = st.lists(st.tuples(B_FILE_TOKENS, B_FILE_TOKENS).map(" ".join),
                        max_size=5).map("\n".join)


def mutate(data, value):
    """Replace one node of a JSON value, the root included, by a random value."""
    if isinstance(value, (list, dict)) and value and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(range(len(value)) if isinstance(value, list)
                                        else sorted(value)))
        value[key] = mutate(data, value[key])
        return value
    return data.draw(JSON_VALUES)


class TestFuzzedReaders:
    """Whatever the input, the readers fail only with ValueError (exit 2)."""

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(CORPUS_DOCUMENTS), data=st.data())
    def test_mutated_corpus_documents(self, name, data):
        text = json.dumps(mutate(data, json.loads(corpus_text(name))))
        for parse in (parse_document, parse_spec_document):
            try:
                parse(text)
            except ValueError:  # DocumentError and SpecError included
                pass

    @settings(max_examples=100, deadline=None)
    @given(text=st.text(max_size=40) | B_FILE_LINES)
    def test_arbitrary_b_file_text(self, text):
        try:
            seq = read_b_file(text)
        except ValueError:
            return
        for n in range(4):  # a present index gives its term, an absent one a ValueError
            try:
                seq(n)
            except ValueError:
                pass
