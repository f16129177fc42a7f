import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ddfa
from ddfa.cli import main
from ddfa.discharge import delta_c
from ddfa.documents import corpus_path, parse_document, serialize_document
from ddfa.sequences import BUILTIN_SEQUENCE_NAMES, b_file_text, builtin_sequence, charge_sequence

from conftest import LONG, random_ddfa, random_valuation, with_raw_json
from regen_corpus import FR, GOLDENS, TM, TM_DFAO


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, **kwargs):
    """Run `python -m ddfa.cli` in a child process against this checkout."""
    src = str(Path(ddfa.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    env.update(kwargs.pop("env", {}))
    return subprocess.run([sys.executable, *argv], env=env, text=True, **kwargs)


class TestRun:
    def test_tm_final_line(self, capsys):
        code, out, _ = run_cli(capsys, "run", TM, "1010")
        assert code == 0
        assert out == "q0 7/16\n"

    def test_fr_final_and_reduced(self, capsys):
        code, out, _ = run_cli(capsys, "run", FR, "1010")
        assert code == 0
        assert out.splitlines() == ["q2 7/8", "reduced 7/8"]

    def test_empty_word(self, capsys):
        code, out, _ = run_cli(capsys, "run", TM, "")
        assert code == 0
        assert out == "q0 1\n"

    def test_trace_shows_every_step(self, capsys):
        code, out, _ = run_cli(capsys, "run", TM, "1010", "--trace")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6  # 5 snapshots plus the final line
        assert lines[-1] == "q0 7/16"

    @pytest.mark.parametrize("ones", [14280, 14300])
    def test_charge_past_the_int_digit_limit_prints(self, capsys, ones):
        # the charge after n ones has denominator 2**n: 4299 digits, then 4305,
        # past CPython's default limit of 4300 for int -> str
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
        limit = get_limit()
        code, out, err = run_cli(capsys, "run", TM, "1" * ones)
        assert (code, err, get_limit()) == (0, "", limit)
        auto = parse_document(Path(TM).read_text(encoding="utf-8"))
        state, charge = delta_c(auto, auto.start, ("1",) * ones)
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            expected = f"{state} {charge}\n"
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert out == expected

    def test_plain_dfao_run(self, capsys):
        code, out, _ = run_cli(capsys, "run", TM_DFAO, "110")
        assert code == 0
        assert out == "q0 0\n"

    @pytest.mark.parametrize("kind", ["dfa", "dfao"])
    def test_trace_needs_a_discharging_automaton(self, capsys, tmp_path, kind):
        # a trace is a charge run; a plain automaton has no charges to show
        path = TM_DFAO
        if kind == "dfa":
            path = tmp_path / "tm_dfa.json"
            path.write_text(serialize_document(ddfa.build_tm_dfa()), encoding="utf-8")
        code, out, err = run_cli(capsys, "run", str(path), "1010", "--trace")
        assert (code, out) == (2, "")
        assert err == "error: a charge run needs a discharging automaton (ddfa/ddfao)\n"

    def test_bad_symbol_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "run", TM, "102")
        assert code == 2
        assert "error" in err

    def test_start_option_removed(self, capsys):
        # runs start from the document's start state; there is no override
        with pytest.raises(SystemExit) as exc:
            main(["run", TM, "10", "--start", "q1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --start q1" in capsys.readouterr().err


class TestSequence:
    def test_charge_prefix_lines(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", TM, "--count", "4")
        assert code == 0
        assert out == "0 1/2\n1 1/2\n2 1/4\n3 3/4\n"

    def test_numerators(self, capsys):
        code, out, _ = run_cli(capsys, "sequence", TM, "--count", "8", "--form", "numerator")
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()] == [
            "1", "1", "1", "3", "1", "7", "3", "5"]

    def test_reduced_needs_valuation(self, capsys):
        code, _, err = run_cli(capsys, "sequence", TM, "--count", "3", "--form", "reduced")
        assert code == 2
        assert "valuation" in err

    def test_bfile_written(self, capsys, tmp_path):
        out_file = tmp_path / "b_test.txt"
        code, out, _ = run_cli(
            capsys, "sequence", FR, "--count", "5", "--form", "numerator",
            "--bfile", str(out_file), "--offset", "1",
        )
        assert code == 0
        assert out_file.read_text() == out == "1 1\n2 1\n3 3\n4 1\n5 7\n"

    @pytest.mark.parametrize("target", ["missing/b.txt", "."], ids=["no-parent", "directory"])
    def test_unwritable_bfile_exit_two(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run_cli(capsys, "sequence", TM, "--count", "3", "--bfile", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert len(err.splitlines()) == 1

    def test_plain_dfa_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sequence", TM_DFAO, "--count", "3")
        assert code == 2
        assert "discharging" in err

    def test_non_digit_alphabet_exit_two(self, capsys, tmp_path):
        text = corpus_path("tm_ddfa.json").read_text()
        letters = tmp_path / "letters.json"
        letters.write_text(text.replace('"0"', '"a"').replace('"1"', '"b"'))
        code, out, err = run_cli(capsys, "sequence", str(letters), "--count", "3")
        assert (code, out) == (2, "")
        assert "alphabet ('a', 'b') is not the base-2 digits ['0', '1']" in err

    def test_one_symbol_alphabet_exit_two(self, capsys, tmp_path):
        one_digit = tmp_path / "one_digit.json"
        one_digit.write_text(json.dumps({
            "kind": "ddfa", "states": ["q0"], "alphabet": ["0"], "start": "q0",
            "transitions": [{"from": "q0", "symbol": "0", "to": "q0"}],
            "discharge": [{"state": "q0", "current": {"0": "1"}, "notCurrent": {}}],
            "accepting": ["q0"],
        }))
        assert run_cli(capsys, "validate", str(one_digit))[0] == 0
        code, out, err = run_cli(capsys, "sequence", str(one_digit), "--count", "3")
        assert (code, out) == (2, "")
        assert err == "error: alphabet ('0',) has 1 symbol(s); base-k digits need at least two\n"

    def test_listing_equals_term_functions_on_random_automata(self, capsys, tmp_path):
        # partial valuations: a refused term exits 2 with empty stdout and its text
        rng = random.Random(0x5E0)
        exits = set()
        for i in range(12):
            auto = random_ddfa(rng, max_symbols=4)
            base = len(auto.alphabet)
            if base < 2:
                continue
            auto = replace(auto, valuation=random_valuation(rng, auto))
            doc = tmp_path / f"random{i}.json"
            doc.write_text(serialize_document(auto))
            seq = charge_sequence(auto, "reduced")
            for offset, count in ((0, base**3), (rng.randrange(base), 2), (2**1200, 3)):
                try:
                    expected = (0, b_file_text(seq, count, offset), "")
                except ValueError as exc:
                    expected = (2, "", f"error: {exc}\n")
                exits.add(expected[0])
                assert run_cli(capsys, "sequence", str(doc), "--count", str(count),
                               "--offset", str(offset), "--form", "reduced") == expected
        assert exits == {0, 2}

    def test_term_past_the_int_digit_limit_prints(self, capsys, tmp_path):
        # weights 1/q and (q - 1)/q with q = 10**1000 + 1: the charge at n = 16, after
        # five digits, has a denominator of about 5000 digits, past CPython's 4300
        q = 10**1000 + 1
        doc = json.loads(Path(TM).read_text(encoding="utf-8"))
        for entry in doc["discharge"]:
            entry["current"] = {s: f"1/{q}" for s in entry["current"]}
            entry["notCurrent"] = {s: {t: f"{q - 1}/{q}" for t in targets}
                                   for s, targets in entry["notCurrent"].items()}
        path, bfile = tmp_path / "big.json", tmp_path / "big.txt"
        path.write_text(json.dumps(doc), encoding="utf-8")
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
        limit = get_limit()
        code, out, err = run_cli(capsys, "sequence", str(path), "--offset", "16", "--count",
                                 "1", "--bfile", str(bfile))
        assert (code, err, get_limit()) == (0, "", limit)
        with ddfa.cli._any_int_digits():
            expected = f"16 {charge_sequence(parse_document(path.read_text()))(16)}\n"
        assert out == bfile.read_text(encoding="utf-8") == expected
        assert len(out) > 4300

    def test_count_limit_boundary(self, capsys, monkeypatch):
        import ddfa.cli

        monkeypatch.setattr(ddfa.cli, "WORK_LIMIT", 4)
        code, out, _ = run_cli(capsys, "sequence", TM, "--count", "4")
        assert (code, out) == (0, "0 1/2\n1 1/2\n2 1/4\n3 3/4\n")
        code, out, err = run_cli(capsys, "sequence", TM, "--count", "5")
        assert (code, out) == (2, "")
        assert "--count 5 is over the limit of 4 terms" in err


class TestValidate:
    def test_valid_document(self, capsys):
        code, out, _ = run_cli(capsys, "validate", TM)
        assert code == 0
        assert "valid" in out

    def test_invalid_rules_exit_one(self, capsys, tmp_path):
        text = corpus_path("tm_ddfa.json").read_text().replace('"1/2"', '"3/4"', 1)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, _ = run_cli(capsys, "validate", str(bad))
        assert code == 1
        assert "sum" in out

    def test_unparseable_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{")
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert "syntax error" in err

    @pytest.mark.parametrize("block,field,value", [
        ("transitions", "from", ["a"]),
        ("transitions", "symbol", 0),
        ("transitions", "to", [1]),
        ("discharge", "state", {}),
    ])
    def test_non_string_name_exit_two(self, capsys, tmp_path, block, field, value):
        obj = json.loads(corpus_path("tm_ddfa.json").read_text())
        obj[block][0][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        for argv in (["validate", str(bad)], ["run", str(bad), "1"], ["dot", str(bad)]):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert f"{block}[0].{field}: expected a string" in err

    @pytest.mark.parametrize("doc,key,old,new,argvs", [
        ("tm_ddfa.json", "start", '"start": "q0",', '"start": "q0", "start": "q1",',
         (["validate", "DOC"], ["run", "DOC", "1"])),
        ("tm_ddfa.json", "to", '"to": "q0"', '"to": "q0", "to": "q1"',
         (["validate", "DOC"], ["run", "DOC", "1"])),
        ("tcal_quasi_spec.json", "E", '"E": 0,', '"E": 0, "E": 1,',
         (["verify", "--seq", "tcal", "--spec", "DOC"],)),
    ], ids=["start", "transition-to", "spec-E"])
    def test_repeated_key_exit_two(self, capsys, tmp_path, doc, key, old, new, argvs):
        # json.loads alone keeps the last value and the document would pass
        bad = tmp_path / "repeated.json"
        bad.write_text(corpus_path(doc).read_text().replace(old, new, 1))
        for argv in argvs:
            code, _, err = run_cli(capsys, *(str(bad) if a == "DOC" else a for a in argv))
            assert code == 2, argv
            assert f"repeated key '{key}'" in err

    def test_notcurrent_naming_read_symbol_exit_two(self, capsys, tmp_path):
        obj = json.loads(corpus_path("tm_ddfa.json").read_text())
        obj["discharge"][0]["notCurrent"]["0"]["0"] = "0"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        for argv in (["validate", str(bad)], ["run", str(bad), "1"]):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert "notCurrent[0]: names the read symbol '0'" in err

    def test_discharge_entry_for_unknown_state_exit_two(self, capsys, tmp_path):
        obj = json.loads(corpus_path("tm_ddfa.json").read_text())
        obj["discharge"].append({"state": "B", "current": {}, "notCurrent": {}})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        for argv in (["validate", str(bad)], ["run", str(bad), "1"]):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert "discharge[2]: unknown state 'B'" in err

    def test_rule_problems_do_not_vary_with_the_hash_seed(self, tmp_path):
        obj = json.loads(corpus_path("tm_ddfa.json").read_text())
        obj["discharge"] = [{"state": "q1", "current": dict.fromkeys("hgfedcba", "0"),
                             "notCurrent": {}}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        for argv, code in ((["validate", str(bad)], 1), (["run", str(bad), "1"], 2)):
            results = [run_module("-m", "ddfa.cli", *argv, env={"PYTHONHASHSEED": seed},
                                  capture_output=True, timeout=60) for seed in ("0", "1")]
            assert [r.returncode for r in results] == [code, code]
            assert results[0].stdout + results[0].stderr == results[1].stdout + results[1].stderr
        problems = results[0].stderr.split(": ", 2)[2].strip().split("; ")
        missing = [f"missing weight for {key}"
                   for key in itertools.product(("q0", "q1"), "01", "01")]
        assert problems == missing + [f"unexpected weight key {('q1', s, s)}" for s in "hgfedcba"]

    def test_module_entry_point_runs_without_warnings(self):
        result = run_module("-W", "error::RuntimeWarning", "-m", "ddfa.cli", "validate", TM,
                            capture_output=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert "valid" in result.stdout

    @pytest.mark.parametrize("argv", [["run", "DOC", "1"], ["validate", "DOC"],
                                      ["verify", "--seq", "t", "--spec", "DOC"]],
                             ids=["run", "validate", "verify"])
    def test_deeply_nested_document_exit_two(self, capsys, tmp_path, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, _, err = run_cli(capsys, *(str(deep) if a == "DOC" else a for a in argv))
        assert code == 2
        assert "nests too deeply" in err


class TestClosedPipe:
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["kernel", "--seq", "t", "--depth", "2"],
                                      ["sequence", TM, "--count", "5"]],
                             ids=["kernel", "sequence"])
    def test_reader_closing_early_exits_one_quietly(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first line is written
        try:
            result = run_module("-m", "ddfa.cli", *argv, env={"PYTHONUNBUFFERED": unbuffered},
                                stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert result.stderr == ""
        assert result.returncode == 1


class TestVerify:
    def test_tcal_spec_verified(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--seq", "tcal",
            "--spec", str(corpus_path("tcal_quasi_spec.json")), "--max", "1024",
        )
        assert code == 0
        assert "verified to depth 3" in out

    def test_e_spec_verified(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--seq", "e",
            "--spec", str(corpus_path("e_quasi_spec.json")), "--max", "1024",
            "--depth", "2",
        )
        assert code == 0
        assert "verified to depth 2" in out

    def test_failed_verification_exit_one(self, capsys):
        # the flip-free singleton menus cannot track the prime-driven flips
        code, out, _ = run_cli(
            capsys, "verify", "--seq", "tcal",
            "--spec", str(corpus_path("t_singleton_spec.json")), "--max", "64",
        )
        assert code == 1
        assert "not verified" in out

    @pytest.mark.parametrize("E,menu", [
        (0, {"e": 10**12, "r": 0, "options": []}),
        (10**12, {"e": 10**12 + 1, "r": 0, "options": [{"constant": 0, "terms": [
            {"coeff": 1, "f": 10**12, "b": 0}, {"coeff": 1, "f": 1, "b": -1}]}]}),
    ], ids=["level", "term"])
    def test_huge_exponents_rejected_without_powers(self, tmp_path, E, menu):
        # forming k**e here takes minutes; the timeout keeps that from hanging the suite
        spec = tmp_path / "huge.json"
        spec.write_text(json.dumps({"kind": "quasi-spec", "k": 3, "E": E, "m": 0,
                                    "menus": [menu]}))
        result = run_module("-m", "ddfa.cli", "verify", "--seq", "t", "--spec", str(spec),
                            capture_output=True, timeout=30)
        assert result.returncode == 2
        assert "invalid spec" in result.stderr

    def test_missing_arguments(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--seq", "t")
        assert code == 2
        assert "spec" in err

    def test_conjecture_scaled_charges(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--conjecture", "scaled-charges", "--max", "256",
        )
        assert code == 0
        assert "supported at desk scale" in out

    @pytest.mark.parametrize("option", [["--seq", "t"], ["--depth", "4"], ["--depth", "3"],
                                        ["--spec", str(corpus_path("t_singleton_spec.json"))]])
    def test_conjecture_refuses_options_it_ignores(self, capsys, option):
        code, out, err = run_cli(capsys, "verify", "--conjecture", "scaled-charges",
                                 "--max", "64", *option)
        assert (code, out) == (2, "")
        assert err == f"error: --conjecture takes no {option[0]}\n"

    def test_coeff_bound_needs_conjecture(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seq", "t", "--spec",
                                 str(corpus_path("t_singleton_spec.json")), "--max", "64",
                                 "--depth", "1", "--coeff-bound", "7")
        assert (code, out) == (2, "")
        assert err == "error: only --conjecture takes --coeff-bound\n"

    def test_conjecture_output_does_not_depend_on_the_memo(self, capsys):
        from ddfa.cli import _conjecture_sequence

        commands = [["--coeff-bound", "2", "--max", "1024"],
                    ["--coeff-bound", "1", "--max", "1000"],
                    ["--coeff-bound", "1", "--max", "1050"]]
        argv = ["verify", "--conjecture", "scaled-charges"]
        _conjecture_sequence.cache_clear()
        shared = [run_cli(capsys, *argv, *command)[:2] for command in commands]
        for command, outcome in zip(commands, shared):
            _conjecture_sequence.cache_clear()
            assert run_cli(capsys, *argv, *command)[:2] == outcome

    def test_non_ascii_digit_bfile_exit_two(self, capsys, tmp_path):
        path = tmp_path / "digits.txt"
        path.write_text("0 \u0663\n1 \uff15\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "verify", "--seq", str(path),
                               "--spec", str(corpus_path("tcal_quasi_spec.json")))
        assert code == 2
        assert "line 1: '\u0663' is not a rational literal" in err

    def test_sequence_from_bfile(self, capsys, tmp_path):
        from ddfa.sequences import b_file_text, builtin_sequence

        path = tmp_path / "tcal.txt"
        path.write_text(b_file_text(builtin_sequence("tcal"), 600))
        code, out, _ = run_cli(
            capsys, "verify", "--seq", str(path),
            "--spec", str(corpus_path("tcal_quasi_spec.json")),
            "--max", "64", "--depth", "1",
        )
        assert code == 0
        assert "verified to depth 1" in out

    def test_bfile_starting_above_m_exit_two(self, capsys, tmp_path):
        from ddfa.sequences import b_file_text, builtin_sequence

        path = tmp_path / "tcal.txt"  # the spec's m is 0; the file starts at 5
        path.write_text(b_file_text(builtin_sequence("tcal"), 600, offset=5))
        code, out, err = run_cli(
            capsys, "verify", "--seq", str(path),
            "--spec", str(corpus_path("tcal_quasi_spec.json")),
            "--max", "64", "--depth", "1",
        )
        assert (code, out) == (2, "")
        assert err == "error: index 0 not present in sequence file\n"


class TestSearch:
    def test_tcal_search_prints_menus(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--seq", "tcal", "--E", "0", "--level", "1",
            "--coeff-bound", "1", "--max", "512",
        )
        assert code == 0
        assert "cover complete" in out
        assert "s(n) | -s(n) + 1" in out

    def test_search_writes_spec(self, capsys, tmp_path):
        out_path = tmp_path / "found.json"
        code, out, _ = run_cli(
            capsys, "search", "--seq", "t", "--E", "0", "--level", "1",
            "--coeff-bound", "1", "--max", "512", "--out", str(out_path),
        )
        assert code == 0
        spec = json.loads(out_path.read_text())
        assert spec["kind"] == "quasi-spec"
        code, out, _ = run_cli(
            capsys, "verify", "--seq", "t", "--spec", str(out_path),
            "--max", "512", "--depth", "2",
        )
        assert code == 0

    def test_incomplete_cover_exit_one(self, capsys, tmp_path):
        from ddfa.sequences import b_file_text

        path = tmp_path / "identity.txt"
        path.write_text(b_file_text(lambda n: n, 200))
        code, out, _ = run_cli(
            capsys, "search", "--seq", str(path), "--E", "0", "--level", "1",
            "--coeff-bound", "1", "--max", "64",
        )
        assert code == 1
        assert "cover incomplete" in out

    def test_unwritable_out_exit_two(self, capsys, tmp_path):
        path = tmp_path / "missing" / "s.json"
        code, out, err = run_cli(
            capsys, "search", "--seq", "t", "--E", "0", "--level", "1",
            "--max", "64", "--out", str(path),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert len(err.splitlines()) == 1

    def test_negative_exponent_bound_exit_two_and_no_spec(self, capsys, tmp_path):
        path = tmp_path / "constant.txt"
        path.write_text("".join(f"{n} 3\n" for n in range(64)))
        out_path = tmp_path / "spec.json"
        code, out, err = run_cli(
            capsys, "search", "--seq", str(path), "--E", "-1", "--level", "0",
            "--max", "32", "--out", str(out_path),
        )
        assert (code, out) == (2, "")
        assert "exponent bound E must be >= 0, got -1" in err
        assert not out_path.exists()


class TestKernel:
    def test_thue_morse_two_vectors(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--seq", "t", "--depth", "6")
        assert code == 0
        assert "2 distinct vectors" in out

    def test_tcal_growth_visible(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--seq", "tcal", "--depth", "3")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_zero_denominator_bfile_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 1/0\n")
        code, _, err = run_cli(capsys, "kernel", "--seq", str(path))
        assert code == 2
        assert "line 2: zero denominator" in err

    def test_signed_index_bfile_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n+1 1\n")
        code, _, err = run_cli(capsys, "kernel", "--seq", str(path))
        assert code == 2
        assert "line 2: index '+1' is not a non-negative decimal integer" in err

    def test_duplicate_index_bfile_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 1\n1 7\n")
        code, _, err = run_cli(capsys, "kernel", "--seq", str(path))
        assert code == 2
        assert "line 3: duplicate index 1" in err


def _with_field(corpus_name: str, field: str, raw: str) -> str:
    """A corpus document with ``field`` set to the JSON text ``raw``."""
    return with_raw_json(json.loads(corpus_path(corpus_name).read_text(encoding="utf-8")),
                         [field], raw)


LONG_LITERALS = {  # case -> (input file text, argv reading it, field or line named)
    "valuation string": (_with_field("fr_ddfao.json", "valuation", '{"q3": "1/7%s"}' % LONG[1:]),
                         ["run", "input", "10"], "valuation[q3]"),
    "valuation number": (_with_field("fr_ddfao.json", "valuation", '{"q3": %s}' % LONG),
                         ["run", "input", "10"], "valuation[q3]"),
    "spec integer": (_with_field("t_singleton_spec.json", "m", LONG),
                     ["verify", "--seq", "t", "--spec", "input"], "m"),
    "b-file value": (f"0 1\n1 {LONG}\n", ["kernel", "--seq", "input"], "line 2"),
    "b-file index": (f"0 1\n{LONG} 1\n", ["kernel", "--seq", "input"], "line 2"),
}


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4301,
                    reason="no int <- str digit limit below 4301 digits")
@pytest.mark.parametrize("case", LONG_LITERALS)
def test_long_literal_exit_two_naming_field_or_line(capsys, tmp_path, monkeypatch, case):
    text, argv, where = LONG_LITERALS[case]
    (tmp_path / "input").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {where}: a literal of 4301 digits is over the limit of ")


def json_paths(value, path=()):
    """Every path into a JSON value, the root's () included."""
    yield path
    items = enumerate(value) if isinstance(value, list) else (
        value.items() if isinstance(value, dict) else ())
    for key, inner in items:
        yield from json_paths(inner, (*path, key))


def _exit_contract(capsys, argv, context):
    """Run ``argv``: exit 0 or 1 writes no stderr, exit 2 one "error: " line."""
    code, _, err = run_cli(capsys, *argv)
    return _check_exit_contract(code, err, context)


def _check_exit_contract(code, err, context):
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (context, err)
        assert "_LongLiteral" not in err
    else:
        assert code in (0, 1) and err == "", (context, code, err)
    return code


HOSTILE_VALUES = ["null", "true", "1.5", "-1", str(10**30), "[]", "{}", '"1/0"', LONG]
HOSTILE_COMMANDS = [["validate", "doc"], ["run", "doc", "1010"],
                    ["sequence", "doc", "--count", "8"], ["dot", "doc"]]


def test_seeded_hostile_documents_keep_the_exit_contract(capsys, tmp_path, monkeypatch):
    # every path of the corpus automaton documents set to each hostile value,
    # a seeded sample of them through each command: exit 0 or 1 writes no
    # stderr, exit 2 one "error: " line that names no private type
    documents = {name: json.loads(corpus_path(name).read_text(encoding="utf-8"))
                 for name in ("tm_ddfa.json", "fr_ddfao.json", "tm_dfao.json")}
    cases = [(name, path, raw, argv) for name, obj in documents.items()
             for path in json_paths(obj) for raw in HOSTILE_VALUES for argv in HOSTILE_COMMANDS]
    monkeypatch.chdir(tmp_path)
    codes = set()
    for i, (name, path, raw, argv) in enumerate(random.Random(0x4057).sample(cases, 500)):
        text = with_raw_json(documents[name], path, raw)
        (tmp_path / f"case{i}").write_text(text, encoding="utf-8")
        codes.add(_exit_contract(capsys, [f"case{i}" if a == "doc" else a for a in argv],
                                 (name, path, raw, argv)))
    assert codes == {0, 1, 2}


SPEC_SEQUENCES = {"tcal_quasi_spec.json": "tcal", "e_quasi_spec.json": "e",
                  "t_singleton_spec.json": "t"}


def test_seeded_hostile_spec_documents_keep_the_exit_contract(capsys, tmp_path):
    # every path of the corpus spec documents set to each hostile value, a
    # seeded sample of them verified against the spec's builtin sequence
    specs = {name: json.loads(corpus_path(name).read_text(encoding="utf-8"))
             for name in SPEC_SEQUENCES}
    cases = [(name, path, raw) for name, obj in specs.items()
             for path in json_paths(obj) for raw in HOSTILE_VALUES]
    codes = set()
    for i, (name, path, raw) in enumerate(random.Random(0x5BEC).sample(cases, 300)):
        case = tmp_path / f"case{i}"
        case.write_text(with_raw_json(specs[name], path, raw), encoding="utf-8")
        codes.add(_exit_contract(capsys, ["verify", "--seq", SPEC_SEQUENCES[name], "--spec",
                                          str(case), "--max", "64", "--depth", "1"],
                                 (name, path, raw)))
    assert codes == {0, 1, 2}


B_FILE_DEFECTS = {  # defect -> the lines that replace line "n value"
    "none": lambda n, value: [f"{n} {value}"],
    "gap": lambda n, value: [],
    "repeated index": lambda n, value: [f"{n} {value}"] * 2,
    "zero denominator": lambda n, value: [f"{n} 1/0"],
    "decimal point": lambda n, value: [f"{n} 1.5"],
    "non-ASCII index digit": lambda n, value: [f"{n}\u0663 {value}"],
    "non-ASCII value digit": lambda n, value: [f"{n} {value}\uff15"],
    "long value": lambda n, value: [f"{n} {LONG}"],
}
B_FILE_COMMANDS = [
    ["verify", "--seq", "bfile", "--spec", str(corpus_path("tcal_quasi_spec.json")),
     "--max", "32", "--depth", "1"],
    ["search", "--seq", "bfile", "--E", "1", "--level", "2", "--max", "32"],
    ["kernel", "--seq", "bfile", "--depth", "3", "--window", "16"],
]


def test_seeded_defective_b_files_keep_the_exit_contract(capsys, tmp_path):
    # a valid listing of a builtin with one defect on one line, a seeded
    # sample of them read by each command that takes a b-file
    listings = {seq: b_file_text(builtin_sequence(seq), 160).splitlines()
                for seq in ("tcal", "e", "t")}
    cases = [(seq, line, defect, argv) for seq, lines in listings.items()
             for line in range(len(lines)) for defect in B_FILE_DEFECTS
             for argv in B_FILE_COMMANDS]
    codes = set()
    for i, (seq, line, defect, argv) in enumerate(random.Random(0xBF11E).sample(cases, 150)):
        lines = listings[seq]
        replaced = B_FILE_DEFECTS[defect](*lines[line].split())
        case = tmp_path / f"case{i}"
        case.write_text("\n".join(lines[:line] + replaced + lines[line + 1:]) + "\n",
                        encoding="utf-8")
        codes.add(_exit_contract(capsys, [str(case) if a == "bfile" else a for a in argv],
                                 (seq, line, defect, argv)))
    assert codes == {0, 1, 2}


HUGE_INDEX_CASES = {  # id -> command, builtin, m and --max
    **{f"{command}-{seq}": (command, seq, 2**1200, 2**1200 + 4)
       for seq in BUILTIN_SEQUENCE_NAMES for command in ("search", "verify")},
    "search-tcal-61-bit-prime": ("search", "tcal", 2**61 - 1, 2**61 + 2),
    "search-tcal-89-bit-prime": ("search", "tcal", 2**89 - 2, 2**89 + 2),
}


@pytest.mark.parametrize("command,seq,m,top", HUGE_INDEX_CASES.values(), ids=HUGE_INDEX_CASES)
def test_huge_start_index_keeps_the_exit_contract(tmp_path, command, seq, m, top):
    # each builtin from m = 2**1200, a parent chain far deeper than the recursion
    # limit, and tcal past a 61-bit and an 89-bit prime half-index: exit 0 or 1
    # with no stderr, or 2 with one line, in a child whose timeout keeps a
    # regression from hanging
    spec = tmp_path / "spec.json"
    spec.write_text(_with_field("t_singleton_spec.json", "m", str(m)), encoding="utf-8")
    argv = {"search": ["search", "--seq", seq, "--E", "0", "--level", "1", "--m", str(m)],
            "verify": ["verify", "--seq", seq, "--spec", str(spec), "--depth", "1"]}[command]
    result = run_module("-m", "ddfa.cli", *argv, "--max", str(top),
                        capture_output=True, timeout=30)
    _check_exit_contract(result.returncode, result.stderr, (command, seq, m))


class TestWorkLimit:
    @pytest.mark.parametrize("argv,message", [
        (["verify", "--seq", "t", "--spec", "HUGE_E", "--depth", "1", "--max", "4"],
         "verify needs 2^1000000000001 * 5 evaluations"),
        (["verify", "--seq", "t", "--spec", str(corpus_path("t_singleton_spec.json")),
          "--depth", "30", "--max", "4"], "verify needs 2^30 * 5 evaluations"),
        (["search", "--seq", "t", "--E", "0", "--level", "1000000000", "--max", "4"],
         "search needs 2^1000000000 * 5 evaluations"),
        (["kernel", "--seq", "t", "--depth", "40"], "kernel needs 2^40 * 64 evaluations"),
        (["kernel", "--seq", "t", "--k", "1"], "base k must be >= 2"),
        (["kernel", "--seq", "BFILE", "--depth", "1", "--window", "16"],
         "line 1: '1e1000000' is not a rational literal"),
        (["sequence", TM, "--count", "10000000"],
         "--count 10000000 is over the limit of 2000000 terms"),
        (["sequence", TM, "--count", "3", "--offset", "-2"], "--offset must be >= 0, got -2"),
    ], ids=["verify-huge-E", "verify-depth", "search-level", "kernel-depth", "kernel-k",
            "bfile-exponent", "sequence-count", "sequence-offset"])
    def test_rejected_before_work_starts(self, tmp_path, argv, message):
        # the timeout keeps a regression that starts the work from hanging the suite
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"kind": "quasi-spec", "k": 2, "E": 10**12, "m": 0,
                                    "menus": [{"e": 10**12 + 1, "r": 0, "options": [
                                        {"constant": 0, "terms": [
                                            {"coeff": 1, "f": 0, "b": 0}]}]}]}))
        bfile = tmp_path / "exp.txt"
        bfile.write_text("0 1e1000000\n")
        paths = {"HUGE_E": str(huge), "BFILE": str(bfile)}
        result = run_module("-m", "ddfa.cli", *(paths.get(a, a) for a in argv),
                            capture_output=True, timeout=30)
        assert result.returncode == 2
        assert message in result.stderr


class TestDot:
    def test_tm_dot(self, capsys):
        code, out, _ = run_cli(capsys, "dot", TM)
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("->") == 5  # 4 transitions plus the start marker

    def test_quoted_state_name_escaped(self, capsys, tmp_path):
        doc = tmp_path / "quoted.json"
        doc.write_text(Path(TM).read_text().replace('"q1"', '"q\\"1"'))
        code, out, _ = run_cli(capsys, "dot", str(doc))
        assert code == 0
        assert '  "q\\"1" [shape=circle];\n' in out
        assert '  "q0" -> "q\\"1" [label="1: 1/2"];\n' in out

    def test_unknown_sequence_name(self, capsys):
        code, _, err = run_cli(capsys, "kernel", "--seq", "nope")
        assert code == 2
        assert "neither a builtin" in err


class TestRunRecord:
    """What `ddfa run` prints of a charge run: snapshots, final pair, reduced value."""

    def test_consistent_with_trajectory(self, capsys):
        from ddfa.discharge import build_fr_ddfao, charge_trajectory

        code, out, _ = run_cli(capsys, "run", FR, "1010", "--trace")
        assert code == 0
        snapshots = charge_trajectory(build_fr_ddfao(), "q0", "1010")
        lines = out.splitlines()
        assert len(lines) == len(snapshots) + 2
        for line, (state, vector) in zip(lines, snapshots):
            assert line.endswith(f"{state}  " + " ".join(f"{q}={x}" for q, x in vector.items()))
        assert lines[-2:] == ["q2 7/8", "reduced 7/8"]

    @pytest.mark.parametrize("document, valued", [(TM, False), (FR, True)],
                             ids=["tm_ddfa", "fr_ddfao"])
    def test_one_step_per_symbol(self, capsys, monkeypatch, document, valued):
        import ddfa.discharge

        steps = []
        original = ddfa.discharge.charge_step

        def counting(*args):
            steps.append(args[3])
            return original(*args)

        monkeypatch.setattr(ddfa.discharge, "charge_step", counting)
        code, out, _ = run_cli(capsys, "run", document, "1010")
        assert code == 0
        assert ("\nreduced " in out) == valued
        assert steps == list("1010")

    @pytest.mark.parametrize("name", ["tm_ddfa", "fr_ddfao"])
    def test_untraced_run_keeps_no_trajectory(self, capsys, monkeypatch, name):
        def refuse(*args):
            raise AssertionError("an untraced run built a trajectory")

        monkeypatch.setattr(ddfa.cli, "charge_trajectory", refuse)
        code, out, _ = run_cli(capsys, "run", str(corpus_path(f"{name}.json")), "1010")
        assert code == 0
        golden = corpus_path(f"golden/{name}.run1010.txt").read_text(encoding="utf-8")
        assert out.splitlines() == [line for line in golden.splitlines()
                                    if not line.startswith("step ")]

    def test_no_valuation_no_reduced(self, capsys):
        code, out, _ = run_cli(capsys, "run", TM, "", "--trace")
        assert code == 0
        assert out.splitlines() == ["step 0: start q0  q0=1 q1=0", "q0 1"]


class TestGoldens:
    def test_every_golden_has_one_command(self):
        shipped = {path.name for path in corpus_path("golden").iterdir()}
        assert shipped == set(GOLDENS)

    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_reproduces_golden(self, capsys, name):
        code, out, _ = run_cli(capsys, *GOLDENS[name])
        assert code == 0
        golden = corpus_path(f"golden/{name}").read_text(encoding="utf-8")
        assert out == golden
