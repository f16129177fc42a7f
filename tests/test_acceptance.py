"""Acceptance suite: one test per numbered criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
before asserting, so a red run still shows the full scoreboard. All
comparisons are exact; the few timing bounds are generous and measured
with perf_counter.
"""

import random
import time
from fractions import Fraction

from ddfa.automata import delta_star
from ddfa.discharge import (
    build_fr_ddfao,
    build_tm_ddfa,
    charge_trajectory,
    degenerate_ddfa,
    delta_c,
    charge_step,
    reduce_charge,
    validate_rules,
)
from ddfa.documents import corpus_path, parse_spec_document
from ddfa.regularity import k_kernel, search_relation_menus, verify_quasi_k_regular
from ddfa.sequences import (
    a131271_triangle,
    a_recursion,
    builtin_sequence,
    charge_sequence,
    d_shape_closed_form,
    e_sequence,
    modified_b_sequence,
    thue_morse,
)

from conftest import random_dfa, random_ddfa, random_word

F = Fraction


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number}: {detail}"


def load_spec(name: str):
    return parse_spec_document(corpus_path(name).read_text(encoding="utf-8"))


def test_criterion_01_tm_trace():
    tm = build_tm_ddfa()
    snapshots = charge_trajectory(tm, "q0", "1010")
    current_charges = [vector[state] for state, vector in snapshots[1:]]
    values_ok = (
        current_charges == [F(1, 2), F(1, 4), F(7, 8), F(7, 16)]
        and delta_c(tm, "q0", "1010") == ("q0", F(7, 16))
    )
    word = tuple("1010")
    elapsed = min(
        (lambda t0: (delta_c(tm, "q0", word), time.perf_counter() - t0))(
            time.perf_counter()
        )[1]
        for _ in range(5)
    )
    ok = values_ok and elapsed < 0.001
    report(1, ok, f"2-state trace of 1010: charges 1/2,1/4,7/8,7/16, "
                  f"final (q0, 7/16), {elapsed * 1e6:.0f}us per run")


def test_criterion_02_fr_run():
    fr = build_fr_ddfao()
    snapshots = charge_trajectory(fr, "q0", "1010")
    expected = [
        ("q0", {"q0": F(1), "q1": F(0), "q2": F(0), "q3": F(0)}),
        ("q1", {"q0": F(0), "q1": F(1, 2), "q2": F(1, 2), "q3": F(0)}),
        ("q3", {"q0": F(0), "q1": F(0), "q2": F(3, 4), "q3": F(1, 4)}),
        ("q2", {"q0": F(0), "q1": F(0), "q2": F(7, 8), "q3": F(1, 8)}),
        ("q2", {"q0": F(0), "q1": F(0), "q2": F(7, 8), "q3": F(1, 8)}),
    ]
    ok = snapshots == expected and delta_c(fr, "q0", "1010") == ("q2", F(7, 8))
    report(2, ok, "4-state run of 1010 hits every diagrammed vector, final (q2, 7/8)")


def test_criterion_03_sequence_goldens():
    t0 = time.perf_counter()
    a = charge_sequence(build_tm_ddfa())
    b = charge_sequence(build_tm_ddfa(), "numerator")
    a_ok = [a(n) for n in range(15)] == [
        F(1, 2), F(1, 2), F(1, 4), F(3, 4), F(1, 8), F(7, 8), F(3, 8), F(5, 8),
        F(1, 16), F(15, 16), F(7, 16), F(9, 16), F(3, 16), F(13, 16), F(5, 16)]
    b_ok = [b(n) for n in range(25)] == [
        1, 1, 1, 3, 1, 7, 3, 5, 1, 15, 7, 9, 3, 13, 5, 11, 1, 31, 15, 17, 7, 25, 9, 23, 3]
    mod_ok = [modified_b_sequence(n) for n in range(1, 20)] == [
        1, 1, 2, 1, 4, 2, 3, 1, 8, 4, 5, 2, 7, 3, 6, 1, 16, 8, 9]
    e_ok = [e_sequence(n) for n in range(19)] == [
        1, 1, 1, 3, 1, 7, 3, 3, 1, 15, 7, 7, 3, 3, 3, 3, 1, 31, 15]
    d_ok = [d_shape_closed_form(n) for n in range(17)] == [
        F(1, 2), F(1, 2), F(1, 4), F(3, 4), F(1, 8), F(7, 8), F(3, 4), F(3, 4),
        F(1, 16), F(15, 16), F(7, 8), F(7, 8), F(3, 4), F(3, 4), F(3, 4), F(3, 4),
        F(1, 32)]
    tcal_ok = [builtin_sequence("tcal")(n) for n in range(23)] == [
        0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0]
    t_ok = [thue_morse(n) for n in range(22)] == [
        0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1]
    elapsed = time.perf_counter() - t0
    ok = all((a_ok, b_ok, mod_ok, e_ok, d_ok, tcal_ok, t_ok)) and elapsed < 1.0
    report(3, ok, f"seven golden prefixes exact in {elapsed:.2f}s "
                  f"(a:{a_ok} b:{b_ok} (b+1)/2:{mod_ok} e:{e_ok} d:{d_ok} "
                  f"tcal:{tcal_ok} t:{t_ok})")


def test_criterion_04_cross_oracles():
    t0 = time.perf_counter()
    tm_sim = charge_sequence(build_tm_ddfa())
    a_fail = next((n for n in range(2**16) if tm_sim(n) != a_recursion(n)), None)
    fr_sim = charge_sequence(build_fr_ddfao())
    d_fail = next((n for n in range(2**16) if fr_sim(n) != d_shape_closed_form(n)), None)
    elapsed = time.perf_counter() - t0
    ok = a_fail is None and d_fail is None and elapsed < 30.0
    report(4, ok, f"simulation = recursion and = shape closed form for n < 2^16 "
                  f"in {elapsed:.1f}s (first mismatches: {a_fail}, {d_fail})")


def test_criterion_05_triangle_agreement():
    flat = [v for row in a131271_triangle(11) for v in row]
    count = 2**12 - 1
    ok = len(flat) == count and all(
        flat[i] == modified_b_sequence(i + 1) for i in range(count)
    )
    report(5, ok, f"flattened triangle rows 0..11 match (b(n)+1)/2 shifted by one "
                  f"for {count} terms")


def test_criterion_06_degenerate_matches_plain():
    rng = random.Random(0xACCE_06)
    failures = 0
    for _ in range(500):
        dfa = random_dfa(rng)
        word = random_word(rng, dfa.alphabet)
        result = reduce_charge(None, *delta_c(degenerate_ddfa(dfa), dfa.start, word))
        if result.state != delta_star(dfa, dfa.start, word) or result.value != 1:
            failures += 1
    report(6, failures == 0,
           f"500 random automata: degenerate reduced run = plain run with charge 1 "
           f"({failures} failures)")


def test_criterion_07_conservation():
    rng = random.Random(0xACCE_07)
    failures = 0
    for _ in range(500):
        auto = random_ddfa(rng)
        assert validate_rules(auto).ok
        state = auto.start
        vector = {p: F(p == auto.start) for p in auto.states}
        for symbol in random_word(rng, auto.alphabet):
            state, vector = charge_step(auto, state, vector, symbol)
            if sum(vector.values()) != 1 or any(
                not 0 <= c <= 1 for c in vector.values()
            ):
                failures += 1
                break
    report(7, failures == 0,
           f"500 random rule sets: every intermediate vector sums to 1 and stays "
           f"in [0,1] ({failures} failures)")


def test_criterion_08_e_relations():
    t0 = time.perf_counter()
    e = builtin_sequence("e")
    doubling_failures = [n for n in range(2**14 + 1) if e(2 * n) != e(n)]
    rep = verify_quasi_k_regular(e, load_spec("e_quasi_spec.json"), 2**14, depth=1)
    elapsed = time.perf_counter() - t0
    # the two-option memberships e(4n+1) and e(4n+3)
    memberships = [rep.levels[(2, 1)], rep.levels[(2, 3)]]
    branch_counts = [hits for level in memberships for hits in level.option_hits]
    option_counts = [hits for level in rep.levels.values() for hits in level.option_hits]
    ok = (
        rep.verified
        and not doubling_failures
        and all(level.ok for level in memberships)
        and len(branch_counts) == 4
        and all(c >= 5 for c in option_counts)
        and elapsed < 30.0
    )
    report(8, ok, f"e(2n)=e(n) and both memberships hold to n=2^14 in {elapsed:.1f}s; "
                  f"branch hit counts {branch_counts}")


def test_criterion_09_quasi_regularity():
    tcal_report = verify_quasi_k_regular(
        builtin_sequence("tcal"), load_spec("tcal_quasi_spec.json"), 4096, 3
    )
    e_report = verify_quasi_k_regular(
        builtin_sequence("e"), load_spec("e_quasi_spec.json"), 4096, 3
    )
    t_spec = load_spec("t_singleton_spec.json")
    t_report = verify_quasi_k_regular(builtin_sequence("t"), t_spec, 4096, 3)
    # m = 0 and one option per menu: a flat k-regular relation list
    flat = t_spec.m == 0 and all(len(menu.options) == 1 for menu in t_spec.menus.values())
    ok = tcal_report.verified and e_report.verified and t_report.verified and flat
    report(9, ok, f"specs verified to depth 3 at N=4096 (tcal:{tcal_report.verified} "
                  f"e:{e_report.verified} t:{t_report.verified}), "
                  f"t spec is a flat relation list: {flat}")


def test_criterion_10_kernel_evidence():
    t_report = k_kernel(builtin_sequence("t"), 2, 6, 64)
    t_ok = all(t_report.distinct_counts[d] == 2 for d in range(1, 7))
    tcal_report = k_kernel(builtin_sequence("tcal"), 2, 6, 64)
    counts = tcal_report.distinct_counts
    tcal_ok = all(counts[d] < counts[d + 1] for d in range(1, 6))
    report(10, t_ok and tcal_ok,
           f"digit-parity kernel stays at 2 vectors (depths 1-6); prime-driven "
           f"kernel grows strictly: {counts[1:]}")


def test_criterion_11_conjecture_finding():
    outcomes = {}
    for name, auto in (("tm_ddfa", build_tm_ddfa()), ("fr_ddfao", build_fr_ddfao())):
        seq = charge_sequence(auto, "numerator")
        found = search_relation_menus(seq, k=2, E=1, m=1, level=2, coeff_bound=2,
                                      limit=2048)
        if not found.complete:
            outcomes[name] = "no cover within bounds"
            continue
        verified = verify_quasi_k_regular(seq, found.to_spec(), 2048, 1).verified
        outcomes[name] = "verified menus" if verified else "menus found, reverify failed"
    supported = all(v == "verified menus" for v in outcomes.values())
    status = "PASS" if supported else "FINDING"
    print(f"[criterion 11] {status}  numerator-scaled charge sequences at N=2048, "
          f"coeff bound 2: {outcomes} (open problem: reported, not proved)")
    for name, outcome in outcomes.items():
        assert outcome in ("verified menus", "no cover within bounds",
                           "menus found, reverify failed")
