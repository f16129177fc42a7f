"""Output checks for benchmark operations, independent of the ddfa package.

Every operation's output is checked by one of the functions below, using
oracles written here rather than imported from ddfa: the halving recursion for
the 2-state charges, the word-shape closed form for the 4-state reduced
charges, and a plain exact simulation of charge runs for the seeded automata.
Goldens come from the shipped corpus. A check returns a list of problems; an
empty list means the output is right.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

GOLDEN = Path("src/ddfa/corpus/golden")


def digest(code, out: bytes, err: bytes) -> str:
    """Short fingerprint of one operation's exit code and both output streams."""
    h = hashlib.sha256(f"{code}\n".encode())
    h.update(out)
    h.update(b"\0")
    h.update(err)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# oracles

_A_TABLE = [Fraction(1, 2), Fraction(1, 2)]


def a_value(n: int) -> Fraction:
    """a(0) = a(1) = 1/2, a(2m) = a(m)/2, a(2m+1) = 1 - a(m)/2."""
    while len(_A_TABLE) <= n:
        m = len(_A_TABLE)
        half = _A_TABLE[m // 2] / 2
        _A_TABLE.append(1 - half if m % 2 else half)
    return _A_TABLE[n]


def d_value(n: int) -> Fraction:
    """Reduced charge of the 4-state automaton, by the shape of n's binary word."""
    if n == 0:
        return Fraction(1, 2)
    rest = format(n, "b")[1:]
    if rest.startswith("1"):
        return Fraction(3, 4)
    if "1" not in rest:
        return Fraction(1, 2 ** (len(rest) + 1))
    return 1 - Fraction(1, 2 ** (rest.index("1") + 2))


class Reference:
    """Exact charge runs of one automaton document, straight from its JSON."""

    def __init__(self, doc: dict):
        self.states = doc["states"]
        self.alphabet = doc["alphabet"]
        self.start = doc["start"]
        self.to = {(t["from"], t["symbol"]): t["to"] for t in doc["transitions"]}
        self.weights = {}
        for entry in doc["discharge"]:
            q = entry["state"]
            for s in self.alphabet:
                edges = [(self.to[(q, s)], Fraction(entry["current"][s]))]
                edges += [(self.to[(q, t)], Fraction(w))
                          for t, w in entry["notCurrent"][s].items()]
                self.weights[(q, s)] = edges
        self.valuation = {q: Fraction(v) for q, v in doc.get("valuation", {}).items()}

    def trajectory(self, word: str):
        state = self.start
        vector = {q: Fraction(int(q == state)) for q in self.states}
        snapshots = [(state, dict(vector))]
        for s in word:
            moving, vector[state] = vector[state], Fraction(0)
            for target, weight in self.weights[(state, s)]:
                vector[target] += moving * weight
            state = self.to[(state, s)]
            snapshots.append((state, dict(vector)))
        return snapshots

    def value(self, word: str, form: str) -> Fraction:
        state, vector = self.trajectory(word)[-1]
        charge = vector[state]
        return self.valuation[state] * charge if form == "reduced" else charge


def _word(n: int, base: int) -> str:
    digits = ""
    while True:
        n, d = divmod(n, base)
        digits = str(d) + digits
        if n == 0:
            return digits


_DOCUMENTS: dict[str, Reference] = {}


def _reference(path: str) -> Reference:
    text = Path(path).read_text(encoding="utf-8")  # keyed by content: seeds reuse paths
    if text not in _DOCUMENTS:
        _DOCUMENTS[text] = Reference(json.loads(text))
    return _DOCUMENTS[text]


# ---------------------------------------------------------------------------
# per-kind checks


def _golden(out: str, name: str | None, exact: bool) -> list[str]:
    if not name:
        return []
    golden = (GOLDEN / name).read_text(encoding="utf-8")
    if out == golden or (not exact and out.startswith(golden)):
        return []
    return [f"output differs from golden {name}"]


def check_sequence(p: dict, out: str) -> list[str]:
    lines = out.splitlines()
    if len(lines) != p["count"]:
        return [f"{len(lines)} lines, expected {p['count']}"]
    problems = _golden(out, p["golden"], exact=False)
    ref = _reference(p["doc"]) if p["oracle"] == "reference" else None
    for i, line in enumerate(lines):
        n = p["offset"] + i
        index, _, text = line.partition(" ")
        if index != str(n):
            return problems + [f"line {i} has index {index}, expected {n}"]
        if p["oracle"] == "a":
            expected = a_value(n)
        elif p["oracle"] == "a_numerator":
            expected = a_value(n).numerator
        elif p["oracle"] == "d":
            expected = d_value(n)
        elif n % 8 == 0 or i == len(lines) - 1:  # reference simulation on a sample
            expected = ref.value(_word(n, len(ref.alphabet)), p["form"])
        else:
            continue
        if Fraction(text) != expected:
            return problems + [f"term {n} is {text}, expected {expected}"]
    return problems


_STEP = re.compile(r"step (\d+): (?:start|read (\S+) ->) (\S+)  (.*)")


def check_run(p: dict, out: str) -> list[str]:
    ref = _reference(p["doc"])
    snapshots = ref.trajectory(p["word"])
    lines = out.splitlines()
    problems = _golden(out, p["golden"], exact=True)
    steps = lines[:len(snapshots)]
    for i, (line, (state, vector)) in enumerate(zip(steps, snapshots)):
        match = _STEP.fullmatch(line)
        if not match or int(match.group(1)) != i or match.group(3) != state:
            return problems + [f"step line {i} is malformed or in the wrong state"]
        values = {}
        for item in match.group(4).split(" "):
            q, _, v = item.partition("=")
            values[q] = Fraction(v)
        if sum(values.values()) != 1:
            return problems + [f"charges at step {i} sum to {sum(values.values())}, not 1"]
        if values != vector:
            return problems + [f"charge vector at step {i} differs from the reference"]
    state, vector = snapshots[-1]
    tail = [f"{state} {vector[state]}"]
    if ref.valuation:
        tail.append(f"reduced {ref.valuation[state] * vector[state]}")
    if len(steps) != len(snapshots) or lines[len(snapshots):] != tail:
        problems.append("final state, charge or reduced value differs from the reference")
    return problems


_LEVEL = re.compile(r"level \((\d+),(\d+)\): checked (\d+), ok")
_OPTION = re.compile(r"  option \d+ \[hits (\d+)\]: .*")


def check_verify(p: dict, out: str) -> list[str]:
    problems = _golden(out, p["golden"], exact=True)
    lines = out.splitlines()
    if not lines or lines[-1] != f"verified to depth {p['depth']}":
        return problems + ["spec not verified"]
    levels, hits = [], []
    for line in lines[:-1]:
        level, option = _LEVEL.fullmatch(line), _OPTION.fullmatch(line)
        if level:
            if int(level.group(3)) != p["checked"]:
                problems.append(f"level line {line!r} checked the wrong count")
            levels.append([int(level.group(1)), int(level.group(2))])
            hits.append(0)
        elif option and hits:
            hits[-1] += int(option.group(1))
        else:
            return problems + [f"unexpected line {line!r}"]
    if levels != [list(level) for level in p["levels"]]:
        problems.append("levels reported differ from the levels of the spec")
    if any(h < p["checked"] for h in hits):
        problems.append("a level reports fewer option hits than indices checked")
    return problems


_DEPTH = re.compile(r"depth (\d+): (\d+) distinct vectors, rank (\d+)")


def check_kernel(p: dict, out: str) -> list[str]:
    rows = [_DEPTH.fullmatch(line) for line in out.splitlines()]
    if len(rows) != p["depth"] + 1 or not all(rows):
        return ["kernel output malformed"]
    last_distinct = last_rank = 0
    for d, row in enumerate(rows):
        distinct, rank = int(row.group(2)), int(row.group(3))
        if int(row.group(1)) != d or distinct < last_distinct or rank < last_rank:
            return [f"depth {d}: counts out of order"]
        if rank > min(distinct, p["window"]) or distinct > 2 ** (d + 1) - 1:
            return [f"depth {d}: {distinct} vectors with rank {rank} is impossible"]
        last_distinct, last_rank = distinct, rank
    return []


def check_search(p: dict, out: str) -> list[str]:
    lines = out.splitlines()
    if not lines or lines[-1] != "cover complete":
        return ["cover not complete"]
    levels = [line for line in lines if line.startswith("level (")]
    if len(levels) != p["k"] ** p["level"] or any("UNCOVERED" in l for l in levels):
        return ["search did not report a covering menu for every residue"]
    if p["out"]:
        if f"wrote spec to {p['out']}" not in lines:
            return ["search did not write its spec"]
        if json.loads(Path(p["out"]).read_text(encoding="utf-8")).get("kind") != "quasi-spec":
            return ["written spec is not a quasi-spec document"]
    return []


def check_conjecture(p: dict, out: str, code) -> list[str]:
    lines = out.splitlines()
    verdict = "supported at desk scale" if code == 0 else "NOT supported"
    if not lines or lines[-1] != f"conjecture scaled-charges: {verdict}":
        return ["conjecture verdict does not match the exit code"]
    if code == 0:
        for name in ("tm_ddfa", "fr_ddfao"):
            claim = (f"{name}: scaled charge sequence admits verified menus "
                     f"(N={p['limit']}, coeff bound 2)")
            if claim not in lines:
                return [f"missing verified-menus line for {name}"]
    return []


def check(op: dict, code, out: str, err: str) -> list[str]:
    """Problems with one operation's result; empty when it is right."""
    problems = []
    if code != op["expect_exit"]:
        problems.append(f"exit {code}, expected {op['expect_exit']}")
    if err:
        problems.append(f"stderr: {err.strip().splitlines()[-1][:200]}")
    p, kind = op["params"], op["kind"]
    try:
        if kind == "sequence":
            problems += check_sequence(p, out)
        elif kind == "run":
            problems += check_run(p, out)
        elif kind == "verify":
            problems += check_verify(p, out)
        elif kind == "kernel":
            problems += check_kernel(p, out)
        elif kind == "search":
            problems += check_search(p, out)
        elif kind == "conjecture":
            problems += check_conjecture(p, out, code)
    except (ValueError, ZeroDivisionError, KeyError, OSError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def conjecture_checks(op: dict, out: str) -> int:
    """Index checks made by a --conjecture run: one per verified level line."""
    return sum(op["params"]["limit"] for line in out.splitlines() if " level (" in line)
