"""Seeded operation lists for the three benchmark workloads.

``plan(workload, seed)`` returns the documents to write and the closed-loop
list of CLI operations for one fresh-interpreter round. The same seed always
gives the same plan. What each workload stresses, and why, is written down in
``perfbench/README.md``.

Sizes are stratified rather than drawn freely: the seed picks automata, words
and limits within fixed strata, so the amount of work per round, and the
operations that the latency percentiles fall on, stay nearly the same across
seeds. The order of operations is fixed, because operations of one round
share the lru_cache memos and a seeded order would make their hits depend on
the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

CORPUS = "src/ddfa/corpus"
WORK = ".bench_work"
INPUTS = f"{WORK}/in"

TM = f"{CORPUS}/tm_ddfa.json"
FR = f"{CORPUS}/fr_ddfao.json"
SPECS = {
    "e": f"{CORPUS}/e_quasi_spec.json",
    "tcal": f"{CORPUS}/tcal_quasi_spec.json",
    "t": f"{CORPUS}/t_singleton_spec.json",
}
# (k, E, m) of the corpus specs, needed to count verify checks.
SPEC_SHAPES = {"e": (2, 1, 1), "tcal": (2, 0, 0), "t": (2, 0, 0)}

WORKLOADS = ("simulate", "check", "conjecture")

# Operation counts per round (51, 25 and 22) are chosen so that p50 and p90
# of the latencies pooled over a run's rounds fall inside one operation's
# block of samples rather than between two operations, and on operations of
# 0.1 s or more, whose latency varies less with load.


def digit_count(n: int, base: int) -> int:
    """Length of the canonical base-``base`` word of n (n = 0 is one digit)."""
    count = 1
    while n >= base:
        n //= base
        count += 1
    return count


def _op(kind: str, argv: list[str], expect_exit: int = 0, **params) -> dict:
    return {"kind": kind, "argv": argv, "expect_exit": expect_exit, "params": params}


def _sequence(doc: str, count: int, offset: int, form: str, base: int, oracle: str,
              golden: str | None = None) -> dict:
    argv = ["sequence", doc, "--count", str(count), "--form", form]
    if offset:
        argv += ["--offset", str(offset)]
    steps = sum(digit_count(n, base) for n in range(offset, offset + count))
    return _op("sequence", argv, doc=doc, offset=offset, count=count, form=form,
               oracle=oracle, golden=golden, terms=count, steps=steps)


def _run(doc: str, word: str, golden: str | None = None) -> dict:
    return _op("run", ["run", doc, word, "--trace"], doc=doc, word=word,
               golden=golden, steps=len(word))


def _verify(seq: str, spec: str, shape: tuple[int, int, int], limit: int, depth: int,
            golden: str | None = None) -> dict:
    k, E, m = shape
    argv = ["verify", "--seq", seq, "--spec", spec, "--max", str(limit),
            "--depth", str(depth)]
    levels = [(e, r) for e in range(E + 1, E + depth + 1) for r in range(k**e)]
    return _op("verify", argv, levels=levels, checked=limit - m + 1, depth=depth,
               golden=golden, checks=len(levels) * (limit - m + 1))


def _kernel(seq: str, depth: int) -> dict:
    return _op("kernel", ["kernel", "--seq", seq, "--depth", str(depth)],
               depth=depth, window=64)


def search_candidates(k: int, E: int, level: int, coeff_bound: int) -> int:
    """Candidates a search enumerates: coefficient vector x constant x residue."""
    basis = sum(k**f for f in range(E + 1))
    return k**level * (2 * coeff_bound + 1) ** (basis + 1)


# ---------------------------------------------------------------------------
# random discharging automata


def random_document(rng: random.Random, states: int, base: int, with_output: bool) -> dict:
    """A valid ddfa/ddfao document: random transitions and exact unit-sum weights.

    Weights of one (state, symbol) family are a random composition of a
    small denominator, so some are zero and the charges' denominators grow
    at different rates from one automaton to the next.
    """
    names = [f"q{i}" for i in range(states)]
    alphabet = [str(d) for d in range(base)]
    transitions = [
        {"from": q, "symbol": s, "to": rng.choice(names)} for q in names for s in alphabet
    ]
    discharge = []
    for q in names:
        current, not_current = {}, {}
        for s in alphabet:
            denominator = rng.choice((2, 3, 4, 6))
            cuts = sorted(rng.randint(0, denominator) for _ in range(base - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [denominator])]
            weights = [str(Fraction(p, denominator)) for p in parts]
            current[s] = weights[0]
            not_current[s] = dict(zip([t for t in alphabet if t != s], weights[1:]))
        discharge.append({"state": q, "current": current, "notCurrent": not_current})
    doc = {
        "kind": "ddfao" if with_output else "ddfa",
        "states": names,
        "alphabet": alphabet,
        "start": names[0],
        "transitions": transitions,
        "discharge": discharge,
    }
    if with_output:
        doc["output"] = {q: str(rng.randint(0, 1)) for q in names}
        doc["valuation"] = {q: str(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
                            for q in names}
    else:
        doc["accepting"] = [q for q in names if rng.random() < 0.5]
    return doc


def _random_word(rng: random.Random, alphabet: list[str], length: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


# ---------------------------------------------------------------------------
# workloads


def _simulate(rng: random.Random, documents: dict) -> list[dict]:
    ops = [
        _run(TM, "1010", golden="tm_ddfa.run1010.txt"),
        _run(FR, "1010", golden="fr_ddfao.run1010.txt"),
        _sequence(TM, 15, 0, "charge", 2, "a", golden="tm_ddfa.seq15.txt"),
        _sequence(TM, 25, 0, "numerator", 2, "a_numerator", golden="tm_ddfa.num25.txt"),
        _sequence(FR, 17, 0, "reduced", 2, "d", golden="fr_ddfao.red17.txt"),
    ]
    # Contiguous terms [0, 30720) of both corpus machines, in fifteen windows
    # each; the first window is a prefix and is matched against the goldens.
    # The 30 windows outnumber the 21 lighter operations of a round, so p50
    # and p90 both fall among windows, whose sizes do not depend on the seed.
    chunk = 2048
    for doc, form, oracle, golden in ((TM, "charge", "a", "tm_ddfa.seq15.txt"),
                                      (FR, "reduced", "d", "fr_ddfao.red17.txt")):
        for offset in range(0, 15 * chunk, chunk):
            ops.append(_sequence(doc, chunk, offset, form, 2, oracle,
                                 golden=golden if offset == 0 else None))
    # Seeded automata: up to 8 states, base 2 or 3; ddfao ones carry a
    # valuation and are read in reduced form. Their 1024 terms take about
    # half as long as a window, so these seed-dependent operations stay below
    # the percentiles.
    random_docs = []
    for i in range(6):
        states = rng.randint(2, 8)
        base = rng.choice((2, 3))
        with_output = i % 2 == 1
        path = f"{INPUTS}/random{i}.json"
        documents[path] = random_document(rng, states, base, with_output)
        random_docs.append((path, base))
        form = "reduced" if with_output else "charge"
        ops.append(_sequence(path, 1024, 0, form, base, "reference"))
    # Long random words share no prefixes. Lengths are stratified, [640, 1024)
    # on the corpus machines and [128, 256) on the seeded ones, so every seed
    # gets the same spread of lengths.
    for i in range(4):
        length = 640 + 96 * i + rng.randrange(96)
        ops.append(_run((TM, FR)[i % 2], _random_word(rng, ["0", "1"], length)))
    for i, (doc, base) in enumerate(random_docs):
        length = 128 + 21 * i + rng.randrange(21)
        ops.append(_run(doc, _random_word(rng, [str(d) for d in range(base)], length)))
    return ops


def _check(rng: random.Random, documents: dict) -> list[dict]:
    ops = [
        _verify(seq, SPECS[seq], SPEC_SHAPES[seq], 512, 2,
                golden=SPECS[seq].rsplit("/", 1)[1].replace(".json", ".verify.txt"))
        for seq in ("tcal", "e", "t")
    ]
    for seq in ("e", "tcal", "t"):
        for depth in (1, 2, 3):
            ops.append(_verify(seq, SPECS[seq], SPEC_SHAPES[seq],
                               4096 - rng.randrange(256), depth))
    # Two more depth-3 verifies of e make the p90 operation one of three of
    # about the same size, so that p90 pools 12 samples instead of 4.
    ops += [_verify("e", SPECS["e"], SPEC_SHAPES["e"], 4096 - rng.randrange(256), 3)
            for _ in range(2)]
    ops.append(_kernel("t", 8))
    ops += [_kernel("tcal", depth) for depth in (5, 6, 7, 8)]
    ops += [_kernel(seq, depth) for seq in ("e", "b") for depth in (6, 7, 8)]
    return ops


# Builtins whose level-2 cover with E = 1 and coefficient bound 2 is complete
# for every --max in [64, 256].
_SEARCHED = ("t", "tcal", "b", "e")


def _conjecture(rng: random.Random, documents: dict) -> list[dict]:
    ops = []
    # N = 2048 is left out: its two runs take 3-5 s each, too few samples per
    # run for steady figures on a 2-core machine. Bound 2 finds a cover for
    # the builtins at N = 1024; bound 1 finds none at any N in 960-1087. The
    # two bound-1 runs, of about a second each, are where p90 falls (22
    # operations a round): a pool of samples from two operations of one size,
    # well apart from the searches below and the bound-2 run above.
    for bound, limit in ((2, 1024), (1, 960 + rng.randrange(64)),
                         (1, 1024 + rng.randrange(64))):
        candidates = 2 * search_candidates(2, 1, 2, bound)
        ops.append(_op("conjecture",
                       ["verify", "--conjecture", "scaled-charges", "--max", str(limit),
                        "--coeff-bound", str(bound)],
                       expect_exit=0 if bound == 2 else 1,
                       limit=limit, candidates=candidates))
    # Four strata of --max, 96-239, for each builtin.
    for i in range(4):
        for seq in _SEARCHED:
            limit = 96 + 36 * i + rng.randrange(36)
            argv = ["search", "--seq", seq, "--E", "1", "--level", "2",
                    "--coeff-bound", "2", "--max", str(limit)]
            out = None
            if i == 0 and seq != "b":
                out = f"{INPUTS}/{seq}.spec.json"
                argv += ["--out", out]
            ops.append(_op("search", argv, k=2, level=2, out=out,
                           candidates=search_candidates(2, 1, 2, 2)))
            if out:
                # The README tour: re-verify the spec the search wrote.
                ops.append(_verify(seq, out, (2, 1, 0), limit, 1))
    return ops


def plan(workload: str, seed: int) -> dict:
    """Documents to write (path -> JSON object) and the operations of one round."""
    generators = {"simulate": _simulate, "check": _check, "conjecture": _conjecture}
    if workload not in generators:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    documents: dict[str, dict] = {}
    ops = generators[workload](rng, documents)
    read = {arg for op in ops for arg in op["argv"]}
    inputs = {
        "documents": sorted(p for p in read if p in (TM, FR) or p in documents),
        "specs": sorted(p for p in read if p in SPECS.values()),
    }
    return {"workload": workload, "seed": seed, "documents": documents,
            "inputs": inputs, "ops": ops}
