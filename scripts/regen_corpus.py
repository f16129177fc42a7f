#!/usr/bin/env python3
"""Regenerate the shipped corpus documents and their golden outputs.

Run from the repository root after changing builders, serializers, or CLI
output formats; the test suite compares against these files byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from ddfa import (
    build_fr_ddfao,
    build_tm_ddfa,
    build_tm_dfao,
    serialize_document,
    serialize_spec_document,
)
from ddfa.cli import main as cli_main
from ddfa.regularity import (
    AffineCombination,
    QuasiRegularitySpec,
    RelationMenu,
    RelationTerm,
)

CORPUS = Path(__file__).resolve().parent.parent / "src" / "ddfa" / "corpus"
GOLDEN = CORPUS / "golden"


def identity_term() -> AffineCombination:
    return AffineCombination(0, (RelationTerm(1, 0, 0),))


def one_minus_term() -> AffineCombination:
    return AffineCombination(1, (RelationTerm(-1, 0, 0),))


def tcal_spec() -> QuasiRegularitySpec:
    return QuasiRegularitySpec(
        2,
        0,
        0,
        {
            (1, 0): RelationMenu(1, 0, (identity_term(), one_minus_term())),
            (1, 1): RelationMenu(1, 1, (one_minus_term(),)),
        },
    )


def e_spec() -> QuasiRegularitySpec:
    s_n = identity_term()
    s_odd = AffineCombination(0, (RelationTerm(1, 1, 1),))
    doubled_plus_one = AffineCombination(1, (RelationTerm(2, 1, 1),))
    return QuasiRegularitySpec(
        2,
        1,
        1,
        {
            (2, 0): RelationMenu(2, 0, (s_n,)),
            (2, 1): RelationMenu(2, 1, (s_n, doubled_plus_one)),
            (2, 2): RelationMenu(2, 2, (s_odd,)),
            (2, 3): RelationMenu(2, 3, (s_n, s_odd)),
        },
    )


def t_singleton_spec() -> QuasiRegularitySpec:
    return QuasiRegularitySpec(
        2,
        0,
        0,
        {
            (1, 0): RelationMenu(1, 0, (identity_term(),)),
            (1, 1): RelationMenu(1, 1, (one_minus_term(),)),
        },
    )


def capture_cli(*argv: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(list(argv))
    if code != 0:
        raise SystemExit(f"cli {argv} exited {code}")
    return buffer.getvalue()


def main() -> int:
    CORPUS.mkdir(parents=True, exist_ok=True)
    GOLDEN.mkdir(parents=True, exist_ok=True)

    documents = {
        "tm_ddfa.json": build_tm_ddfa(),
        "fr_ddfao.json": build_fr_ddfao(),
        "tm_dfao.json": build_tm_dfao(),
    }
    for name, auto in documents.items():
        (CORPUS / name).write_text(serialize_document(auto), encoding="utf-8")
        print("wrote", CORPUS / name)

    specs = {
        "tcal_quasi_spec.json": tcal_spec(),
        "e_quasi_spec.json": e_spec(),
        "t_singleton_spec.json": t_singleton_spec(),
    }
    for name, spec in specs.items():
        (CORPUS / name).write_text(serialize_spec_document(spec), encoding="utf-8")
        print("wrote", CORPUS / name)

    tm = str(CORPUS / "tm_ddfa.json")
    fr = str(CORPUS / "fr_ddfao.json")
    tmo = str(CORPUS / "tm_dfao.json")
    goldens = {
        "tm_ddfa.run1010.txt": ("run", tm, "1010", "--trace"),
        "fr_ddfao.run1010.txt": ("run", fr, "1010", "--trace"),
        "tm_ddfa.dot": ("dot", tm),
        "fr_ddfao.dot": ("dot", fr),
        "tm_dfao.dot": ("dot", tmo),
        "tm_ddfa.seq15.txt": ("sequence", tm, "--count", "15", "--form", "charge"),
        "tm_ddfa.num25.txt": ("sequence", tm, "--count", "25", "--form", "numerator"),
        "fr_ddfao.red17.txt": ("sequence", fr, "--count", "17", "--form", "reduced"),
        "tcal_quasi_spec.verify.txt": (
            "verify", "--seq", "tcal", "--spec", str(CORPUS / "tcal_quasi_spec.json"),
            "--max", "512", "--depth", "2"),
        "e_quasi_spec.verify.txt": (
            "verify", "--seq", "e", "--spec", str(CORPUS / "e_quasi_spec.json"),
            "--max", "512", "--depth", "2"),
        "e_quasi_spec.verify.d3.N4096.txt": (
            "verify", "--seq", "e", "--spec", str(CORPUS / "e_quasi_spec.json"),
            "--max", "4096", "--depth", "3"),
        "t_singleton_spec.verify.txt": (
            "verify", "--seq", "t", "--spec", str(CORPUS / "t_singleton_spec.json"),
            "--max", "512", "--depth", "2"),
        "tcal.search.E2L3C1.txt": (
            "search", "--seq", "tcal", "--E", "2", "--level", "3",
            "--coeff-bound", "1", "--max", "200"),
        "conjecture.N256.txt": ("verify", "--conjecture", "scaled-charges", "--max", "256"),
        **{f"{seq}.kernel.d8.txt": ("kernel", "--seq", seq, "--depth", "8")
           for seq in ("a", "b", "e", "t", "tcal", "a131271")},
    }
    for name, argv in goldens.items():
        (GOLDEN / name).write_text(capture_cli(*argv), encoding="utf-8")
        print("wrote", GOLDEN / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
