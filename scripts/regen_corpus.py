#!/usr/bin/env python3
"""Regenerate the shipped corpus documents and their golden outputs.

Run from the repository root after changing builders, serializers, or CLI
output formats; the test suite compares against these files byte for byte
and runs the commands in ``GOLDENS``.
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
    parse_spec_document,
    serialize_document,
    serialize_spec_document,
)
from ddfa.cli import main as cli_main

CORPUS = Path(__file__).resolve().parent.parent / "src" / "ddfa" / "corpus"
GOLDEN = CORPUS / "golden"
TM = str(CORPUS / "tm_ddfa.json")
FR = str(CORPUS / "fr_ddfao.json")
TM_DFAO = str(CORPUS / "tm_dfao.json")

# golden file name -> the ddfa command line whose stdout it holds
GOLDENS = {
    "tm_ddfa.run1010.txt": ("run", TM, "1010", "--trace"),
    "fr_ddfao.run1010.txt": ("run", FR, "1010", "--trace"),
    "tm_ddfa.dot": ("dot", TM),
    "fr_ddfao.dot": ("dot", FR),
    "tm_dfao.dot": ("dot", TM_DFAO),
    "tm_ddfa.seq15.txt": ("sequence", TM, "--count", "15", "--form", "charge"),
    "tm_ddfa.num25.txt": ("sequence", TM, "--count", "25", "--form", "numerator"),
    "fr_ddfao.red17.txt": ("sequence", FR, "--count", "17", "--form", "reduced"),
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
       for seq in ("a", "b", "d", "e", "t", "tcal", "a131271")},
}


def capture_cli(*argv: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(list(argv))
    if code != 0:
        raise SystemExit(f"cli {argv} exited {code}")
    return buffer.getvalue()


def write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    print("wrote", path)


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, build in (("tm_ddfa.json", build_tm_ddfa), ("fr_ddfao.json", build_fr_ddfao),
                        ("tm_dfao.json", build_tm_dfao)):
        write(CORPUS / name, serialize_document(build()))
    # each spec document is its own source; this writes it back in canonical form
    for path in sorted(CORPUS.glob("*_spec.json")):
        write(path, serialize_spec_document(parse_spec_document(path.read_text(encoding="utf-8"))))
    for name, argv in GOLDENS.items():
        write(GOLDEN / name, capture_cli(*argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
