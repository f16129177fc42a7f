"""Command line front end: validate, run, sequence, verify, search, kernel, dot.

Exit codes are a stable contract for scripting: 0 on success or a verified
check, 1 when a verification fails or the reader of stdout closes early, 2 on
any input error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path

from .automata import delta_star, parse_word, to_dot, validate_dfa
from .discharge import charge_trajectory, delta_c, reduce_charge, validate_rules
from .documents import (
    DocumentError,
    corpus_path,
    parse_document,
    parse_spec_document,
    serialize_spec_document,
)
from .regularity import (
    WORK_LIMIT,
    Sequence,
    describe_combination,
    search_relation_menus,
    k_kernel,
    verify_quasi_k_regular,
)
from .sequences import (
    BUILTIN_SEQUENCE_NAMES,
    CHARGE_FORMS,
    builtin_sequence,
    charge_b_file_text,
    charge_sequence,
    read_b_file,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from None


def _load_sequence(name_or_path: str) -> Sequence:
    if name_or_path in BUILTIN_SEQUENCE_NAMES:
        return builtin_sequence(name_or_path)
    if Path(name_or_path).exists():
        return read_b_file(_read(name_or_path))
    raise DocumentError(
        f"{name_or_path!r} is neither a builtin sequence {BUILTIN_SEQUENCE_NAMES} "
        "nor an existing file"
    )


@contextmanager
def _any_int_digits():
    """Lift CPython's int -> str digit limit, where it has one, for exact output.

    The limit guards parsing untrusted text; an exact value ddfa computed
    is printed whatever its size. The old limit is restored on exit.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _format_vector(states, vector) -> str:
    return " ".join(f"{q}={vector[q]}" for q in states)


def cmd_validate(args) -> int:
    auto = parse_document(_read(args.document), check=False)
    report = validate_dfa(auto)
    print(report)
    ok = report.ok
    if auto.rules is not None:
        rule_report = validate_rules(auto)
        print(rule_report)
        ok = ok and rule_report.ok
    return EXIT_OK if ok else EXIT_FAILED


def cmd_run(args) -> int:
    auto = parse_document(_read(args.document))
    word = parse_word(auto.alphabet, args.word)
    if auto.rules is None and not args.trace:  # a trace is a charge run, which needs rules
        state = delta_star(auto, auto.start, word)
        print(state if auto.output is None else f"{state} {auto.output[state]}")
        return EXIT_OK
    with _any_int_digits():
        if args.trace:
            for i, (state, vector) in enumerate(charge_trajectory(auto, auto.start, word)):
                prefix = "start" if i == 0 else f"read {word[i - 1]} ->"
                print(f"step {i}: {prefix} {state}  {_format_vector(auto.states, vector)}")
            charge = vector[state]  # of the last snapshot
        else:
            state, charge = delta_c(auto, auto.start, word)
        print(f"{state} {charge}")
        if auto.valuation is not None:
            print(f"reduced {reduce_charge(auto.valuation, state, charge)}")
    return EXIT_OK


def cmd_sequence(args) -> int:
    auto = parse_document(_read(args.document))
    if args.count < 1:
        raise DocumentError(f"--count must be >= 1, got {args.count}")
    if args.count > WORK_LIMIT:
        raise DocumentError(f"--count {args.count} is over the limit of {WORK_LIMIT} terms")
    if args.offset < 0:
        raise DocumentError(f"--offset must be >= 0, got {args.offset}")
    with _any_int_digits():
        text = charge_b_file_text(auto, args.form, args.count, args.offset)
        if args.bfile:
            _write(args.bfile, text)
        sys.stdout.write(text)
    return EXIT_OK


def cmd_dot(args) -> int:
    sys.stdout.write(to_dot(parse_document(_read(args.document))))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.conjecture:
        given = [f"--{name}" for name in ("seq", "spec", "depth") if vars(args)[name] is not None]
        if given:
            raise DocumentError(f"--conjecture takes no {' or '.join(given)}")
        return _cmd_conjecture(args)
    if args.coeff_bound is not None:
        raise DocumentError("only --conjecture takes --coeff-bound")
    if not args.seq or not args.spec:
        raise DocumentError("verify needs --seq and --spec (or --conjecture)")
    seq = _load_sequence(args.seq)
    spec = parse_spec_document(_read(args.spec))
    report = verify_quasi_k_regular(seq, spec, args.max, 3 if args.depth is None else args.depth)
    for (e, r), level in sorted(report.levels.items()):
        status = "ok" if level.ok else f"FAILED first at n={level.first_failure}"
        print(f"level ({e},{r}): checked {level.checked}, {status}")
        for i, opt in enumerate(level.menu.options):
            print(
                f"  option {i + 1} [hits {level.option_hits[i]}]: "
                f"{describe_combination(opt, spec.k)}"
            )
    if report.verified:
        print(f"verified to depth {report.depth}")
        return EXIT_OK
    print(f"not verified (depth {report.depth})")
    return EXIT_FAILED


# One numerator producer per corpus document and process, keyed by the corpus
# name and not a path, so that a rewritten file is never read stale.
@cache
def _conjecture_sequence(name: str) -> Sequence:
    return charge_sequence(parse_document(_read(str(corpus_path(f"{name}.json")))), "numerator")


def _cmd_conjecture(args) -> int:
    ok = True
    bound = 2 if args.coeff_bound is None else args.coeff_bound
    for name in ("tm_ddfa", "fr_ddfao"):
        seq = _conjecture_sequence(name)
        found = search_relation_menus(
            seq, k=2, E=1, m=1, level=2, coeff_bound=bound, limit=args.max
        )
        if not found.complete:
            holes = {key: v for key, v in found.uncovered.items() if v}
            print(f"{name}: no menu cover within bounds, uncovered {holes}")
            ok = False
            continue
        report = verify_quasi_k_regular(seq, found.to_spec(), args.max, depth=1)
        for (e, r), level in sorted(report.levels.items()):
            options = " | ".join(
                describe_combination(opt, 2) for opt in level.menu.options
            )
            print(f"{name} level ({e},{r}): hits {level.option_hits}  menu: {options}")
        if report.verified:
            print(f"{name}: scaled charge sequence admits verified menus "
                  f"(N={args.max}, coeff bound {bound})")
        else:
            print(f"{name}: menus found but re-verification FAILED")
            ok = False
    print("conjecture scaled-charges: " + ("supported at desk scale" if ok else "NOT supported"))
    return EXIT_OK if ok else EXIT_FAILED


def cmd_search(args) -> int:
    seq = _load_sequence(args.seq)
    result = search_relation_menus(
        seq,
        k=args.k,
        E=args.E,
        m=args.m,
        level=args.level,
        coeff_bound=args.coeff_bound,
        limit=args.max,
    )
    if result.complete and args.out:
        _write(args.out, serialize_spec_document(result.to_spec()))
    for (e, r), menu in sorted(result.menus.items()):
        options = " | ".join(describe_combination(opt, args.k) for opt in menu.options)
        holes = result.uncovered[(e, r)]
        note = "" if not holes else f"  UNCOVERED {holes[:8]}"
        print(f"level ({e},{r}): {options or '(nothing matched)'}{note}")
    if result.complete and args.out:
        print(f"wrote spec to {args.out}")
    if result.complete:
        print("cover complete")
        return EXIT_OK
    print("cover incomplete")
    return EXIT_FAILED


def cmd_kernel(args) -> int:
    seq = _load_sequence(args.seq)
    report = k_kernel(seq, args.k, args.depth, args.window)
    for d in range(args.depth + 1):
        print(
            f"depth {d}: {report.distinct_counts[d]} distinct vectors, "
            f"rank {report.ranks[d]}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddfa",
        description="Exact-arithmetic runs of charge-discharging automata and "
        "relation checks on the derived sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an automaton document")
    p.add_argument("document")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("run", help="run a word through an automaton")
    p.add_argument("document")
    p.add_argument("word", help="input word; empty string for the empty word")
    p.add_argument("--trace", action="store_true", help="print per-step charge vectors")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("sequence", help="list charge-derived sequence terms")
    p.add_argument("document")
    p.add_argument("--count", type=int, required=True, help="number of terms")
    p.add_argument(
        "--form",
        choices=CHARGE_FORMS,
        default="charge",
        help="charge: final charges; reduced: valuation-weighted; "
        "numerator: numerators of the reduced (or charge) values",
    )
    p.add_argument("--bfile", help="also write the terms to this file")
    p.add_argument("--offset", type=int, default=0, help="first index (default 0)")
    p.set_defaults(handler=cmd_sequence)

    p = sub.add_parser("verify", help="check a relation spec against a sequence")
    p.add_argument("--seq", help=f"builtin {BUILTIN_SEQUENCE_NAMES} or a sequence file")
    p.add_argument("--spec", help="relation spec document")
    p.add_argument("--max", type=int, default=4096, help="largest n checked (default 4096)")
    p.add_argument("--depth", type=int, help="levels above E to check (default 3)")
    p.add_argument(
        "--conjecture",
        choices=("scaled-charges",),
        help="instead: search+verify menus for the numerator-scaled charge "
        "sequences of both builtin automata",
    )
    p.add_argument("--coeff-bound", type=int,
                   help="coefficient bound for --conjecture search (default 2)")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("search", help="brute-force relation menus from data")
    p.add_argument("--seq", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--E", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--level", type=int, required=True, help="subsequence level e to cover")
    p.add_argument("--coeff-bound", type=int, default=1)
    p.add_argument("--max", type=int, default=256, help="largest n matched (default 256)")
    p.add_argument("--out", help="write the found menus as a spec document")
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("kernel", help="distinct kernel vectors and exact rank per depth")
    p.add_argument("--seq", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--window", type=int, default=64)
    p.set_defaults(handler=cmd_kernel)

    p = sub.add_parser("dot", help="emit the state diagram as Graphviz DOT")
    p.add_argument("document")
    p.set_defaults(handler=cmd_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:  # DocumentError and SpecError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:  # the reader closed early, as in `| head -1`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
