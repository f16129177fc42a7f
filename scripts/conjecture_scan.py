#!/usr/bin/env python3
"""Scan the scaled-charge conjecture over a range of search parameters.

For each builtin automaton, the reduced-charge numerator sequence is fed
to the menu search at increasing window sizes and coefficient bounds; the
script reports which settings yield a verified cover. Empirical evidence
only, nothing here proves the open question.
"""

from __future__ import annotations

import argparse
import os
import sys

from ddfa import (
    build_fr_ddfao,
    build_tm_ddfa,
    describe_combination,
    final_charge_sequence,
    numerator_sequence,
    search_relation_menus,
    verify_quasi_k_regular,
)


def scan(name: str, auto, limits, bounds, show_menus: bool) -> None:
    seq = numerator_sequence(final_charge_sequence(auto, 2))
    print(f"== {name}")
    for coeff_bound in bounds:
        for limit in limits:
            found = search_relation_menus(
                seq, k=2, E=1, m=1, level=2, coeff_bound=coeff_bound, limit=limit
            )
            if not found.complete:
                holes = sum(len(v) for v in found.uncovered.values())
                print(f"  C={coeff_bound} N={limit}: {holes} indices uncovered")
                continue
            verified = verify_quasi_k_regular(seq, found.to_spec(), limit, 1).verified
            sizes = [len(m.options) for _, m in sorted(found.menus.items())]
            print(f"  C={coeff_bound} N={limit}: cover sizes {sizes}, "
                  f"verified={verified}")
            if show_menus:
                for key, menu in sorted(found.menus.items()):
                    options = " | ".join(
                        describe_combination(opt, 2) for opt in menu.options
                    )
                    print(f"    {key}: {options}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limits", type=int, nargs="+", default=[256, 1024, 2048])
    parser.add_argument("--bounds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--show-menus", action="store_true")
    args = parser.parse_args()
    scan("2-state numerators", build_tm_ddfa(), args.limits, args.bounds, args.show_menus)
    scan("4-state numerators", build_fr_ddfao(), args.limits, args.bounds, args.show_menus)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed early, as in `| head -1`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
