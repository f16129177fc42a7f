#!/usr/bin/env python3
"""Print the step-by-step charge traces of the two builtin automata.

Walks the word 1010 through both machines, showing how the unit charge
splits at every step, and lists the first terms of the derived sequences
next to their closed-form counterparts.
"""

from __future__ import annotations

import os
import sys

from ddfa import (
    a_recursion,
    build_fr_ddfao,
    build_tm_ddfa,
    charge_trajectory,
    d_shape_closed_form,
    final_charge_sequence,
)


def show_trace(title: str, auto, word: str) -> None:
    print(f"== {title}: word {word!r}")
    for i, (state, vector) in enumerate(charge_trajectory(auto, auto.start, word)):
        charges = "  ".join(f"{q}={vector[q]}" for q in auto.states)
        label = "start" if i == 0 else f"after {word[i - 1]}"
        print(f"  {label:>8}  at {state}  [{charges}]")
    print()


def main() -> None:
    tm = build_tm_ddfa()
    fr = build_fr_ddfao()
    show_trace("2-state equal split", tm, "1010")
    show_trace("4-state equal split", fr, "1010")

    print("== first 16 charge terms against their closed forms")
    tm_seq = final_charge_sequence(tm, 2)
    fr_seq = final_charge_sequence(fr, 2)
    print(f"  {'n':>3}  {'charge':>7} {'recursion':>9}   {'charge4':>7} {'shape':>7}")
    for n in range(16):
        print(
            f"  {n:>3}  {str(tm_seq(n)):>7} {str(a_recursion(n)):>9}   "
            f"{str(fr_seq(n)):>7} {str(d_shape_closed_form(n)):>7}"
        )


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed early, as in `| head -1`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
