#!/usr/bin/env python3
"""Tabulate kernel growth for the builtin sequences.

A sequence with bounded kernel rank keeps both columns flat as the depth
grows; steady growth at every depth is desk-scale evidence against such
structure (the window is finite, so this is evidence, not proof).
"""

from __future__ import annotations

import argparse
import os
import sys

from ddfa import builtin_sequence, k_kernel


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--names", nargs="+", default=["t", "tcal", "b", "e"])
    parser.add_argument("--depth", type=int, default=6)
    parser.add_argument("--window", type=int, default=64)
    args = parser.parse_args()
    for name in args.names:
        report = k_kernel(builtin_sequence(name), 2, args.depth, args.window)
        print(f"== {name} (window {args.window})")
        print(f"  depth:    {list(range(args.depth + 1))}")
        print(f"  distinct: {report.distinct_counts}")
        print(f"  rank:     {report.ranks}")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed early, as in `| head -1`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
