"""Steadiness test for the benchmark: do repeated sets of runs agree?

Usage: python3 perfbench/steadiness.py [--workloads W ...]

Runs ``perfbench/run.py`` once per seed and workload, one run at a time, for
two sets of ten seeds (0-9, then 10-19), each run as long as BENCHMARK.json's
run_seconds. For every end-to-end metric it reports, per set, the median over
the seeds and the spread: the distance between the first and third quartile
as a share of the median. It fails (exit 1) if any spread exceeds the
metric's bound in BENCHMARK.json, if the median of the second set is worse
than the first set's by more than the bound, or if any run fails.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
SEEDS = 10  # per set; set s runs seeds SEEDS*s .. SEEDS*(s+1)-1


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    ok = True
    for workload in args.workloads:
        sets = []
        for s in range(SETS):
            runs = []
            for seed in range(SEEDS * s, SEEDS * (s + 1)):
                runs.append(_run(workload, seed, spec["run_seconds"]))
                print(f"  {workload} seed {seed}: " + " ".join(
                    f"{k}={v:.5g}" for k, v in runs[-1].items()), flush=True)
            sets.append({m["name"]: [r[m["name"]] for r in runs] for m in spec["end_to_end"]})
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = [statistics.median(values[name]) for values in sets]
            spreads = [spread(values[name]) for values in sets]
            worse = [(med - medians[0]) / medians[0] * (1 if m["better"] == "lower" else -1)
                     for med in medians[1:]]
            bad = max(spreads) > bound or any(w > bound for w in worse)
            ok &= not bad
            print(f"{workload:10s} {name:12s} bound {bound:.2f}  medians "
                  + " ".join(f"{v:.6g}" for v in medians)
                  + "  spreads " + " ".join(f"{v:.3f}" for v in spreads)
                  + (("  worse " + " ".join(f"{w:+.3f}" for w in worse)) if worse else "")
                  + ("  FAIL" if bad else ""), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
