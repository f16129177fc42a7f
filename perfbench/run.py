"""ddfa benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload simulate|check|conjecture --seed N \
        --seconds S --trace 0|1

The workload's operations are generated from the seed and run as rounds. A
round is one fresh interpreter (``perfbench/worker.py`` on ``PYTHONPATH=src``)
that imports ddfa, parses the inputs, and sends the operations one at a time
through ``ddfa.cli.main``. Rounds run one after another until the next would
end past S seconds; every run pools at least 100 latencies. Every output is
checked.
The report lines name each metric with its unit; the last line is one JSON
object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of ``BENCHMARK.json``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / workloads.WORK
WORKER = Path(__file__).resolve().parent / "worker.py"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

MIN_SAMPLES = 100  # p90 needs at least 10 latencies above it
SETUPS_PER_ROUND = 6  # set-up-only rounds after each untraced round, for setup_s
TIME_LIMIT = 160  # seconds; no round starts that could end past this

# The rate each workload is about, reported as work_per_s: (name, unit of
# work, operation kinds whose time it is divided by).
RATES = {
    "terms_per_s": ("terms", ("sequence",)),
    "steps_per_s": ("steps", ("run",)),
    "checks_per_s": ("checks", ("verify", "conjecture")),
    "candidates_per_s": ("candidates", ("search", "conjecture")),
}
HEADLINE_RATE = {"simulate": "terms_per_s", "check": "checks_per_s",
                 "conjecture": "candidates_per_s"}


def _arguments(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare(plan: dict) -> None:
    for sub in ("in", "out"):
        shutil.rmtree(WORK / sub, ignore_errors=True)
        (WORK / sub).mkdir(parents=True)
    for path, doc in plan["documents"].items():
        (ROOT / path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    (WORK / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    (WORK / "setup.json").write_text(json.dumps(dict(plan, ops=[])), encoding="utf-8")
    # Compile once so that no round pays for byte-compiling ddfa in its set-up.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/ddfa"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)


def _round(traced: bool, deadline: float, plan: str = "plan.json") -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(WORKER), str(WORK / plan), str(WORK / "out"),
         "--trace", str(int(traced))],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Outcome:
    """Checks every operation of the first round, then compares digests."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.first: list[str] | None = None
        self.first_failed: list[bool] = []
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        digests = recorded.get(plan["workload"], {}).get(str(plan["seed"]))
        self.recorded = digests.split() if digests else None
        if self.recorded is not None and len(self.recorded) != len(plan["ops"]):
            self.recorded = [""] * len(plan["ops"])  # recorded for another plan: all differ
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.conjecture_checks = 0

    def add(self, result: dict) -> None:
        digests, failed = [], []
        for i, (op, ran) in enumerate(zip(self.plan["ops"], result["ops"])):
            out = (WORK / "out" / f"{i}.out").read_bytes()
            err = (WORK / "out" / f"{i}.err").read_bytes()
            digests.append(checks.digest(ran["exit"], out, err))
            if self.first is None:
                problems = checks.check(op, ran["exit"], out.decode(), err.decode())
                if self.recorded and self.recorded[i] != digests[-1]:
                    problems.append("output digest differs from the recorded one")
                if op["kind"] == "conjecture":
                    self.conjecture_checks += checks.conjecture_checks(op, out.decode())
                self.problems += [f"op {i} {' '.join(op['argv'])[:80]}: {p}" for p in problems]
                failed.append(bool(problems))
            else:
                if digests[-1] != self.first[i]:
                    self.problems.append(f"op {i}: output differs from the first round's")
                failed.append(self.first_failed[i] or digests[-1] != self.first[i])
        if self.first is None:
            self.first, self.first_failed = digests, failed
        self.attempted += len(failed)
        self.failed += sum(failed)


def _percentile(samples: list[float], p: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def _end_to_end(plan: dict, rounds: list[dict], setups: list[float],
                outcome: Outcome) -> dict:
    """Timings pool every round: CPU speed on a shared host drifts over tens
    of seconds, so a mean over all rounds is steadier than a median of a few."""
    ops = plan["ops"]
    latencies = [op["s"] for r in rounds for op in r["ops"]]
    metrics = {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
        "wall_s": statistics.mean(sum(op["s"] for op in r["ops"]) for r in rounds),
        "op_p50_ms": 1000 * _percentile(latencies, 50),
        "op_p90_ms": 1000 * _percentile(latencies, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    for rate, (unit, kinds) in RATES.items():
        work = sum(op["params"].get(unit, 0) for op in ops if op["kind"] in kinds)
        if unit == "checks":
            work += outcome.conjecture_checks
        seconds = sum(t["s"] for r in rounds for op, t in zip(ops, r["ops"])
                      if op["kind"] in kinds)
        metrics[rate] = work * len(rounds) / seconds if work else 0.0
    metrics["work_per_s"] = metrics[HEADLINE_RATE[plan["workload"]]]
    metrics["fail_ratio"] = outcome.failed / outcome.attempted
    metrics["samples"] = len(latencies)
    return metrics


def _per_layer(rounds: list[dict], untraced: list[dict]) -> dict:
    layers = [dict(r["layers"]) for r in rounds]
    for r, layer in zip(rounds, layers):
        layer.update({f"sequences.lru.{k}": v for k, v in r["lru"].items()})
        layer["cli.output_bytes"] = r["output_bytes"]
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    wall = [sum(op["s"] for op in r["ops"]) for r in rounds]
    plain = [sum(op["s"] for op in r["ops"]) for r in untraced]
    metrics["trace.overhead_ratio"] = statistics.median(wall) / statistics.median(plain)
    return metrics


def main(argv=None) -> int:
    args = _arguments(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and waits for
    # the running worker instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "ddfa" / "cli.py").is_file():
        print(f"error: no ddfa sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    plan = workloads.plan(args.workload, args.seed)
    _prepare(plan)
    outcome = Outcome(plan)
    started = time.monotonic()
    deadline = started + TIME_LIMIT
    min_rounds = 1 if args.trace else -(-MIN_SAMPLES // len(plan["ops"]))
    # Rounds run until the next one would end past --seconds, but never fewer
    # than min_rounds. A traced run alternates untraced and traced rounds,
    # starting untraced, and ends after a traced one.
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    longest = 0.0
    while True:
        trace_round = bool(args.trace) and len(traced) < len(plain)
        if not trace_round and len(plain) >= min_rounds and (
                time.monotonic() + longest > min(started + args.seconds, deadline)):
            break
        begun = time.monotonic()
        result = _round(trace_round, deadline + 15)
        if not args.trace:
            # Spread through the run, the set-ups see the same drift as the rounds.
            setups += [_round(False, deadline + 15, "setup.json")["setup_s"]
                       for _ in range(SETUPS_PER_ROUND)]
        longest = max(longest, time.monotonic() - begun)
        outcome.add(result)
        (traced if trace_round else plain).append(result)

    if args.trace:
        metrics = _per_layer(traced, plain)
    else:
        metrics = _end_to_end(plan, plain, setups, outcome)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} rounds"
          f"{f' + {len(traced)} traced' if traced else ''}, "
          f"{outcome.attempted} operations, {outcome.failed} failed")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({rate: "1/s" for rate in RATES}, fail_ratio="ratio", samples="count")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units.get(name, '')}")
    for problem in outcome.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
