"""Record the output digests that later runs of the benchmark compare against.

Usage: python3 perfbench/record_digests.py

For seeds 0-19 of every workload (the seeds ``steadiness.py`` runs), runs
one untraced round, checks every output with ``checks.check`` and stores one
digest per operation in ``perfbench/digests.json``. Run it only at a commit whose outputs are known to
be right (the digests shipped here were recorded on the seed commit of ddfa);
a later change that alters any output byte then shows up as a failed
operation for these seeds.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads


SEEDS = 20


def main() -> int:
    recorded = {}
    for workload in workloads.WORKLOADS:
        recorded[workload] = {}
        for seed in range(SEEDS):
            plan = workloads.plan(workload, seed)
            run._prepare(plan)
            outcome = run.Outcome(plan)
            outcome.recorded = None
            outcome.add(run._round(False, time.monotonic() + 170))
            if outcome.failed:
                print("\n".join(outcome.problems), file=sys.stderr)
                return 1
            recorded[workload][str(seed)] = " ".join(outcome.first)
            print(f"{workload} seed {seed}: {len(outcome.first)} digests", flush=True)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
