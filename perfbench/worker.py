"""One benchmark round in a fresh interpreter.

Usage: python3 perfbench/worker.py PLAN.json OUTDIR --trace 0|1

Run from the checkout root with ``PYTHONPATH=src``. The round imports ddfa,
parses the plan's documents and specs, builds the builtins, then sends the
plan's operations one after another through ``ddfa.cli.main(argv)`` (a closed
loop with one client). Each operation's stdout and stderr go to files in
OUTDIR; the round's timings go to this process's stdout as one JSON line.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

# The lru_cache memos at module level in ddfa.sequences.
LRU_MEMOS = ("a_recursion", "t_sequence", "thue_morse", "_triangle_entry")
BUILTIN_NAMES = ("a", "b", "d", "e", "t", "tcal", "a131271")


def _setup(plan: dict) -> None:
    """Parse every document and spec the plan reads and build the builtins."""
    from ddfa import discharge, documents, sequences

    for path in plan["inputs"]["documents"]:
        documents.parse_document(Path(path).read_text(encoding="utf-8"))
    for path in plan["inputs"]["specs"]:
        documents.parse_spec_document(Path(path).read_text(encoding="utf-8"))
    discharge.build_tm_ddfa()
    discharge.build_fr_ddfao()
    for name in BUILTIN_NAMES:
        sequences.builtin_sequence(name)


def _run_op(main, argv: list[str], out_path: Path, err_path: Path) -> tuple[float, object]:
    with open(out_path, "w", encoding="utf-8") as out, \
            open(err_path, "w", encoding="utf-8") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception:  # noqa: BLE001 - a crash is recorded as a failed operation
            traceback.print_exc()
            code = "exception"
        return time.perf_counter() - start, code


def main() -> int:
    plan_path, out_dir = Path(sys.argv[1]), Path(sys.argv[2])
    traced = sys.argv[3:] == ["--trace", "1"]
    plan = json.loads(plan_path.read_text(encoding="utf-8"))

    start = time.perf_counter()
    import ddfa.cli
    from ddfa import sequences

    cli_main, setup = ddfa.cli.main, _setup
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        cli_main, setup = tracer.root("cli.main", cli_main), tracer.root("setup", setup)
    setup(plan)
    setup_s = time.perf_counter() - start

    ops = []
    output_bytes = 0
    for i, op in enumerate(plan["ops"]):
        out_path, err_path = out_dir / f"{i}.out", out_dir / f"{i}.err"
        seconds, code = _run_op(cli_main, op["argv"], out_path, err_path)
        output_bytes += out_path.stat().st_size
        ops.append({"s": seconds, "exit": code})

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()  # gives back the memos' own cache_info
    result = {
        "setup_s": setup_s,
        "ops": ops,
        "peak_rss_mb": peak_rss_mb,
        "lru": _lru_totals(sequences),
        "output_bytes": output_bytes,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(out_dir / "spans.tsv")
    print(json.dumps(result))
    return 0


def _lru_totals(module) -> dict:
    totals = {"hits": 0, "misses": 0, "entries": 0}
    for name in LRU_MEMOS:
        info = getattr(getattr(module, name, None), "cache_info", None)
        if info is not None:
            stats = info()
            totals["hits"] += stats.hits
            totals["misses"] += stats.misses
            totals["entries"] += stats.currsize
    return totals


if __name__ == "__main__":
    sys.exit(main())
