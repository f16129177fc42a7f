"""Spans and counters around the public entry points of each ddfa layer.

The tracer wraps functions from outside the package: every module-level name
in ``ddfa.*`` that is bound to a wrapped function is rebound to the wrapper,
so calls are caught where the caller looks them up (for example both
``ddfa.sequences.delta_c`` and ``ddfa.discharge.delta_c``). Nothing under
``src/`` changes. A span is (name, start, end, parent); spans stay in memory
and are written out once the round ends. Each ``*.s`` metric is self time:
the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict

from workloads import search_candidates

# Closed forms behind the builtin sequences; nested and recursive calls
# (a_recursion calls itself through the module global) count once.
CLOSED_FORMS = ("a_recursion", "d_shape_closed_form", "e_sequence", "t_sequence",
                "thue_morse")

# Span names in reporting order; each becomes "<name>.s" (self time).
LAYER_SPANS = {
    "automata.word": "automata.word_s",
    "discharge.delta_c": "discharge.delta_c.s",
    "discharge.trajectory": "discharge.trajectory.s",
    "sequences.closed_form": "sequences.closed_form.s",
    "sequences.bfile": "sequences.bfile.s",
    "regularity.verify": "regularity.verify.s",
    "regularity.search": "regularity.search.s",
    "regularity.kernel": "regularity.kernel.s",
    "documents.parse": "documents.parse.s",
    "cli.main": "cli.self_s",
}


def _ddfa_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ddfa" or name.startswith("ddfa."))]


def _denominator_bits(value) -> int:
    return getattr(value, "denominator", 1).bit_length()


class Tracer:
    """Spans and counters for one round; ``install`` wraps, ``uninstall`` undoes."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.charge_bits = 0
        self.requested: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.active: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self.stack.pop()

    def root(self, name: str, fn):
        """``fn`` wrapped in a span; used for whole operations and set-up."""
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    # -- wrapping ------------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for module in _ddfa_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrap(self, module_name: str, attr: str, span: str, after=None):
        """Span and count every call; ``after(args, kwargs, result)`` counts more."""
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            return
        counts, active = self.counts, self.active

        def wrapper(*args, **kwargs):
            counts[f"{span}.calls"] += 1
            active[span] += 1
            index = self._open(span)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
                active[span] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        self._rebind(original, wrapper)

    def _wrap_closed_form(self, attr: str) -> None:
        original = getattr(sys.modules["ddfa.sequences"], attr, None)
        if original is None:
            return

        active = self.active

        def wrapper(*args, **kwargs):
            if active["sequences.closed_form"]:
                return original(*args, **kwargs)
            active["sequences.closed_form"] += 1
            index = self._open("sequences.closed_form")
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)
                active["sequences.closed_form"] -= 1

        self._rebind(original, wrapper)

    def _wrap_term(self) -> None:
        sequence_class = getattr(sys.modules["ddfa.sequences"], "Sequence", None)
        original = getattr(sequence_class, "term", None)
        if original is None:
            return
        counts, requested, active = self.counts, self.requested, self.active

        def term(seq, n):
            counts["sequences.term.calls"] += 1
            if active["regularity.verify"]:
                counts["regularity.verify.seq_calls"] += 1
            seen = requested.get(seq)
            if seen is None:
                seen = requested[seq] = set()
            if n not in seen:
                seen.add(n)
                counts["sequences.term.misses"] += 1
            return original(seq, n)

        for attr in ("term", "__call__"):
            if getattr(sequence_class, attr, None) is original:
                self._restore.append((sequence_class, attr, original))
                setattr(sequence_class, attr, term)

    def install(self) -> None:
        import ddfa.cli  # noqa: F401 - loads every ddfa module

        counts = self.counts

        def charge_run(args, kwargs, result):
            word_arg = args[2] if len(args) > 2 else kwargs.get("word", ())
            counts["discharge.steps"] += len(word_arg) if hasattr(word_arg, "__len__") else 0
            if isinstance(result, list):  # trajectory: charge on the last state
                state, vector = result[-1]
                charge = vector[state]
            else:
                charge = result[1]
            self.charge_bits = max(self.charge_bits, _denominator_bits(charge))

        def verify(args, kwargs, result):
            for level in result.levels.values():
                options = len(level.menu.options)
                counts["regularity.resolve.menus"] += 1
                counts["regularity.resolve.options"] += options
                counts["regularity.verify.option_evals"] += level.checked * options

        def search(args, kwargs, result):
            names = ("seq", "k", "E", "m", "level", "coeff_bound", "limit")
            bound = dict(zip(names, args), **kwargs)
            counts["regularity.search.candidates"] += search_candidates(
                bound["k"], bound["E"], bound["level"], bound["coeff_bound"])
            counts["regularity.search.chosen"] += sum(
                len(menu.options) for menu in result.menus.values())

        def kernel(args, kwargs, result):
            k = result.k
            counts["regularity.kernel.vectors"] += sum(k**d for d in range(result.depth + 1))
            counts["regularity.kernel.inserts"] += result.distinct_counts[-1]
            counts["regularity.kernel.rank"] += result.ranks[-1]

        def parse(args, kwargs, result):
            text = args[0] if args else kwargs.get("text", "")
            counts["documents.parse.bytes"] += len(text.encode("utf-8"))

        self._wrap("ddfa.automata", "base_k_word", "automata.word")
        self._wrap("ddfa.discharge", "delta_c", "discharge.delta_c", after=charge_run)
        self._wrap("ddfa.discharge", "charge_trajectory", "discharge.trajectory",
                   after=charge_run)
        self._wrap("ddfa.sequences", "b_file_text", "sequences.bfile")
        self._wrap("ddfa.regularity", "verify_quasi_k_regular", "regularity.verify",
                   after=verify)
        self._wrap("ddfa.regularity", "search_relation_menus", "regularity.search",
                   after=search)
        self._wrap("ddfa.regularity", "k_kernel", "regularity.kernel", after=kernel)
        self._wrap("ddfa.documents", "parse_document", "documents.parse", after=parse)
        self._wrap("ddfa.documents", "parse_spec_document", "documents.parse", after=parse)
        for attr in CLOSED_FORMS:
            self._wrap_closed_form(attr)
        self._wrap_term()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            totals[name] += end - start - child
        return totals

    def layer_metrics(self) -> dict[str, float]:
        c = self.counts
        metrics = {
            "automata.words": c["automata.word.calls"],
            "discharge.delta_c.calls": c["discharge.delta_c.calls"],
            "documents.parse.calls": c["documents.parse.calls"],
        }
        metrics.update({key: c[key] for key in (
            "discharge.steps",
            "sequences.term.calls", "sequences.term.misses",
            "regularity.resolve.menus", "regularity.resolve.options",
            "regularity.verify.option_evals", "regularity.verify.seq_calls",
            "regularity.search.candidates", "regularity.search.chosen",
            "regularity.kernel.vectors", "regularity.kernel.inserts",
            "regularity.kernel.rank", "documents.parse.bytes")})
        metrics["discharge.charge_bits"] = self.charge_bits
        calls = c["sequences.term.calls"]
        metrics["sequences.memo_hit_ratio"] = (
            1 - c["sequences.term.misses"] / calls if calls else 0.0)
        candidates = c["regularity.search.candidates"]
        metrics["regularity.search.useful_ratio"] = (
            c["regularity.search.chosen"] / candidates if candidates else 0.0)
        inserts = c["regularity.kernel.inserts"]
        metrics["regularity.kernel.useful_ratio"] = (
            c["regularity.kernel.rank"] / inserts if inserts else 0.0)
        self_times = self.self_times()
        for span, metric in LAYER_SPANS.items():
            metrics[metric] = self_times.get(span, 0.0)
        return metrics

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                handle.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
