"""Span and counter tracing installed from outside the package.

A ``Tracer`` replaces public bernshift callables with wrappers while it is
installed and restores the originals afterwards, so untraced rounds run
the unmodified code.  Module-level functions are replaced in every
bernshift module that holds them, including names other modules imported
(``mul`` in ``factormaps``, ``verify`` and ``coinduce``, for example).

Spans record name, start, end and parent and stay in memory.  Tracing is
single-threaded: the traced round runs every engine at ``threads=1``, so
sibling spans never overlap and a span's self time is its duration minus
the sum of its children's durations.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from bernshift import coinduce, config, factormaps, freegroup, pipeline, verify

# (span name, owner, attribute, work extractor).  An owner is a module
# (the function is replaced wherever bernshift bound it) or a class (the
# method is replaced on that class only).  A work extractor maps the
# call's result to {quantity: amount}.


def _size(result):
    return {"work": int(result.size)}


def _rows(result):
    return {"work": int(result.shape[0])}


def _mc_work(report):
    return {"valid": report.valid_samples, "drawn": report.total}


SPANS = (
    ("config.sample_matrix", config, "sample_matrix", _size),
    ("config.index_matrix", config, "index_matrix", _rows),
    ("config.translate", config, "translate", None),
    ("factormaps.block_batch", factormaps.BlockMap, "apply_batch", _size),
    ("factormaps.star_batch", factormaps.StarMap, "apply_batch", _size),
    ("factormaps.apply", factormaps.BlockMap, "apply", None),
    ("factormaps.apply", factormaps.StarMap, "apply", None),
    ("factormaps.apply", factormaps.ComposedMap, "apply", None),
    ("factormaps.dependency_sites", factormaps.FactorMap, "dependency_sites", None),
    ("factormaps.dependency_sites", factormaps.BlockMap, "dependency_sites", None),
    ("factormaps.dependency_sites", factormaps.StarMap, "dependency_sites", None),
    ("verify.exact", verify, "exact_pushforward", None),
    ("verify.exact", verify, "exact_coset_pushforward", None),
    ("verify.mc", verify, "mc_pushforward", _mc_work),
    ("verify.property", verify, "check_equivariance", None),
    ("verify.property", verify, "check_cocycle", None),
    ("verify.property", verify, "check_coset_roundtrip", None),
    ("freegroup.ball", freegroup, "ball", None),
    ("freegroup.tables", freegroup.SiteSet, "neighbor_indices", None),
    ("freegroup.tables", freegroup.SiteSet, "ray_indices", None),
    ("freegroup.tables", freegroup, "translated_sites", None),
    ("coinduce.split", coinduce, "to_coset_config", None),
    ("coinduce.merge", coinduce, "from_coset_config", None),
    ("coinduce.act", coinduce, "coinduced_act", None),
    ("pipeline.run_chain", pipeline, "run_chain", None),
    ("pipeline.coinduced_apply", pipeline.CoinducedCellMap, "apply", None),
)


def _one(*args, **kwargs) -> int:
    return 1


def _chunk_count(worker, chunks, *args, **kwargs) -> int:
    return len(chunks)


# (counter name, owner, attribute, amount): counted without a span, because
# most of these run millions of times per round.  ``amount`` maps a call's
# arguments to what it adds to the counter.
COUNTERS = (
    ("freegroup.mul_calls", freegroup, "mul", _one),
    ("freegroup.siteset_builds", freegroup.SiteSet, "_finish_init", _one),
    ("config.configuration_builds", config.Configuration, "__init__", _one),
    ("coinduce.cocycle_calls", coinduce, "cocycle", _one),
    ("verify.chunks", verify, "_run_chunks", _chunk_count),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in SPANS))
# The metric name of each span's self time; the engine and chain spans say
# "_self_s" because their children do most of the work.
SELF_METRIC = {name: f"{name}_s" for name in SPAN_NAMES}
for _name in ("verify.exact", "verify.mc", "verify.property", "pipeline.run_chain"):
    SELF_METRIC[_name] = f"{_name}_self_s"

# Rates: (metric, span) -> work per second of that span's self time.
RATES = (
    ("config.sample_values_per_s", "config.sample_matrix"),
    ("config.index_rows_per_s", "config.index_matrix"),
    ("factormaps.block_cells_per_s", "factormaps.block_batch"),
    ("factormaps.star_cells_per_s", "factormaps.star_batch"),
)


class Tracer:
    """Records spans and counts for one traced round.

    The runner installs it around each call of the round and uninstalls
    it before the call's correctness check, so the gate's own work is
    neither timed nor counted.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self.work: defaultdict = defaultdict(Counter)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cache0 = None

    def _span_wrapper(self, name, fn, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if work is not None:
                self.work[name].update(work(result))
            return result

        return wrapper

    def _counter_wrapper(self, name, fn, amount):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += amount(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, make):
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(owner, attr)
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bernshift" or mod_name.startswith("bernshift.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, replacement)

    def install(self) -> None:
        self._cache0 = freegroup.translated_sites.cache_info()
        for name, owner, attr, amount in COUNTERS:
            self._patch(owner, attr, lambda fn, name=name, amount=amount: self._counter_wrapper(name, fn, amount))
        for name, owner, attr, work in SPANS:
            self._patch(owner, attr, lambda fn, name=name, work=work: self._span_wrapper(name, fn, work))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        info = freegroup.translated_sites.cache_info()
        self.counts["translate_cache_hits"] += info.hits - self._cache0.hits
        self.counts["translate_cache_misses"] += info.misses - self._cache0.misses

    def summary(self) -> dict:
        """Self time and call count per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name]["self_s"] += (end - start) - covered
            out[name]["calls"] += 1
        return out


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    """Per-layer metrics of one traced round: self time and call count per
    span, work rates over self time, counts and ratios."""
    summary = tracer.summary()
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[SELF_METRIC[name]] = (summary[name]["self_s"], "s")
        metrics[f"{name}_calls"] = (summary[name]["calls"], "count")
    for metric, span in RATES:
        busy = summary[span]["self_s"]
        metrics[metric] = (tracer.work[span]["work"] / busy if busy > 0 else 0.0, "1/s")
    for name, *_ in COUNTERS:
        metrics[name] = (tracer.counts[name], "count")
    mc = tracer.work["verify.mc"]
    metrics["verify.valid_sample_ratio"] = (mc["valid"] / mc["drawn"] if mc["drawn"] else 0.0, "ratio")
    hits = tracer.counts["translate_cache_hits"]
    lookups = hits + tracer.counts["translate_cache_misses"]
    metrics["freegroup.translate_cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics
