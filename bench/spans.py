"""Span recorder that traces the program from outside.

``Tracer.install`` replaces each target function with a wrapper in every
loaded ``hpcwl.*`` module that binds it (modules rebind names through
``from ... import``), in ``report.ANALYSES``, and on the ``Filters`` class.
``Tracer.restore`` puts every original binding back.  Spans (name, start,
end, parent) are kept in memory and written out once at the end.  Functions
called hundreds of thousands of times per run are counted, not spanned.
"""
from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Target:
    """A function to trace: where it is defined and the span name it gets."""

    module: str
    attr: str  # "name" or "Class.method"
    name: str
    count_only: bool = False
    on_result: Callable | None = None


def _pairs(fn, args, kwargs, result) -> int:
    """Samples x frequencies of one lomb_scargle call, from its arguments."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    times = bound.arguments.get("times_seconds")
    freqs = bound.arguments.get("freq_grid_per_day")
    if times is None or freqs is None:
        return 0
    return len(times) * len(freqs)


def _classified(fn, args, kwargs, result) -> int:
    return int(result not in ("uncategorized", "NA"))


TARGETS = (
    Target("hpcwl.ingest", "load_jobs", "ingest.load_jobs"),
    Target("hpcwl.ingest", "load_allocations", "ingest.load_allocations"),
    Target("hpcwl.ingest", "build_dataset", "ingest.build_dataset"),
    Target("hpcwl.ingest", "utc_date", "ingest.utc_date", count_only=True),
    Target("hpcwl.ingest", "job_xd_su", "ingest.job_xd_su", count_only=True),
    Target("hpcwl.ingest", "su_convert", "ingest.su_convert", count_only=True),
    Target("hpcwl.perfsummary", "load_archives", "perfsummary.load_archives"),
    Target("hpcwl.perfsummary", "summarize_all", "perfsummary.summarize_all"),
    Target("hpcwl.perfsummary", "write_summaries", "perfsummary.write_summaries"),
    Target("hpcwl.appident", "resolve_job_app", "appident.resolve_job_app",
           on_result=_classified),
    Target("hpcwl.metrics.rollups", "Filters.apply", "metrics.rollups.filters_apply"),
    Target("hpcwl.metrics.rollups", "usage_rollup", "metrics.rollups.usage_rollup"),
    Target("hpcwl.metrics.rollups", "average_job_size_series",
           "metrics.rollups.average_job_size_series"),
    Target("hpcwl.metrics.rollups", "job_size_distribution",
           "metrics.rollups.job_size_distribution"),
    Target("hpcwl.metrics.rollups", "single_node_serial_fractions",
           "metrics.rollups.single_node_serial_fractions"),
    Target("hpcwl.metrics.depth", "depth_profile", "metrics.depth.depth_profile"),
    Target("hpcwl.metrics.depth", "joint_ratio", "metrics.depth.joint_ratio"),
    Target("hpcwl.metrics.depth", "width_curves", "metrics.depth.width_curves"),
    Target("hpcwl.metrics.memory", "memory_histograms", "metrics.memory.memory_histograms"),
    Target("hpcwl.metrics.memory", "memory_2d", "metrics.memory.memory_2d"),
    Target("hpcwl.metrics.memory", "large_memory_breakdown",
           "metrics.memory.large_memory_breakdown"),
    Target("hpcwl.metrics.lustre", "lustre_stats", "metrics.lustre.lustre_stats"),
    Target("hpcwl.metrics.concurrency", "concurrency_histograms",
           "metrics.concurrency.concurrency_histograms"),
    Target("hpcwl.metrics.gateways", "gateway_usage", "metrics.gateways.gateway_usage"),
    Target("hpcwl.metrics.gateways", "gateway_census", "metrics.gateways.gateway_census"),
    Target("hpcwl.metrics.gateways", "gateway_conversion",
           "metrics.gateways.gateway_conversion"),
    Target("hpcwl.metrics.allocations", "allocation_utilization",
           "metrics.allocations.allocation_utilization"),
    Target("hpcwl.metrics.allocations", "allocation_size_summary",
           "metrics.allocations.allocation_size_summary"),
    Target("hpcwl.metrics.geo", "geo_normalize", "metrics.geo.geo_normalize"),
    Target("hpcwl.backlog", "backlog_series", "backlog.backlog_series"),
    Target("hpcwl.backlog", "wait_stats", "backlog.wait_stats"),
    Target("hpcwl.backlog", "user_queue_depth", "backlog.user_queue_depth"),
    Target("hpcwl.backlog", "capacity_for_percentile", "backlog.capacity_for_percentile"),
    Target("hpcwl.statmodels", "bin_counts", "statmodels.bin_counts"),
    Target("hpcwl.statmodels", "lomb_scargle", "statmodels.lomb_scargle",
           on_result=_pairs),
    Target("hpcwl.statmodels", "fit_node_fail", "statmodels.fit_node_fail"),
    Target("hpcwl.statmodels", "exit_code_table", "statmodels.exit_code_table"),
    Target("hpcwl.report", "run_report", "report.run_report"),
    Target("hpcwl.report", "verify_manifest", "report.verify_manifest"),
)

ANALYSES_MODULE = "hpcwl.report"
ANALYSIS_PREFIX = "report.analysis."


@dataclass
class Tracer:
    """Records spans and call counts while installed."""

    spans: list = field(default_factory=list)  # [name, start, end, parent index]
    counts: dict = field(default_factory=dict)  # name -> calls
    tallies: dict = field(default_factory=dict)  # name -> sum of on_result values
    missing: dict = field(default_factory=dict)  # name -> reason
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)  # (setter, owner, key, original)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name: str, on_result):
        spans, stack, counts, tallies = self.spans, self._stack, self.counts, self.tallies
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            counts[name] = counts.get(name, 0) + 1
            if on_result is not None:
                tallies[name] = tallies.get(name, 0) + on_result(fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- install / restore ----------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            owner = sys.modules.get(target.module)
            if owner is None:
                self.missing[target.name] = f"module {target.module} is not loaded"
                continue
            if "." in target.attr:
                cls_name, meth = target.attr.split(".", 1)
                cls = getattr(owner, cls_name, None)
                original = cls.__dict__.get(meth) if isinstance(cls, type) else None
                if original is None:
                    self.missing[target.name] = f"{target.module}.{target.attr} not found"
                    continue
                wrapper = self._span_wrapper(original, target.name, target.on_result)
                self._rebind(setattr, cls, meth, original, wrapper)
                continue
            original = getattr(owner, target.attr, None)
            if not callable(original):
                self.missing[target.name] = f"{target.module}.{target.attr} not found"
                continue
            wrapper = (self._count_wrapper(original, target.name) if target.count_only
                       else self._span_wrapper(original, target.name, target.on_result))
            for module in _hpcwl_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(setattr, module, key, original, wrapper)
        report = sys.modules.get(ANALYSES_MODULE)
        analyses = getattr(report, "ANALYSES", None)
        if not isinstance(analyses, dict):
            self.missing[ANALYSIS_PREFIX + "*"] = f"{ANALYSES_MODULE}.ANALYSES not found"
            return
        for key, original in list(analyses.items()):
            wrapper = self._span_wrapper(original, ANALYSIS_PREFIX + key, None)
            self._rebind(dict.__setitem__, analyses, key, original, wrapper)

    def _rebind(self, setter, owner, key, original, wrapper) -> None:
        setter(owner, key, wrapper)
        self._restore.append((setter, owner, key, original))

    def restore(self) -> None:
        while self._restore:
            setter, owner, key, original = self._restore.pop()
            setter(owner, key, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "tallies": self.tallies,
                "missing": self.missing}


def _hpcwl_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "hpcwl" or name.startswith("hpcwl."))]


# ---------------------------------------------------------------------------
# analysis of a dumped trace

def span_totals(spans: list) -> tuple[dict, dict]:
    """Inclusive and self seconds per span name.

    Inclusive time counts a name once even when it nests inside itself; self
    time is a span's duration minus the part its child spans cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[idx]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    return inclusive, self_time
