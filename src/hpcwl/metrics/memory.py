"""Memory usage distributions built from per-job performance summaries.

A job without memory data is never dropped: its weight goes to the
histogram's absent bucket (or is totaled separately for the large-memory
breakdown) so consumers can see how much usage the plots cannot represent.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..ingest import ResourceSpec
from ..jobtable import Codes, JobTable, group_totals
from .histograms import (
    Histogram1D,
    Histogram2D,
    default_job_size_edges,
    default_memory_edges,
    fraction_edges,
    log_edges,
)
from .perfcolumns import PerfColumns


def node_mem_available(spec: ResourceSpec, queue: str) -> float | None:
    """Memory available per node for a job's queue, in bytes."""
    if queue in spec.large_memory_queues and spec.large_mem_per_node is not None:
        return float(spec.large_mem_per_node)
    if spec.mem_per_node is None:
        return None
    return float(spec.mem_per_node)


def _node_memory(table: JobTable) -> tuple[np.ndarray, np.ndarray]:
    """Each row's available node memory in bytes (NaN where it is unknown or
    not positive) and whether its queue is a large-memory queue, from one
    ``node_mem_available`` call per (resource, queue) pair."""
    width = len(table.queue.names)
    pair = table.resource.codes.astype(np.int64) * width + table.queue.codes
    pairs, inverse = np.unique(pair, return_inverse=True)
    available, large = [], []
    for p in pairs.tolist():
        spec = table.resources.get(table.resource.names[p // width])
        queue = table.queue.names[p % width]
        mem = None if spec is None else node_mem_available(spec, queue)
        available.append(mem if mem is not None and mem > 0 else None)
        large.append(spec is not None and queue in spec.large_memory_queues)
    inverse = inverse.reshape(-1)
    return (np.array(available, dtype=np.float64)[inverse],
            np.array(large, dtype=bool)[inverse])


def _known_weights(table: JobTable, weight: str) -> np.ndarray:
    """The weights, with 0.0 for a job that has no SU factor."""
    w = table.weights(weight)
    return np.where(np.isnan(w), 0.0, w)


def memory_histograms(table: JobTable,
                      perf: PerfColumns,
                      mode: str = "per_core_avg",
                      weight: str = "core_hours",
                      edges: Sequence[float] | None = None) -> Histogram1D:
    """Histogram of per-core memory (bytes), average or peak, weighted.
    A job with no SU factor weighs 0.0 under "xd_su"."""
    if mode not in ("per_core_avg", "per_core_max"):
        raise ValueError(f"unknown mode {mode!r}")
    perf.check(table)
    values = perf.mem_avg_per_core if mode == "per_core_avg" else perf.mem_max_per_core
    return Histogram1D.of(tuple(edges) if edges else default_memory_edges(), values,
                          _known_weights(table, weight), weight_kind=weight)


X_AXES = ("fraction_cores_of_system", "cpu_user_fraction", "nodes")
Y_AXES = ("fraction_mem_used", "total_peak_mem")


def memory_2d(table: JobTable,
              perf: PerfColumns,
              x: str = "cpu_user_fraction",
              y: str = "fraction_mem_used",
              weight: str = "core_hours",
              x_edges: Sequence[float] | None = None,
              y_edges: Sequence[float] | None = None) -> Histogram2D:
    """2-D histogram pairing a memory measure with a job-shape measure.
    A job with no summary or on a resource with no description is absent
    (both y measures are NaN for it).

    ``fraction_mem_used`` is the average per-core memory scaled by the
    node's core count over the node memory of the job's queue, which
    reproduces the per-node usage whatever the job's core count.
    """
    if x not in X_AXES:
        raise ValueError(f"unknown x axis {x!r}")
    if y not in Y_AXES:
        raise ValueError(f"unknown y axis {y!r}")
    if x_edges is None:
        x_edges = default_job_size_edges() if x == "nodes" else fraction_edges()
    if y_edges is None:
        y_edges = (log_edges(8, 15) if y == "total_peak_mem" else fraction_edges())
    perf.check(table)
    cores_per_node = table.per_resource(lambda spec: spec.cores_per_node)
    if x == "fraction_cores_of_system":
        xv = table.cores / table.per_resource(lambda spec: spec.total_cores)
    elif x == "cpu_user_fraction":
        xv = perf.cpu_user_fraction
    else:
        xv = table.nodes.astype(np.float64)
    if y == "fraction_mem_used":
        yv = perf.mem_avg_per_core * cores_per_node / _node_memory(table)[0]
    else:
        yv = perf.mem_max_per_core * cores_per_node * table.nodes
    return Histogram2D.of(tuple(x_edges), tuple(y_edges), xv, yv,
                          _known_weights(table, weight), weight_kind=weight)


@dataclass
class LargeMemoryBreakdown:
    """XD SU of high-memory jobs split into normal-queue and large-queue
    series, grouped two ways."""

    normal_threshold: float
    large_threshold: float
    by_parent_science: dict[str, dict[str, float]] = field(default_factory=dict)
    by_app: dict[str, dict[str, float]] = field(default_factory=dict)
    absent_xd_su: float = 0.0  # usage that memory data cannot represent


def large_memory_breakdown(table: JobTable,
                           perf: PerfColumns,
                           normal_threshold: float = 0.8,
                           large_threshold: float = 0.1) -> LargeMemoryBreakdown:
    """High-memory usage by parent science and application, in XD SU.

    Normal-queue jobs qualify above normal_threshold of node memory at peak;
    large-memory-queue jobs above large_threshold of the large node memory.
    A job on a resource with no description or with no SU factor is left
    out; jobs with no peak memory count in ``absent_xd_su``.
    """
    perf.check(table)
    cores_per_node = table.per_resource(lambda spec: spec.cores_per_node)
    available, on_large_queue = _node_memory(table)
    fraction = perf.mem_max_per_core * cores_per_node / available
    # series per row: 0 large, 1 normal, 2 absent, 3 neither
    series = np.full(len(table), 3)
    series[on_large_queue & (fraction > large_threshold)] = 0
    series[~on_large_queue & (fraction > normal_threshold)] = 1
    series[np.isnan(fraction)] = 2
    # a job with no SU factor (which includes an unknown resource) counts nowhere
    xd_su = table.weights("xd_su")
    counted = ~np.isnan(xd_su)
    su = xd_su[counted]
    series = series[counted]
    totals = np.bincount(series, su, minlength=4).astype(np.float64).tolist()
    high = series < 2
    names = Codes(("large", "normal"), series[high])
    return LargeMemoryBreakdown(
        normal_threshold=normal_threshold, large_threshold=large_threshold,
        by_parent_science=group_totals(names, table.parent_science.take(counted).take(high),
                                       su[high]),
        by_app=group_totals(names, perf.app_label.take(counted).take(high), su[high]),
        absent_xd_su=totals[2])
