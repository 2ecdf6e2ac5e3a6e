"""Parallel filesystem usage distributions and daily read/write balance.

Reads are bytes received by compute nodes (rx), writes are bytes transmitted
(tx).  Rates are job-duration averages, not instantaneous network rates.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Mapping, Sequence

import numpy as np

from ..jobtable import SECONDS_PER_DAY, JobTable, day_date
from .histograms import Histogram1D, log_edges
from .perfcolumns import PerfColumns, Summaries
from .rollups import Jobs

METRICS = ("file_opens", "bytes_read", "bytes_written", "read_rate", "write_rate")

DEFAULT_EDGES = {
    "file_opens": log_edges(0, 8),
    "bytes_read": log_edges(4, 15),
    "bytes_written": log_edges(4, 15),
    "read_rate": log_edges(0, 11),
    "write_rate": log_edges(0, 11),
}


@dataclass
class LustreStats:
    normalize: str
    unweighted: dict[str, Histogram1D] = field(default_factory=dict)
    node_hour_weighted: dict[str, Histogram1D] = field(default_factory=dict)
    daily: list[tuple[date, float, float]] = field(default_factory=list)


def lustre_stats(jobs: Jobs,
                 summaries: PerfColumns | Summaries,
                 normalize: str = "per_job",
                 edges: Mapping[str, Sequence[float]] | None = None) -> LustreStats:
    """Distributions of filesystem activity per job, unweighted and
    node-hour weighted, plus the daily aggregate read/write series.

    Rates divide by the wall time, at least one second; per node-hour
    values divide by the node-hours, at least 1e-12, and rates by the
    nodes.  Each job's bytes are spread over its UTC days in proportion to
    its run time on each; a zero-length job books them on its end day.
    """
    if normalize not in ("per_job", "per_node_hour"):
        raise ValueError(f"unknown normalization {normalize!r}")
    table = JobTable.of(jobs)
    perf = PerfColumns.of(table, summaries)
    wall = table.end - table.start
    rx, tx, opens = perf.lustre_rx, perf.lustre_tx, perf.file_opens
    duration = np.maximum(wall, 1)
    values = {"file_opens": opens, "bytes_read": rx, "bytes_written": tx,
              "read_rate": rx / duration, "write_rate": tx / duration}
    if normalize == "per_node_hour":
        node_hours = np.maximum(table.node_hours, 1e-12)
        for metric in ("file_opens", "bytes_read", "bytes_written"):
            values[metric] = values[metric] / node_hours
        for metric in ("read_rate", "write_rate"):
            values[metric] = values[metric] / table.nodes
    stats = LustreStats(normalize=normalize)
    ones = np.ones(len(table))
    for metric in METRICS:
        metric_edges = tuple((edges or {}).get(metric, DEFAULT_EDGES[metric]))
        stats.unweighted[metric] = Histogram1D.of(metric_edges, values[metric], ones, "jobs")
        stats.node_hour_weighted[metric] = Histogram1D.of(
            metric_edges, values[metric], table.node_hours, "node_hours")
    moved = ~(np.isnan(rx) & np.isnan(tx))
    stats.daily = _daily(table.start[moved], table.end[moved],
                         np.where(np.isnan(rx), 0.0, rx)[moved],
                         np.where(np.isnan(tx), 0.0, tx)[moved])
    return stats


def _daily(start: np.ndarray, end: np.ndarray, rx: np.ndarray, tx: np.ndarray
           ) -> list[tuple[date, float, float]]:
    """Each job's bytes spread uniformly over its run window per UTC day,
    summed per day over one segment per (job, day) in job-then-day order."""
    wall = end - start
    ran = wall > 0
    first = np.where(ran, start, end) // SECONDS_PER_DAY
    last = np.where(ran, end - 1, end) // SECONDS_PER_DAY
    days = last - first + 1
    job = np.repeat(np.arange(len(start)), days)
    # each segment's day: the job's first day plus its place among the job's segments
    day = first[job] + np.arange(len(job)) - np.repeat(np.cumsum(days) - days, days)
    seg_start = np.maximum(start[job], day * SECONDS_PER_DAY)
    seg_end = np.minimum(end[job], (day + 1) * SECONDS_PER_DAY)
    share = np.where(ran[job], (seg_end - seg_start) / np.where(ran, wall, 1)[job], 1.0)
    touched, slot = np.unique(day, return_inverse=True)
    slot = slot.reshape(-1)
    read = np.bincount(slot, rx[job] * share, minlength=len(touched)).tolist()
    written = np.bincount(slot, tx[job] * share, minlength=len(touched)).tolist()
    return [(day_date(d), r, w) for d, r, w in zip(touched.tolist(), read, written)]
