"""Concurrency: runnable-thread occupancy, launch types and process bands."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..jobtable import Codes, JobTable, group_totals, labelled
from .perfcolumns import PerfColumns

NA_BUCKET = "N/A"


@dataclass
class ConcurrencyResult:
    # per resource: node-hours by runnable-threads-per-node bucket
    runnable_node_hours: dict[str, dict[str, float]] = field(default_factory=dict)
    # per period: XD SU by launch type
    launch_type_xd_su: dict[str, dict[str, float]] = field(default_factory=dict)
    # XD SU by processes-per-node band
    process_bands_xd_su: dict[str, float] = field(default_factory=dict)


def thread_bucket(median_threads: float | None, cores_per_node: int) -> str:
    """Integer bucket up to the node core count, with an overflow bucket."""
    if median_threads is None:
        return NA_BUCKET
    rounded = int(math.floor(median_threads + 0.5))
    if rounded > cores_per_node:
        return f">{cores_per_node}"
    return str(rounded)


def band_labels(bands: Sequence[int]) -> list[str]:
    labels = [f"<={bands[0]}"]
    for lo, hi in zip(bands, bands[1:]):
        labels.append(f">{lo} <={hi}")
    labels.append(f">{bands[-1]}")
    labels.append(NA_BUCKET)
    return labels


def process_band(median_threads: float | None, bands: Sequence[int]) -> str:
    if median_threads is None:
        return NA_BUCKET
    value = int(math.floor(median_threads + 0.5))
    if value <= bands[0]:
        return f"<={bands[0]}"
    for lo, hi in zip(bands, bands[1:]):
        if lo < value <= hi:
            return f">{lo} <={hi}"
    return f">{bands[-1]}"


def _present(value: float) -> float | None:
    return None if math.isnan(value) else value


def _thread_buckets(table: JobTable, median: np.ndarray) -> Codes:
    """Each row's thread bucket, labelled once per distinct (resource,
    median) pair; every row's resource must have a description."""
    distinct, value = np.unique(median, return_inverse=True)
    width = len(distinct)
    pair = table.resource.codes.astype(np.int64) * width + value.reshape(-1)
    return labelled(pair, lambda p: thread_bucket(
        _present(distinct[p % width].item()),
        table.resources[table.resource.names[p // width]].cores_per_node))


def concurrency_histograms(table: JobTable,
                           perf: PerfColumns,
                           bands: Sequence[int] = (32, 68),
                           period: str = "quarter") -> ConcurrencyResult:
    """Node-hour occupancy by runnable threads, XD SU by launch type over
    time, and XD SU by processes-per-node band.  A job without performance
    data lands in the N/A rows rather than disappearing; jobs on a resource
    with no description are left out, and jobs with no SU factor count in
    the node-hours only."""
    perf.check(table)
    described = ~np.isnan(table.per_resource(lambda spec: spec.cores_per_node))
    table, perf = table.take(described), perf.take(described)
    median = perf.runnable_threads_median
    result = ConcurrencyResult()
    result.runnable_node_hours = group_totals(table.resource, _thread_buckets(table, median),
                                              table.node_hours)
    xd_su = table.weights("xd_su")
    charged = ~np.isnan(xd_su)
    su = xd_su[charged]
    result.launch_type_xd_su = group_totals(table.periods(period).take(charged),
                                            perf.launch_type.take(charged), su)
    result.process_bands_xd_su = dict.fromkeys(band_labels(bands), 0.0)
    band = labelled(median[charged], lambda m: process_band(_present(m), bands))
    sums = np.bincount(band.codes, su, minlength=len(band.names)).astype(np.float64).tolist()
    result.process_bands_xd_su.update(zip(band.names, sums))
    return result
