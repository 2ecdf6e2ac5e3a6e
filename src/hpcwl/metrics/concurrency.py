"""Concurrency: runnable-thread occupancy, launch types and process bands."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..errors import NoFactorForDate
from ..ingest import JobRecord, ResourceSpec, job_xd_su
from ..perfsummary import JobPerfSummary, LaunchType
from ..jobtable import period_key

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


def concurrency_histograms(jobs: Sequence[JobRecord],
                           summaries: Mapping[str, JobPerfSummary],
                           resources: Mapping[str, ResourceSpec],
                           bands: Sequence[int] = (32, 68),
                           period: str = "quarter") -> ConcurrencyResult:
    """Node-hour occupancy by runnable threads, XD SU by launch type over
    time, and XD SU by processes-per-node band.  Jobs without performance
    data land in the N/A rows rather than disappearing."""
    result = ConcurrencyResult()
    for label in band_labels(bands):
        result.process_bands_xd_su[label] = 0.0
    for job in jobs:
        spec = resources.get(job.resource)
        if spec is None:
            continue
        summary = summaries.get(job.job_id)
        median_threads = summary.runnable_threads_median if summary else None

        bucket = thread_bucket(median_threads, spec.cores_per_node)
        per_resource = result.runnable_node_hours.setdefault(job.resource, {})
        per_resource[bucket] = per_resource.get(bucket, 0.0) + job.node_hours

        try:
            su = job_xd_su(job, resources)
        except NoFactorForDate:
            continue
        launch = summary.launch_type.value if summary else LaunchType.UNKNOWN.value
        period_bucket = result.launch_type_xd_su.setdefault(
            period_key(job.end_date, period), {})
        period_bucket[launch] = period_bucket.get(launch, 0.0) + su

        result.process_bands_xd_su[process_band(median_threads, bands)] += su
    return result
